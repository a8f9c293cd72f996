package main

import (
	"flag"
	"io"
	"slices"
	"testing"
)

// TestIgnoredByPerf: -perf names every table flag it would silently
// ignore, and accepts -json and the profiling flags.
func TestIgnoredByPerf(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-perf"}, nil},
		{[]string{"-perf", "-json", "f.json", "-cpuprofile", "c.out", "-memprofile", "m.out"}, nil},
		{[]string{"-perf", "-max-modes", "8"}, []string{"-max-modes"}},
		{[]string{"-shots", "5", "-perf", "-all", "-json", "f.json"}, []string{"-all", "-shots"}},
		{[]string{"-perf", "-max-modes", "0"}, []string{"-max-modes"}}, // set to its default still counts
	} {
		fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Bool("perf", false, "")
		fs.Bool("all", false, "")
		fs.String("json", "", "")
		fs.String("cpuprofile", "", "")
		fs.String("memprofile", "", "")
		fs.Int("max-modes", 0, "")
		fs.Int("shots", 1000, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := ignoredByPerf(fs); !slices.Equal(got, tc.want) {
			t.Errorf("ignoredByPerf(%v) = %v, want %v", tc.args, got, tc.want)
		}
	}
}

// TestPerfOnly: a run without -perf names -json, which only -perf
// reads, and lets the table and profiling flags through.
func TestPerfOnly(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{nil, nil},
		{[]string{"-max-modes", "4"}, nil},
		{[]string{"-cpuprofile", "c.out", "-memprofile", "m.out", "-all"}, nil},
		{[]string{"-max-modes", "4", "-json", "t.json"}, []string{"-json"}},
		{[]string{"-json", ""}, []string{"-json"}}, // set to its default still counts
	} {
		fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Bool("all", false, "")
		fs.String("json", "", "")
		fs.String("cpuprofile", "", "")
		fs.String("memprofile", "", "")
		fs.Int("max-modes", 0, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := perfOnly(fs); !slices.Equal(got, tc.want) {
			t.Errorf("perfOnly(%v) = %v, want %v", tc.args, got, tc.want)
		}
	}
}
