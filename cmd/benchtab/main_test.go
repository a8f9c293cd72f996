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
