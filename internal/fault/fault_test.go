package fault

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisarmedIsNoOp(t *testing.T) {
	Disarm()
	if Enabled() || Active() != "" || Stats() != nil {
		t.Fatal("disarmed state leaks plan data")
	}
	if err := Point("store.disk.write"); err != nil {
		t.Fatalf("disarmed Point: %v", err)
	}
	b := []byte("payload")
	if got := Mutate("store.disk.write", b); len(got) != len(b) {
		t.Fatalf("disarmed Mutate truncated: %d/%d", len(got), len(b))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"seed=1",                // no site rules
		"site",                  // no '='
		"seed=nope;x=error",     // bad seed
		"x=explode",             // unknown mode
		"x=error:arg",           // error takes no arg
		"x=latency:fast",        // bad duration
		"x=latency:-1s",         // non-positive duration
		"x=torn:1.5",            // fraction out of range
		"x=torn:0.5@0",          // pct out of range
		"x=torn:0.5@101",        // pct out of range
		"x=error*0",             // zero burst
		"x=error;x=latency:1ms", // duplicate site
	}
	for _, plan := range bad {
		if _, err := Parse(plan); err == nil {
			t.Errorf("Parse(%q) accepted a bad plan", plan)
		}
	}
}

func TestErrorPointFiresAndCounts(t *testing.T) {
	defer Disarm()
	if err := Arm("seed=7;a.b=error*3"); err != nil {
		t.Fatal(err)
	}
	var injected int
	for i := 0; i < 10; i++ {
		if err := Point("a.b"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("wrong sentinel: %v", err)
			}
			injected++
		}
	}
	if injected != 3 {
		t.Fatalf("burst *3 fired %d times", injected)
	}
	if got := Stats()["a.b"]; got != 3 {
		t.Fatalf("Stats = %d, want 3", got)
	}
	if err := Point("other.site"); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestPercentageIsDeterministic(t *testing.T) {
	defer Disarm()
	run := func() []bool {
		if err := Arm("seed=42;a.b=error@30"); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = Point("a.b") != nil
		}
		return out
	}
	first, second := run(), run()
	fired := 0
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("decision %d differs across identical plans", i)
		}
		if first[i] {
			fired++
		}
	}
	// 30% of 200 with a decent mixer: expect a broad but nonzero band.
	if fired < 30 || fired > 90 {
		t.Fatalf("@30 fired %d/200 times", fired)
	}

	if err := Arm("seed=43;a.b=error@30"); err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range first {
		if (Point("a.b") != nil) != first[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("changing the seed did not change the schedule")
	}
}

func TestLatencyHonorsContext(t *testing.T) {
	defer Disarm()
	if err := Arm("seed=1;slow.site=latency:30s"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := PointCtx(ctx, "slow.site")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("latency failpoint ignored the context")
	}

	if err := Arm("seed=1;quick.site=latency:5ms"); err != nil {
		t.Fatal(err)
	}
	if err := PointCtx(context.Background(), "quick.site"); err != nil {
		t.Fatalf("completed latency injection should be nil, got %v", err)
	}
}

func TestMutateTruncates(t *testing.T) {
	defer Disarm()
	if err := Arm("seed=1;wire=torn:0.5*1"); err != nil {
		t.Fatal(err)
	}
	b := []byte("0123456789")
	if got := Mutate("wire", b); len(got) != 5 {
		t.Fatalf("torn:0.5 kept %d/10 bytes", len(got))
	}
	if got := Mutate("wire", b); len(got) != 10 {
		t.Fatalf("burst *1 still truncating: %d/10", len(got))
	}
	// Error-mode sites never truncate, and torn sites never error.
	if err := Arm("seed=1;wire=short:0"); err != nil {
		t.Fatal(err)
	}
	if err := Point("wire"); err != nil {
		t.Fatalf("torn rule fired through Point: %v", err)
	}
	if got := Mutate("wire", b); len(got) != 0 {
		t.Fatalf("short:0 kept %d bytes", len(got))
	}
}

func TestArmFromEnv(t *testing.T) {
	defer Disarm()
	t.Setenv(EnvVar, "seed=9;x=error")
	plan, err := ArmFromEnv()
	if err != nil || plan != "seed=9;x=error" {
		t.Fatalf("ArmFromEnv = %q, %v", plan, err)
	}
	if !Enabled() || Active() != plan {
		t.Fatal("env plan not armed")
	}
	if !strings.Contains(Point("x").Error(), "at x") {
		t.Fatal("injected error does not name its site")
	}

	t.Setenv(EnvVar, "")
	Disarm()
	if plan, err := ArmFromEnv(); err != nil || plan != "" || Enabled() {
		t.Fatalf("unset env armed a plan: %q %v", plan, err)
	}
}
