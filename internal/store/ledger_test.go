package store

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestLedgerRecordAndSnapshot(t *testing.T) {
	l, err := OpenLedger("", 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Record("m8.t10", "hatt", []string{"anneal", "beam"})
	l.Record("m8.t10", "hatt", []string{"anneal"})
	l.Record("m12.t20", "anneal", []string{"hatt"})

	snap := l.Snapshot()
	if snap.Plays != 3 {
		t.Fatalf("plays = %d, want 3", snap.Plays)
	}
	if snap.Persisted {
		t.Fatal("memory-only ledger reports Persisted")
	}
	if len(snap.Shapes) != 2 || snap.Shapes[0].Shape != "m12.t20" || snap.Shapes[1].Shape != "m8.t10" {
		t.Fatalf("shapes not sorted: %+v", snap.Shapes)
	}
	row := snap.Shapes[1]
	want := map[string]LedgerCell{
		"anneal": {Wins: 0, Losses: 2},
		"beam":   {Wins: 0, Losses: 1},
		"hatt":   {Wins: 2, Losses: 0},
	}
	if len(row.Methods) != len(want) {
		t.Fatalf("m8.t10 methods = %+v", row.Methods)
	}
	for _, m := range row.Methods {
		w := want[m.Method]
		if m.Wins != w.Wins || m.Losses != w.Losses {
			t.Errorf("m8.t10 %s = %d/%d, want %d/%d", m.Method, m.Wins, m.Losses, w.Wins, w.Losses)
		}
	}
}

// TestLedgerRankGreedy pins pure-exploitation ranking: unplayed specs
// lead (in given order), then win rate descending, with the given order
// breaking ties.
func TestLedgerRankGreedy(t *testing.T) {
	l, err := OpenLedger("", 0)
	if err != nil {
		t.Fatal(err)
	}
	shape := "m8.t10"
	for i := 0; i < 4; i++ {
		l.Record(shape, "anneal", []string{"hatt"})
	}
	l.Record(shape, "hatt", []string{"anneal"})

	got := l.Rank(shape, []string{"hatt", "beam:8", "anneal"})
	want := []string{"beam:8", "anneal", "hatt"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", got, want)
		}
	}

	// Unknown shape: everything unplayed, given order preserved.
	got = l.Rank("m99.t99", []string{"hatt", "anneal"})
	if got[0] != "hatt" || got[1] != "anneal" {
		t.Fatalf("unknown shape Rank = %v", got)
	}

	// Rank must not mutate its argument.
	in := []string{"hatt", "beam:8", "anneal"}
	l.Rank(shape, in)
	if in[0] != "hatt" || in[1] != "beam:8" || in[2] != "anneal" {
		t.Fatalf("Rank mutated its input: %v", in)
	}
}

// TestLedgerRankDeterministic proves ranking is a pure function of
// ledger state: same state, same inputs, same order — even with
// exploration enabled.
func TestLedgerRankDeterministic(t *testing.T) {
	build := func() *Ledger {
		l, err := OpenLedger("", 1) // epsilon 1: explore on every rank
		if err != nil {
			t.Fatal(err)
		}
		l.Record("m8.t10", "hatt", []string{"anneal"})
		l.Record("m8.t10", "anneal", []string{"hatt"})
		return l
	}
	a, b := build(), build()
	specs := []string{"hatt", "beam:4", "anneal"}
	for i := 0; i < 10; i++ {
		ra := a.Rank("m8.t10", specs)
		rb := b.Rank("m8.t10", specs)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("iteration %d: %v vs %v", i, ra, rb)
			}
		}
	}
}

// TestSplitmix64Constants pins the ledger's exploration dice to the
// standard SplitMix64 output for the first two inputs.
func TestSplitmix64Constants(t *testing.T) {
	for _, tc := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{1, 0x910a2dec89025cc1},
	} {
		if got := splitmix64(tc.in); got != tc.want {
			t.Errorf("splitmix64(%d) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

// TestLedgerRankExplores proves epsilon actually bites: across many
// ledger states, a fully-exploring ledger must sometimes front a spec
// the greedy order would not.
func TestLedgerRankExplores(t *testing.T) {
	l, err := OpenLedger("", 1)
	if err != nil {
		t.Fatal(err)
	}
	shape := "m8.t10"
	explored := false
	for i := 0; i < 40 && !explored; i++ {
		l.Record(shape, "hatt", []string{"anneal", "beam:4"})
		got := l.Rank(shape, []string{"hatt", "anneal", "beam:4"})
		if got[0] != "hatt" {
			explored = true
		}
	}
	if !explored {
		t.Fatal("epsilon=1 ledger never promoted a non-favorite across 40 states")
	}
}

func TestLedgerSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	l, err := OpenLedger(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Record("m8.t10", "hatt", []string{"anneal"})
	l.Record("m8.t10", "anneal", []string{"hatt"})
	if snap := l.Snapshot(); !snap.Persisted {
		t.Fatal("disk ledger reports not persisted")
	}

	re, err := OpenLedger(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := re.Snapshot()
	if snap.Plays != 2 {
		t.Fatalf("reopened plays = %d, want 2", snap.Plays)
	}
	if len(snap.Shapes) != 1 || len(snap.Shapes[0].Methods) != 2 {
		t.Fatalf("reopened snapshot = %+v", snap)
	}
	for _, m := range snap.Shapes[0].Methods {
		if m.Wins != 1 || m.Losses != 1 {
			t.Errorf("reopened %s = %d/%d, want 1/1", m.Method, m.Wins, m.Losses)
		}
	}
}

// TestLedgerToleratesCorruptFile: a mangled ledger file is quarantined,
// not fatal, and subsequent records re-create a valid file.
func TestLedgerToleratesCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLedger(path, 0)
	if err != nil {
		t.Fatalf("corrupt ledger file should not fail open: %v", err)
	}
	if snap := l.Snapshot(); snap.Plays != 0 {
		t.Fatalf("corrupt ledger loaded plays = %d", snap.Plays)
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	l.Record("m8.t10", "hatt", nil)
	re, err := OpenLedger(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap := re.Snapshot(); snap.Plays != 1 {
		t.Fatalf("post-recovery reopen plays = %d, want 1", snap.Plays)
	}
}

// TestLedgerWrongVersionStartsFresh: an unknown version is treated like
// corruption — quarantine and start over, never misread.
func TestLedgerWrongVersionStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"plays":7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLedger(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap := l.Snapshot(); snap.Plays != 0 {
		t.Fatalf("future-version ledger loaded plays = %d", snap.Plays)
	}
}

func TestLedgerPersistenceFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "ledger.json")
	l, err := OpenLedger(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the directory out from under the ledger; Record must still
	// count, just flag persistence as failing.
	if err := os.RemoveAll(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	l.Record("m8.t10", "hatt", nil)
	snap := l.Snapshot()
	if snap.Plays != 1 {
		t.Fatalf("plays = %d, want 1", snap.Plays)
	}
	if snap.Persisted || snap.SaveFailures == 0 {
		t.Fatalf("failing disk not surfaced: %+v", snap)
	}
}

// TestRankDoesNotWaitForLedgerWrite: a Record's file write runs outside
// the ledger's lock, so Rank and Snapshot answer while it is held open.
func TestRankDoesNotWaitForLedgerWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	l, err := OpenLedger(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	write := writeLedgerFile
	defer func() { writeLedgerFile = write }()
	entered, release := make(chan struct{}), make(chan struct{})
	writeLedgerFile = func(path string, raw []byte) error {
		close(entered)
		<-release
		return write(path, raw)
	}
	recorded := make(chan struct{})
	go func() {
		l.Record("m8.t10", "hatt", []string{"anneal"})
		close(recorded)
	}()
	<-entered

	ranked := make(chan []string)
	go func() { ranked <- l.Rank("m8.t10", []string{"anneal", "hatt"}) }()
	select {
	case got := <-ranked:
		if got[0] != "hatt" {
			t.Errorf("Rank = %v, want the recorded winner first", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Rank waited for the ledger's file write")
	}
	if snap := l.Snapshot(); snap.Plays != 1 {
		t.Errorf("plays = %d during the write, want 1", snap.Plays)
	}
	close(release)
	<-recorded

	re, err := OpenLedger(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap := re.Snapshot(); snap.Plays != 1 {
		t.Fatalf("reopened plays = %d, want 1", snap.Plays)
	}
}

// TestConcurrentRecordsPersistLatest: whatever order concurrent Records
// reach the disk in, the file ends up holding the newest state.
func TestConcurrentRecordsPersistLatest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	l, err := OpenLedger(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Record("m8.t10", "hatt", []string{"anneal"})
			}
		}()
	}
	wg.Wait()

	re, err := OpenLedger(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := re.Snapshot()
	if snap.Plays != workers*each || len(snap.Shapes) != 1 {
		t.Fatalf("reopened snapshot = %+v, want %d plays", snap, workers*each)
	}
	for _, m := range snap.Shapes[0].Methods {
		if m.Wins+m.Losses != workers*each {
			t.Errorf("reopened %s = %d/%d, want %d plays", m.Method, m.Wins, m.Losses, workers*each)
		}
	}
}
