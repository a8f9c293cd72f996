package store

import (
	"os"
	"testing"

	"repro/internal/mapping"
	"repro/internal/pauli"
)

func testEntry(t *testing.T, modes int) *Entry {
	t.Helper()
	m := mapping.JordanWigner(modes)
	if err := m.Verify(); err != nil {
		t.Fatalf("test mapping invalid: %v", err)
	}
	return &Entry{Method: "jw", Mapping: m, PredictedWeight: 7}
}

func key(h string) Key { return Key{Hamiltonian: h, Spec: "hatt", Options: "o"} }

func TestKeyIDSelfDelimiting(t *testing.T) {
	a := Key{Hamiltonian: "ab", Spec: "c", Options: ""}
	b := Key{Hamiltonian: "a", Spec: "bc", Options: ""}
	if a.id() == b.id() {
		t.Fatal("shifting bytes across key fields must change the id")
	}
	if a.id() != a.id() {
		t.Fatal("id not deterministic")
	}
}

func TestMemoryTierHitMissAndCopySemantics(t *testing.T) {
	s, err := Open(4, "")
	if err != nil {
		t.Fatal(err)
	}
	k := key("h1")
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	e := testEntry(t, 3)
	s.Put(k, e)

	// Mutating what Put was given must not reach the store.
	e.Mapping.Majoranas[0] = pauli.MustParse("XXX")

	got, ok := s.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Mapping.Majoranas[0].Equal(pauli.MustParse("XXX")) {
		t.Fatal("store aliases the caller's Put entry")
	}
	// Mutating what Get returned must not reach the store either.
	got.Mapping.Majoranas[0] = pauli.MustParse("YYY")
	again, _ := s.Get(k)
	if again.Mapping.Majoranas[0].Equal(pauli.MustParse("YYY")) {
		t.Fatal("store aliases a previous Get result")
	}

	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 put / 1 entry", st)
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := Open(2, "")
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, 2)
	s.Put(key("a"), e)
	s.Put(key("b"), e)
	if _, ok := s.Get(key("a")); !ok { // touch a → b becomes LRU
		t.Fatal("a missing")
	}
	s.Put(key("c"), e) // evicts b
	if _, ok := s.Get(key("b")); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := s.Get(key("a")); !ok {
		t.Fatal("recently used a was evicted")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and 2 entries", st)
	}
}

func TestDiskTierSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	k := key("persist")
	e := testEntry(t, 3)

	s1, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.Put(k, e)
	if st := s1.Stats(); st.DiskWrites != 1 {
		t.Fatalf("stats = %+v, want 1 disk write", st)
	}

	// A fresh store over the same dir — simulating a process restart —
	// serves the entry from disk and promotes it to memory.
	s2, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(k)
	if !ok {
		t.Fatal("disk entry not served after reopen")
	}
	if got.Method != "jw" || got.PredictedWeight != 7 {
		t.Fatalf("disk round-trip lost fields: %+v", got)
	}
	for i := range e.Mapping.Majoranas {
		if !got.Mapping.Majoranas[i].Equal(e.Mapping.Majoranas[i]) {
			t.Fatalf("M%d differs after disk round-trip", i)
		}
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want the hit attributed to disk", st)
	}
	// Second Get is a memory hit, not another disk read.
	if _, ok := s2.Get(k); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want promotion into the memory tier", st)
	}
}

// TestRoutedSummaryMemoryOnly: the routed summary is deep-copied in
// and out of the memory tier, and the disk record does not carry it, so
// its bytes are those of an entry without one.
func TestRoutedSummaryMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	k := key("routed")
	plain, err := encodeEntry(k, testEntry(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, 3)
	e.Routed = &Routed{Device: "Montreal", PhysQubits: 27, SwapsAdded: 2, CNOTs: 30, Singles: 40, Depth: 25, FinalLayout: []int{4, 1, 7}}
	s1, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.Put(k, e)
	e.Routed.FinalLayout[0] = 99 // caller mutation after Put

	got, ok := s1.Get(k)
	if !ok || got.Routed == nil || got.Routed.CNOTs != 30 || got.Routed.FinalLayout[0] != 4 {
		t.Fatalf("memory tier routed = %+v, want the stored summary", got.Routed)
	}
	got.Routed.FinalLayout[1] = 99 // caller mutation after Get
	if again, _ := s1.Get(k); again.Routed.FinalLayout[1] != 1 {
		t.Fatal("Get aliases the stored summary")
	}

	raw := recordPayload(t, s1, k)
	if string(raw) != string(plain) {
		t.Errorf("disk record differs from an entry without a summary:\n%s\n%s", raw, plain)
	}
	if decoded, err := decodeEntry(raw, k); err != nil || decoded.Routed != nil {
		t.Errorf("decoded disk entry: routed=%+v err=%v, want no summary", decoded.Routed, err)
	}

	s2, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(k); !ok || got.Routed != nil {
		t.Fatalf("reloaded entry: ok=%v routed=%+v, want no summary", ok, got.Routed)
	}
}

func TestDiskCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key("corrupt")
	s.Put(k, testEntry(t, 3))
	if st := s.Stats(); st.DiskWrites != 1 {
		t.Fatalf("stats = %+v, want 1 disk write", st)
	}

	for name, content := range map[string]string{
		"not json":         "{truncated",
		"wrong key":        `{"hamiltonian":"other","spec":"hatt","options":"o","method":"jw","mapping":""}`,
		"invalid mapping":  `{"hamiltonian":"corrupt","spec":"hatt","options":"o","method":"jw","mapping":"# mapping jw modes=2 qubits=2\nM0 XX\nM1 XX\nM2 XX\nM3 XX\n"}`,
		"empty file":       "",
		"mapping not text": `{"hamiltonian":"corrupt","spec":"hatt","options":"o","method":"jw","mapping":"garbage"}`,
	} {
		// A later record for the key replaces the good one.
		appendRaw(t, dir, record(k.id(), []byte(content)))
		fresh, err := Open(8, dir) // cold memory tier, forced disk read
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := fresh.Get(k); ok {
			t.Fatalf("%s: corrupt disk entry served as a hit", name)
		}
		if st := fresh.Stats(); st.DiskErrors != 1 || st.Misses != 1 {
			t.Fatalf("%s: stats = %+v, want 1 disk error and 1 miss", name, st)
		}
	}
}

// TestDiskLeavesNoStrayFiles: Puts append to the one log; nothing else
// appears in the directory, and no per-entry file is written.
func TestDiskLeavesNoStrayFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key("x"), testEntry(t, 2))
	s.Put(key("y"), testEntry(t, 3))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != logName {
		names := make([]string, len(entries))
		for i, de := range entries {
			names[i] = de.Name()
		}
		t.Fatalf("directory holds %v, want only %s", names, logName)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, 3)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			k := key([]string{"a", "b", "c", "d"}[g%4])
			for i := 0; i < 50; i++ {
				s.Put(k, e)
				if got, ok := s.Get(k); ok {
					_ = got.Mapping.Qubits()
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
