package store

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/mapping"
)

// appendRaw appends bytes to dir's log the way another process would.
func appendRaw(t *testing.T, dir string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// recordPayload returns the payload of the record s indexes for k.
func recordPayload(t *testing.T, s *Store, k Key) []byte {
	t.Helper()
	sp, ok := s.lookup(k.id())
	if !ok {
		t.Fatalf("no record for %+v", k)
	}
	rec, err := s.readRecord(sp)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, ok := parseRecord(rec)
	if !ok {
		t.Fatalf("record for %+v does not frame", k)
	}
	return payload
}

func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestParentFormatDirectoryServesHits: a directory of per-entry files
// written by an earlier build (testdata/parent-format) serves its
// entries as disk hits. The files are imported into the log once and
// left untouched.
func TestParentFormatDirectoryServesHits(t *testing.T) {
	src := filepath.Join("testdata", "parent-format")
	files, err := filepath.Glob(filepath.Join(src, "*.json"))
	if err != nil || len(files) != 2 {
		t.Fatalf("fixture: %v, files=%v", err, files)
	}
	dir := t.TempDir()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	legacyA := key("legacy-a")
	legacyB := Key{Hamiltonian: "legacy-b", Spec: "beam:8", Options: "o2"}

	s, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := s.Get(legacyA)
	if !ok || a.Method != "jw" || a.PredictedWeight != 7 || a.Mapping.Modes != 3 {
		t.Fatalf("legacy-a: ok=%v entry=%+v", ok, a)
	}
	b, ok := s.Get(legacyB)
	if !ok || b.Method != "hatt" || b.PredictedWeight != 11 || !b.Optimal || b.Visited != 42 {
		t.Fatalf("legacy-b: ok=%v entry=%+v", ok, b)
	}
	if !b.Mapping.Majoranas[7].Equal(mapping.JordanWigner(4).Majoranas[7]) {
		t.Fatal("legacy-b mapping differs from the one written")
	}
	if st := s.Stats(); st.DiskHits != 2 || st.DiskErrors != 0 || st.DiskWrites != 0 {
		t.Fatalf("stats = %+v, want 2 disk hits, no errors, no entry writes", st)
	}
	for _, f := range files {
		want, _ := os.ReadFile(f)
		got, err := os.ReadFile(filepath.Join(dir, filepath.Base(f)))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed by the import (err=%v)", filepath.Base(f), err)
		}
	}

	// The next Open finds the entries in the log and imports nothing.
	size := logSize(t, dir)
	again, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := logSize(t, dir); got != size {
		t.Fatalf("second Open grew the log from %d to %d bytes", size, got)
	}
	if _, ok := again.Get(legacyB); !ok {
		t.Fatal("imported entry missing after reopen")
	}
}

// TestTornTailLosesNoLaterRecord: a crash leaves the log ending inside a
// record; records appended after it, by this process or another, all
// stay servable, now and after a reopen.
func TestTornTailLosesNoLaterRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, 3)
	s.Put(key("before"), e)
	torn := record(key("torn").id(), recordPayload(t, s, key("before")))
	appendRaw(t, dir, torn[:len(torn)-40]) // the header promises 40 bytes more than landed

	// Another process appends right after the torn bytes; this one
	// catches up on its index miss.
	other, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	other.Put(key("other"), e)
	if _, ok := s.Get(key("other")); !ok {
		t.Fatal("record appended after the torn tail hidden from a running store")
	}
	s.Put(key("after"), e)

	fresh, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"before", "other", "after"} {
		if _, ok := fresh.Get(key(h)); !ok {
			t.Errorf("%s lost after the torn tail", h)
		}
	}
	if _, ok := fresh.Get(key("torn")); ok {
		t.Error("torn record served")
	}
	if st := fresh.Stats(); st.DiskErrors != 1 || st.DiskQuarantines != 0 {
		t.Fatalf("stats = %+v, want the torn region counted once and nothing quarantined", st)
	}
}

// TestBitFlippedRecordSkipped: a record whose bytes changed on disk
// fails its CRC and is never served — skipped by a scan, quarantined
// when read back through an index built before the change — and its
// neighbours still serve. The flip turns the stored weight 7 into 3,
// which would still decode.
func TestBitFlippedRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, 3)
	for _, h := range []string{"a", "b", "c"} {
		s.Put(key(h), e)
	}
	early, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := bytes.Index(raw, []byte(key("b").id()))
	weight := []byte(`"predicted_weight":7`)
	i := b + bytes.Index(raw[b:], weight) + len(weight) - 1
	raw[i] ^= '7' ^ '3'
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	for h, want := range map[string]bool{"a": true, "b": false, "c": true} {
		if _, ok := fresh.Get(key(h)); ok != want {
			t.Errorf("Get(%s) = %v, want %v", h, ok, want)
		}
	}
	if st := fresh.Stats(); st.DiskErrors != 1 || st.DiskQuarantines != 0 {
		t.Fatalf("stats = %+v, want 1 damaged region and no quarantine", st)
	}
	if got, ok := early.Get(key("b")); ok {
		t.Fatalf("flipped record served with weight %d", got.PredictedWeight)
	}
	if st := early.Stats(); st.DiskQuarantines != 1 {
		t.Fatalf("stats = %+v, want the flipped record quarantined on read", st)
	}
}

// TestCatchUpResumesAtCutRecord: a record another process is still
// appending is not damage; once it is whole, the next miss indexes it.
func TestCatchUpResumesAtCutRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key("in flight")
	payload, err := encodeEntry(k, testEntry(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	rec := record(k.id(), payload)
	for _, part := range [][]byte{rec[:2], rec[2:50], rec[50 : len(rec)-1]} {
		appendRaw(t, dir, part)
		if _, ok := s.Get(k); ok {
			t.Fatal("partial record served")
		}
	}
	appendRaw(t, dir, rec[len(rec)-1:])
	if _, ok := s.Get(k); !ok {
		t.Fatal("completed record not indexed")
	}
	if st := s.Stats(); st.DiskErrors != 0 {
		t.Fatalf("stats = %+v, want no disk errors for a record in flight", st)
	}
}

// TestNoDuplicateAppend: a Put whose id already has a record with the
// same bytes appends nothing — the routed put-back after a disk hit
// carries a summary the disk encoding leaves out.
func TestNoDuplicateAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key("once")
	s.Put(k, testEntry(t, 3))
	s.Put(k, testEntry(t, 3))
	if st := s.Stats(); st.DiskWrites != 1 || st.Puts != 2 {
		t.Fatalf("stats = %+v, want 2 puts and 1 disk write", st)
	}
	size := logSize(t, dir)

	fresh, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := fresh.Get(k)
	if !ok {
		t.Fatal("entry not served from disk")
	}
	e.Routed = &Routed{Device: "Montreal", PhysQubits: 27, CNOTs: 30, FinalLayout: []int{2, 0, 1}}
	fresh.Put(k, e)
	if st := fresh.Stats(); st.DiskWrites != 0 {
		t.Fatalf("stats = %+v, want the put-back to append nothing", st)
	}
	if got := logSize(t, dir); got != size {
		t.Fatalf("log grew from %d to %d bytes", size, got)
	}

	// Different bytes for the id do append, and the later record wins.
	e.PredictedWeight = 9
	fresh.Put(k, e)
	again, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := again.Get(k); !ok || got.PredictedWeight != 9 {
		t.Fatalf("reopened entry: ok=%v weight=%v, want the later record", ok, got)
	}
}

// TestScanSkipsDamageAcrossChunks holds the scan to hand-built logs:
// records larger than its read buffer, garbage that imitates a header,
// and a record cut off at the end.
func TestScanSkipsDamageAcrossChunks(t *testing.T) {
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = key(fmt.Sprint(i)).id()
	}
	big := bytes.Repeat([]byte("x"), scanChunk+scanChunk/2)
	recs := [][]byte{
		record(ids[0], []byte("small")),
		record(ids[1], big),
		record(ids[2], nil),
	}
	fake := record(ids[3], []byte("fake"))
	fake[len(fake)-1] ^= 1 // CRC fails
	var log []byte
	log = append(log, recs[0]...)
	log = append(log, "garbage\xffHA"...)
	log = append(log, fake...)
	starts := []int64{0, int64(len(log))}
	log = append(log, recs[1]...)
	log = append(log, recs[2]...)
	starts = append(starts, int64(len(log))-int64(len(recs[2])))
	cut := int64(len(log))
	log = append(log, recs[0][:headerLen+3]...)

	dir := t.TempDir()
	appendRaw(t, dir, log)
	for _, open := range []bool{true, false} {
		s := &Store{dir: dir, index: map[uint64]span{}}
		f, err := os.Open(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		s.log = f
		resume := s.scanLocked(0, int64(len(log)), open)
		f.Close()
		wantResume, wantErrs := cut, int64(1)
		if !open {
			wantResume, wantErrs = int64(len(log)), 2
		}
		if resume != wantResume || s.diskErr.Load() != wantErrs {
			t.Errorf("open=%v: resume=%d errors=%d, want %d and %d", open, resume, s.diskErr.Load(), wantResume, wantErrs)
		}
		if len(s.index) != 3 {
			t.Errorf("open=%v: %d records indexed, want 3", open, len(s.index))
		}
		for i, off := range starts {
			if sp := s.index[prefix(ids[i])]; sp.off != off || int(sp.n) != len(recs[i]) {
				t.Errorf("open=%v: record %d at %+v, want offset %d length %d", open, i, sp, off, len(recs[i]))
			}
		}
	}
}

// BenchmarkOpen measures Open's scan of a log of n records sized like
// miss-inline's entries (24- and 32-mode mappings) and the index's heap
// bytes per entry, with the log in the page cache.
func BenchmarkOpen(b *testing.B) {
	payloads := make([][]byte, 2)
	for i, modes := range []int{24, 32} {
		k := key("bench")
		raw, err := encodeEntry(k, &Entry{Method: "hatt", Mapping: mapping.JordanWigner(modes), PredictedWeight: 1000})
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = raw
	}
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			f, err := os.Create(filepath.Join(dir, logName))
			if err != nil {
				b.Fatal(err)
			}
			w := bufio.NewWriterSize(f, 1<<20)
			var size int64
			for i := 0; i < n; i++ {
				rec := record(key(fmt.Sprint(i)).id(), payloads[i%2])
				size += int64(len(rec))
				w.Write(rec)
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			f.Close()
			b.ResetTimer()
			var perEntry float64
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				s, err := Open(0, dir)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&after)
				if len(s.index) != n {
					b.Fatalf("indexed %d of %d records", len(s.index), n)
				}
				perEntry = float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
				s.Close()
				b.StartTimer()
			}
			b.ReportMetric(perEntry, "index-B/entry")
			b.ReportMetric(float64(size)/float64(n), "log-B/entry")
		})
	}
}
