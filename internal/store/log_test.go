package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// scanStore returns a store over the open log f with an empty index,
// for driving scanLocked directly.
func scanStore(f *os.File) *Store {
	return &Store{dir: filepath.Dir(f.Name()), log: f, index: map[uint64]span{}}
}

// openLog opens the log at path for reading until the test ends or the
// caller closes it.
func openLog(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestScanLeavesCutTailOpen cuts the log's last record after k bytes,
// for every k short of the end of its id. An open scan resumes at the
// cut record, which the next scan indexes once it is whole; a closed
// scan counts it as one damaged region.
func TestScanLeavesCutTailOpen(t *testing.T) {
	first := record(key("first").id(), []byte(`{"whole":true}`))
	last := record(key("last").id(), []byte(`{"whole":false}`))
	path := filepath.Join(t.TempDir(), logName)
	for k := 1; k < headerLen+idLen; k++ {
		log := append(append([]byte(nil), first...), last[:k]...)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		f := openLog(t, path)
		for _, open := range []bool{true, false} {
			s := scanStore(f)
			resume := s.scanLocked(0, int64(len(log)), open)
			wantResume, wantErrs := int64(len(first)), int64(0)
			if !open {
				wantResume, wantErrs = int64(len(log)), 1
			}
			if resume != wantResume || s.diskErr.Load() != wantErrs || len(s.index) != 1 {
				t.Fatalf("k=%d open=%v: resume=%d errors=%d indexed=%d, want %d, %d and 1",
					k, open, resume, s.diskErr.Load(), len(s.index), wantResume, wantErrs)
			}
		}
		appendRaw(t, filepath.Dir(path), last[k:])
		s := scanStore(f)
		s.scanLocked(s.scanLocked(0, int64(len(log)), true), int64(len(first)+len(last)), true)
		if sp, ok := s.index[prefix(key("last").id())]; !ok || sp.off != int64(len(first)) || s.diskErr.Load() != 0 {
			t.Fatalf("k=%d: completed record at %+v (indexed %v), errors=%d", k, sp, ok, s.diskErr.Load())
		}
		f.Close()
	}
}

// TestScanMatchesReference holds scanLocked to refScan on random logs:
// records of random sizes, a few longer than the scan's buffer, with
// ids drawn from a small pool so that later records replace earlier
// ones; garbage with stray 0xff bytes, magic prefixes and headers that
// frame nothing; flipped bits; torn records; a cut tail; and a log that
// ends before the scan's end. Each log is scanned open and closed, in
// one pass and as a scan that stops partway and resumes, and the resume
// offsets, the index and the damage count must match.
func TestScanMatchesReference(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	rng := rand.New(rand.NewSource(1))
	ids := make([]string, 6)
	for i := range ids {
		ids[i] = key(fmt.Sprint("pool", i)).id()
	}
	noise := make([]byte, scanChunk+4096)
	rng.Read(noise)
	path := filepath.Join(t.TempDir(), logName)
	for iter := 0; iter < n; iter++ {
		log := randomLog(rng, ids, noise)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		to := int64(len(log))
		if rng.Intn(8) == 0 {
			to += 1 + rng.Int63n(64) // the log ends before the scan does
		}
		mid := rng.Int63n(to + 1)
		f := openLog(t, path)
		for _, open := range []bool{true, false} {
			s := scanStore(f)
			resume := []int64{s.scanLocked(0, to, open)}
			refIndex := map[uint64]span{}
			refResume, refErrs := refScan(f, refIndex, 0, to, open)
			want := []int64{refResume}

			// The same log, scanned open up to mid and resumed.
			s2 := scanStore(f)
			r := s2.scanLocked(0, mid, true)
			resume = append(resume, r, s2.scanLocked(r, to, open))
			refIndex2 := map[uint64]span{}
			rr, e1 := refScan(f, refIndex2, 0, mid, true)
			rr2, e2 := refScan(f, refIndex2, rr, to, open)
			want = append(want, rr, rr2)

			if !slices.Equal(resume, want) || s.diskErr.Load() != refErrs || s2.diskErr.Load() != e1+e2 ||
				!maps.Equal(s.index, refIndex) || !maps.Equal(s2.index, refIndex2) {
				t.Fatalf("log %d (%d bytes, to=%d, mid=%d, open=%v): resume %v errors %d+%d indexed %d+%d; reference %v, %d+%d, %d+%d",
					iter, len(log), to, mid, open, resume, s.diskErr.Load(), s2.diskErr.Load(), len(s.index), len(s2.index),
					want, refErrs, e1+e2, len(refIndex), len(refIndex2))
			}
		}
		f.Close()
	}
}

// randomLog builds one log for TestScanMatchesReference. Payloads are
// cut from noise, which holds every byte value.
func randomLog(rng *rand.Rand, ids []string, noise []byte) []byte {
	payload := func() []byte {
		n := rng.Intn(300)
		if rng.Intn(40) == 0 {
			n = scanChunk - headerLen - idLen + rng.Intn(4096) // about the buffer's size
		}
		i := rng.Intn(len(noise) - n + 1)
		return noise[i : i+n]
	}
	var log []byte
	for parts := rng.Intn(10); parts >= 0; parts-- {
		rec := record(ids[rng.Intn(len(ids))], payload())
		switch rng.Intn(10) {
		case 0: // garbage with stray 0xff bytes and magic prefixes
			for k := rng.Intn(6); k >= 0; k-- {
				switch rng.Intn(3) {
				case 0:
					log = append(log, noise[:rng.Intn(40)]...)
				case 1:
					log = append(log, recordMagic[:1+rng.Intn(len(recordMagic))]...)
				default:
					log = append(log, "\xff\xff{}"...)
				}
			}
		case 1: // a header that frames no record
			h := append([]byte(nil), rec[:headerLen]...)
			binary.LittleEndian.PutUint32(h[12:], rng.Uint32())
			log = append(log, h...)
		case 2: // a flipped bit
			i := rng.Intn(len(rec))
			rec[i] ^= 1 << rng.Intn(8)
			log = append(log, rec...)
		case 3: // a torn record, followed by more
			log = append(log, rec[:rng.Intn(len(rec))]...)
		default:
			log = append(log, rec...)
		}
	}
	if rng.Intn(3) == 0 { // a cut tail
		rec := record(ids[rng.Intn(len(ids))], payload())
		log = append(log, rec[:rng.Intn(len(rec))]...)
	}
	return log
}

// refScan is the scan this package shipped when Open first read the
// log through a window of its own, kept verbatim but for names as the
// reference TestScanMatchesReference holds scanLocked to. It indexes
// into index and returns the resume offset and the damage count.
func refScan(f *os.File, index map[uint64]span, from, to int64, open bool) (resume, errs int64) {
	place := func(p uint64, sp span) {
		if old, ok := index[p]; !ok || old.off < sp.off {
			index[p] = sp
		}
	}
	damaged := func(from, to int64) { errs++ }
	w := refWindow{f: f, base: from, limit: to}
	cut, bad := int64(-1), int64(-1) // first cut-off record; start of the damage being skipped
	for off := from; ; {
		next := w.find(off)
		if next > off && bad < 0 {
			bad = off
		}
		if off = next; off >= w.limit {
			break
		}
		n, st := w.frame(off)
		switch st {
		case refFrameValid:
			id, _ := w.at(off+headerLen, idLen)
			place(prefix(id), span{off, uint32(n)})
			if bad >= 0 {
				damaged(bad, off)
			}
			cut, bad = -1, -1
			off += n
			continue
		case refFrameCut:
			if cut < 0 {
				cut = off
			}
		}
		if bad < 0 {
			bad = off
		}
		off++
	}
	end := to
	if w.err != nil {
		errs++
		end, open = w.limit, true
	}
	if open && cut >= 0 {
		if bad >= 0 && bad < cut {
			damaged(bad, cut)
		}
		return cut, errs
	}
	if bad >= 0 {
		damaged(bad, end)
	}
	return end, errs
}

type refFrameStatus uint8

const (
	refFrameBad   refFrameStatus = iota // no record starts here
	refFrameCut                         // a record may start here but runs past the scan's end
	refFrameValid                       // a whole record whose CRC verifies
)

// refWindow reads the log for a scan through one buffer of scanChunk
// bytes, so a scan's memory does not grow with the log or a record.
type refWindow struct {
	f     *os.File
	buf   []byte
	base  int64 // log offset of buf[0]
	limit int64 // end of the scan, lowered to what was read after a read error
	err   error
}

// at returns the n ≤ scanChunk bytes at off, or with ok false the
// fewer of them that lie before the limit. The slice is valid until the
// next call.
func (w *refWindow) at(off int64, n int) (b []byte, ok bool) {
	ok = true
	if rest := w.limit - off; int64(n) > rest {
		n, ok = int(max(rest, 0)), false
	}
	if n == 0 {
		return nil, ok
	}
	if off < w.base || off+int64(n) > w.base+int64(len(w.buf)) {
		w.fill(off)
		if held := w.base + int64(len(w.buf)) - off; int64(n) > held {
			n, ok = int(held), false
		}
	}
	i := int(off - w.base)
	return w.buf[i : i+n], ok
}

// fill refills the buffer from off, keeping what it holds from there.
func (w *refWindow) fill(off int64) {
	if w.buf == nil {
		w.buf = make([]byte, 0, scanChunk)
	}
	kept := 0
	if off >= w.base && off < w.base+int64(len(w.buf)) {
		kept = copy(w.buf[:cap(w.buf)], w.buf[off-w.base:])
	}
	w.base = off
	want := int(min(int64(cap(w.buf)-kept), w.limit-off-int64(kept)))
	n := 0
	if want > 0 {
		var err error
		n, err = w.f.ReadAt(w.buf[kept:kept+want], off+int64(kept))
		if n < want {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			w.err = err
			w.limit = off + int64(kept+n)
		}
	}
	w.buf = w.buf[:kept+n]
}

// find returns the first offset at or after off where the record magic
// starts, or where a prefix of it runs into the limit; else the limit.
func (w *refWindow) find(off int64) int64 {
	for off < w.limit {
		var b []byte
		if off >= w.base && off < w.base+int64(len(w.buf)) {
			b = w.buf[off-w.base:]
		}
		if len(b) < len(recordMagic) {
			b, _ = w.at(off, scanChunk)
		}
		if i := bytes.Index(b, []byte(recordMagic)); i >= 0 {
			return off + int64(i)
		}
		if off+int64(len(b)) >= w.limit {
			for k := min(len(recordMagic)-1, len(b)); k > 0; k-- {
				if bytes.HasSuffix(b, []byte(recordMagic[:k])) {
					return w.limit - int64(k)
				}
			}
			break
		}
		off += int64(len(b) - (len(recordMagic) - 1))
	}
	return w.limit
}

// frame judges the candidate record at off, which find returned, and
// returns its length when it is valid.
func (w *refWindow) frame(off int64) (int64, refFrameStatus) {
	h, ok := w.at(off, headerLen)
	if !ok {
		return 0, refFrameCut
	}
	n, ok := frameLen(h)
	if !ok {
		return 0, refFrameBad
	}
	if off+n > w.limit {
		return 0, refFrameCut
	}
	want := binary.LittleEndian.Uint32(h[4:])
	var sum uint32
	for at, rest := off+8, n-8; rest > 0; {
		k := min(rest, scanChunk)
		b, ok := w.at(at, int(k))
		if !ok {
			return 0, refFrameCut // a read error lowered the limit
		}
		sum = crc32.Update(sum, castagnoli, b)
		at, rest = at+k, rest-k
	}
	if sum != want {
		return 0, refFrameBad
	}
	return n, refFrameValid
}
