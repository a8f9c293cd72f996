package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
)

// logName is the disk tier's one file inside the store directory.
const logName = "store.log"

// A record is a header, the entry's hex id and its encodeEntry payload:
//
//	[0:4)    recordMagic
//	[4:8)    CRC-32C (Castagnoli) of every byte after this field
//	[8:12)   id length, little-endian (always idLen)
//	[12:16)  payload length, little-endian (at most maxPayload)
//	[16:80)  id
//	[80:)    payload
//
// The magic's first byte, 0xff, never occurs in UTF-8 text, so neither
// a JSON payload nor a hex id can imitate the start of a record; a
// scan searching forward through damage relies on the CRC for the rest.
const (
	recordMagic = "\xffHAT"
	headerLen   = 16
	idLen       = 2 * 32  // hex SHA-256
	maxPayload  = 1 << 28 // a longer length field is damage, not a record
	scanChunk   = 1 << 20 // a scan reads the log this many bytes at a time
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// span locates one record in the log.
type span struct {
	off int64
	n   uint32 // header, id and payload
}

// prefix is an id's index key: the first 64 bits of the hex SHA-256.
// It does not validate: the record's full id confirms every hit.
func prefix[T string | []byte](id T) uint64 {
	var p uint64
	for i := 0; i < 16; i++ {
		c := id[i]
		if c >= 'a' {
			c -= 'a' - 10
		} else {
			c -= '0'
		}
		p = p<<4 | uint64(c&0xf)
	}
	return p
}

// record frames payload as id's log record.
func record(id string, payload []byte) []byte {
	rec := make([]byte, headerLen+idLen+len(payload))
	copy(rec, recordMagic)
	binary.LittleEndian.PutUint32(rec[8:], idLen)
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(payload)))
	copy(rec[headerLen:], id)
	copy(rec[headerLen+idLen:], payload)
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[8:], castagnoli))
	return rec
}

// frameLen returns the length of the record that the header h (at
// least headerLen bytes) announces, or false when h is no header.
func frameLen(h []byte) (int64, bool) {
	if string(h[:4]) != recordMagic || binary.LittleEndian.Uint32(h[8:]) != idLen {
		return 0, false
	}
	pl := binary.LittleEndian.Uint32(h[12:])
	if pl > maxPayload {
		return 0, false
	}
	return headerLen + idLen + int64(pl), true
}

// parseRecord returns the id and payload of rec, one whole record read
// back through its span, or false when it no longer frames or its CRC
// fails.
func parseRecord(rec []byte) (id, payload []byte, ok bool) {
	if len(rec) < headerLen {
		return nil, nil, false
	}
	if n, ok := frameLen(rec); !ok || n != int64(len(rec)) ||
		crc32.Checksum(rec[8:], castagnoli) != binary.LittleEndian.Uint32(rec[4:]) {
		return nil, nil, false
	}
	return rec[headerLen : headerLen+idLen], rec[headerLen+idLen:], true
}

// openLog opens (creating it, durably, if missing) the directory's log
// and indexes it with one sequential scan, then imports the per-entry
// files of earlier builds.
func (s *Store) openLog() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(s.dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	created := err == nil
	if errors.Is(err, fs.ErrExist) {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	}
	if err != nil {
		return err
	}
	if created {
		// The new name must survive a crash as surely as the records
		// synced into the file behind it.
		err = syncDir(s.dir)
	}
	var fi os.FileInfo
	if err == nil {
		fi, err = f.Stat()
	}
	if err != nil {
		f.Close()
		return err
	}
	s.log = f
	s.index = make(map[uint64]span)
	s.end = s.scanLocked(0, fi.Size(), true)
	s.seen = fi.Size()
	s.importLegacy()
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// importLegacy appends, once, each per-entry file (<id>.json) that an
// earlier build left in the directory and whose id the log does not
// hold yet, so that after Open the log is the tier's one read path. The
// files stay as they are: an older build sharing the directory still
// serves them, and the next Open finds their ids indexed and skips
// them. They are framed unread, and validated on load like any record.
func (s *Store) importLegacy() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		s.diskFail()
		return
	}
	done := make(map[uint64]span)
	for _, de := range ents {
		id, ok := strings.CutSuffix(de.Name(), ".json")
		if _, err := hex.DecodeString(id); !ok || len(id) != idLen || err != nil {
			continue
		}
		if _, ok := s.index[prefix(id)]; ok {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(s.dir, de.Name()))
		if err != nil {
			s.diskErr.Add(1)
			continue
		}
		sp, err := s.writeRecord(record(id, raw))
		if err != nil {
			s.diskFail()
			return
		}
		done[prefix(id)] = sp
	}
	if len(done) == 0 {
		return
	}
	if err := datasync(s.log); err != nil {
		s.diskFail()
		return
	}
	for p, sp := range done {
		s.place(p, sp)
	}
	slog.Info("store imported per-entry files", "dir", s.dir, "entries", len(done))
}

// place indexes a record; of two records for one id the later wins.
// s.logMu is held, or the store is not yet shared.
func (s *Store) place(p uint64, sp span) {
	if old, ok := s.index[p]; !ok || old.off < sp.off {
		s.index[p] = sp
	}
}

// lookup returns the span of id's latest record. On an index miss it
// first indexes what other processes appended since the last scan; when
// nothing was, that costs one fstat.
func (s *Store) lookup(id string) (span, bool) {
	p := prefix(id)
	s.logMu.Lock()
	sp, ok := s.index[p]
	s.logMu.Unlock()
	if ok {
		return sp, true
	}
	fi, err := s.log.Stat()
	if err != nil {
		s.diskErr.Add(1)
		return span{}, false
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if size := fi.Size(); size > s.seen {
		s.end = s.scanLocked(s.end, size, true)
		s.seen = size
	}
	sp, ok = s.index[p]
	return sp, ok
}

// readRecord reads the whole record at sp.
func (s *Store) readRecord(sp span) ([]byte, error) {
	rec := make([]byte, sp.n)
	if _, err := s.log.ReadAt(rec, sp.off); err != nil {
		return nil, err
	}
	return rec, nil
}

// holds reports whether id's indexed record carries exactly payload, so
// that appending it again would add nothing. That is the put-back of a
// routed disk hit: the disk encoding leaves the routed summary out.
func (s *Store) holds(id string, payload []byte) bool {
	s.logMu.Lock()
	sp, ok := s.index[prefix(id)]
	s.logMu.Unlock()
	if !ok || int(sp.n) != headerLen+idLen+len(payload) {
		return false
	}
	rec, err := s.readRecord(sp)
	if err != nil {
		return false
	}
	rid, p, ok := parseRecord(rec)
	return ok && string(rid) == id && bytes.Equal(p, payload)
}

// appendRecord appends id's record and indexes it once fdatasync has
// made it durable; a failed write or sync leaves it out of the index.
// Concurrent appends share the wait for the disk: the lock covers the
// write, not the sync.
func (s *Store) appendRecord(id string, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("store: entry of %d bytes exceeds the log's %d-byte record bound", len(payload), maxPayload)
	}
	sp, err := s.writeRecord(record(id, payload))
	if err != nil {
		return err
	}
	if err := datasync(s.log); err != nil {
		return err
	}
	s.logMu.Lock()
	s.place(prefix(id), sp)
	s.logMu.Unlock()
	return nil
}

// writeRecord appends rec in one write on the O_APPEND descriptor, so a
// record another process appends lands before or after it, never
// inside, and returns where it landed. Records others appended since
// the last scan are indexed on the way. The log is never truncated:
// another process may be mid-append.
func (s *Store) writeRecord(rec []byte) (span, error) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if _, err := s.log.Write(rec); err != nil {
		return span{}, err
	}
	end, err := s.log.Seek(0, io.SeekCurrent)
	if err != nil {
		return span{}, err
	}
	off := end - int64(len(rec))
	if off != s.end {
		// Writes to one file serialize, so whatever lies before this
		// record is complete: a record cut off there is damage.
		s.scanLocked(s.end, off, false)
	}
	s.end, s.seen = end, end
	return span{off, uint32(len(rec))}, nil
}

// scanLocked indexes every record in [from, to) that frames and passes
// its CRC. Bytes that do not are damage: the scan searches forward for
// the next header and counts each damaged region once in DiskErrors.
// With open set, to is the log's current size and another process may
// be mid-append, so a record cut off at to is not yet damage: unless a
// valid record follows it, the scan returns its offset, where the next
// scan resumes. Otherwise it returns to. A read error, a log that ends
// before to among them, ends the scan where the read stopped, as an
// open scan ends. s.logMu is held, or the store is not yet shared.
func (s *Store) scanLocked(from, to int64, open bool) int64 {
	// A catch-up scan of a few records does not allocate scanChunk.
	r := &logReader{f: s.log, off: from, limit: to,
		r: bufio.NewReaderSize(io.NewSectionReader(s.log, from, to-from), int(min(scanChunk, to-from)))}
	cut, bad := int64(-1), int64(-1) // first cut-off record; start of the damage being skipped
	for r.off < r.limit {
		// Skip to the next byte that may start a record: the magic's
		// first, which neither a JSON payload nor a hex id contains.
		b := r.peek(int64(max(r.r.Buffered(), 1)))
		i := bytes.IndexByte(b, recordMagic[0])
		if i != 0 && len(b) > 0 && bad < 0 {
			bad = r.off
		}
		if i < 0 {
			r.advance(int64(len(b)))
			continue
		}
		r.advance(int64(i))
		n, p, st := r.frame()
		switch st {
		case frameValid:
			s.place(p, span{r.off, uint32(n)})
			if bad >= 0 {
				s.damaged(bad, r.off)
			}
			cut, bad = -1, -1
			r.advance(n)
			continue
		case frameCut:
			if cut < 0 {
				cut = r.off
			}
		}
		if bad < 0 {
			bad = r.off
		}
		r.advance(1)
	}
	end := to
	if r.err != nil {
		s.diskErr.Add(1)
		slog.Warn("store log unreadable", "path", s.log.Name(), "offset", r.limit, "err", r.err)
		end, open = r.limit, true
	}
	if open && cut >= 0 {
		if bad >= 0 && bad < cut {
			s.damaged(bad, cut)
		}
		return cut
	}
	if bad >= 0 {
		s.damaged(bad, end)
	}
	return end
}

// damaged counts and logs one region of the log that holds no record.
func (s *Store) damaged(from, to int64) {
	s.diskErr.Add(1)
	slog.Warn("store log damage skipped", "path", s.log.Name(), "offset", from, "bytes", to-from)
}

type frameStatus uint8

const (
	frameBad   frameStatus = iota // no record starts here
	frameCut                      // a record may start here but runs past the scan's end
	frameValid                    // a whole record whose CRC verifies
)

// logReader reads the log from off up to limit for a scan.
type logReader struct {
	f     *os.File
	r     *bufio.Reader // reads from off
	off   int64
	limit int64 // end of the scan, lowered to what was read after a read error
	err   error
}

// peek returns the n bytes at off, or the fewer of them that lie
// before the limit. The slice is valid until the next peek or advance.
func (r *logReader) peek(n int64) []byte {
	b, err := r.r.Peek(int(min(n, r.limit-r.off)))
	if err != nil {
		r.err, r.limit = err, r.off+int64(len(b))
	}
	return b
}

// advance moves the scan n bytes on. Past a record longer than the
// buffer, which frame read on the side, the reader starts afresh.
func (r *logReader) advance(n int64) {
	if r.off += n; n <= int64(r.r.Buffered()) {
		r.r.Discard(int(n))
	} else {
		r.r.Reset(io.NewSectionReader(r.f, r.off, r.limit-r.off))
	}
}

// frame judges the candidate record at off, a 0xff byte, and returns
// its length and its id's index key when it is valid.
func (r *logReader) frame() (int64, uint64, frameStatus) {
	h := r.peek(headerLen + idLen)
	if len(h) < headerLen {
		// A tail shorter than a header is cut off when it begins the magic.
		if k := min(len(h), len(recordMagic)); string(h[:k]) == recordMagic[:k] {
			return 0, 0, frameCut
		}
		return 0, 0, frameBad
	}
	n, ok := frameLen(h)
	switch {
	case !ok:
		return 0, 0, frameBad
	case r.off+n > r.limit: // also when fewer than headerLen+idLen bytes are left
		return 0, 0, frameCut
	case n <= int64(r.r.Size()):
		rec := r.peek(n)
		if int64(len(rec)) < n {
			return 0, 0, frameCut // a read error lowered the limit
		}
		if _, _, ok := parseRecord(rec); !ok {
			return 0, 0, frameBad
		}
		return n, prefix(rec[headerLen:]), frameValid
	}
	// A record longer than the buffer has its CRC computed on the side,
	// from h, which is read before anything else is peeked.
	want, p := binary.LittleEndian.Uint32(h[4:]), prefix(h[headerLen:])
	sum := crc32.New(castagnoli)
	if k, err := io.CopyN(sum, io.NewSectionReader(r.f, r.off+8, n-8), n-8); err != nil {
		r.err, r.limit = err, r.off+8+k
		return 0, 0, frameCut
	}
	if sum.Sum32() != want {
		return 0, 0, frameBad
	}
	return n, p, frameValid
}
