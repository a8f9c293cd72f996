// Package store is the content-addressed compiled-mapping store behind
// the compilation service. A compiled result is addressed by what went
// into it — the Majorana Hamiltonian's 128-bit content fingerprint, the
// method spec, and the canonical options digest — so any process that
// compiles the same problem with the same knobs hits the same entry,
// across goroutines, processes, and (with the disk tier) restarts.
//
// The store is two tiers. The memory tier is a bounded LRU map, always
// on. The disk tier is optional: one append-only log per directory, in
// which each entry is one CRC-framed record written with a single
// O_APPEND write and made durable by fdatasync before Put returns, and
// an in-memory index rebuilt by one sequential scan at Open. Processes
// sharing a directory see each other's entries: an index miss first
// indexes what the log grew by. Loads are tolerant — a damaged region of
// the log is skipped up to the next valid record, and a record that
// frames but fails validation (unparsable, mismatched, or
// algebra-violating) is treated as a miss (counted in Stats.DiskErrors),
// never an error surfaced to the caller. Such a record is also
// quarantined — dropped from the index and copied aside — so it is not
// re-read on every miss, and the next Put of that key appends a good
// copy, making the tier self-healing under torn writes
// (Stats.DiskQuarantines counts these). Mappings cross the disk boundary
// through the existing mapping.WriteText/ReadText round-trip, so every
// load re-verifies the anticommutation algebra before the entry is
// trusted.
//
// Get returns a deep copy and Put stores one: callers may freely mutate
// what they get back without corrupting the cache.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/lru"
	"repro/internal/mapping"
	"repro/internal/pauli"
)

// Key addresses one compiled result by content. All three fields are
// produced by stable canonical encoders — fermion.(*MajoranaHamiltonian).
// Fingerprint, the method spec string, and compiler.Options.Digest — so
// equal problems collide on purpose.
type Key struct {
	Hamiltonian string // 128-bit content fingerprint, hex
	Spec        string // method spec, e.g. "hatt" or "beam:8"
	Options     string // canonical options digest
}

// id flattens the key into the hex SHA-256 used as the map key and as
// the record id in the disk log. Fields are length-prefixed so distinct
// keys can never serialize identically.
func (k Key) id() string {
	h := sha256.New()
	var buf [8]byte
	for _, f := range []string{k.Hamiltonian, k.Spec, k.Options} {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(f)))
		h.Write(buf[:])
		h.Write([]byte(f))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Entry is one stored compilation result: the mapping plus the scalar
// outcome fields worth reusing. Trees are not stored — a cached result
// serves the mapping, which is what every downstream stage consumes.
type Entry struct {
	Method          string
	Mapping         *mapping.Mapping
	PredictedWeight int
	Optimal         bool
	Visited         int64
	// Routed is the hardware summary of a routed compile. It lives in
	// the memory tier only: the disk encoding leaves it out, so an entry
	// loaded from disk arrives without one and is routed once more.
	Routed *Routed
}

// Routed summarizes a compile's Trotter circuit after routing onto a
// device: the metrics without the circuit, which is re-derivable from
// the mapping.
type Routed struct {
	Device      string
	PhysQubits  int
	SwapsAdded  int
	CNOTs       int
	Singles     int
	Depth       int
	FinalLayout []int
}

// clone deep-copies the entry so cache internals never alias caller
// memory.
func (e *Entry) clone() *Entry {
	c := *e
	if e.Mapping != nil {
		m := *e.Mapping
		m.Majoranas = make([]pauli.String, len(e.Mapping.Majoranas))
		for i, s := range e.Mapping.Majoranas {
			m.Majoranas[i] = s.Clone()
		}
		c.Mapping = &m
	}
	if e.Routed != nil {
		r := *e.Routed
		r.FinalLayout = slices.Clone(e.Routed.FinalLayout)
		c.Routed = &r
	}
	return &c
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Hits            int64 `json:"hits"`             // Get served from memory or disk
	Misses          int64 `json:"misses"`           // Get found nothing
	Puts            int64 `json:"puts"`             // entries stored
	Evictions       int64 `json:"evictions"`        // memory-tier LRU evictions
	Entries         int   `json:"entries"`          // current memory-tier size
	Capacity        int   `json:"capacity"`         // memory-tier bound
	DiskHits        int64 `json:"disk_hits"`        // Gets promoted from the disk tier
	DiskWrites      int64 `json:"disk_writes"`      // records appended to the disk log
	DiskErrors      int64 `json:"disk_errors"`      // failed disk operations, damaged log regions and records that failed validation
	DiskQuarantines int64 `json:"disk_quarantines"` // invalid records dropped from the index and copied aside
}

// Store is the two-tier content-addressed store. Safe for concurrent
// use.
type Store struct {
	dir string // "" = memory only

	mu  sync.Mutex
	cap int
	mem *lru.Cache[string, *Entry]

	// The disk tier, when dir is set: the log, opened O_APPEND, and the
	// index from each id's first 64 bits to its latest record.
	log   *os.File
	logMu sync.Mutex // guards index, end and seen; held across an append's write, never its sync
	index map[uint64]span
	end   int64 // log offset up to which records are indexed
	seen  int64 // log size at the last scan

	hits, misses, puts, evictions atomic.Int64
	diskHits, diskWrites, diskErr atomic.Int64
	diskQuarantines               atomic.Int64
	diskDown                      atomic.Bool // last write attempt failed
}

// DefaultCapacity bounds the memory tier when Open is given a
// non-positive capacity.
const DefaultCapacity = 1024

// Open creates a store with the given memory-tier capacity (≤ 0 means
// DefaultCapacity). A non-empty dir enables the disk tier rooted there,
// created if missing: Open indexes the directory's log with one
// sequential scan, and imports once the per-entry files (<id>.json)
// that earlier builds wrote there.
func Open(capacity int, dir string) (*Store, error) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	s := &Store{
		dir: dir,
		cap: capacity,
		mem: lru.New[string, *Entry](capacity),
	}
	if dir != "" {
		if err := s.openLog(); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return s, nil
}

// Close closes the disk tier's log. After it the memory tier still
// serves, and every disk operation fails and counts in DiskErrors. A
// memory-only store has nothing to close.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// Get returns a deep copy of the entry stored under key, consulting the
// memory tier first and then (on a memory miss) the disk tier, promoting
// disk hits into memory. The boolean reports whether anything was found.
func (s *Store) Get(key Key) (*Entry, bool) {
	id := key.id()
	s.mu.Lock()
	resident, ok := s.mem.Get(id)
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
		// Clone outside the lock: entries are replaced wholesale on Put,
		// never mutated in place, so the pointer is safe to read here and
		// concurrent hits don't serialize on the deep copy.
		return resident.clone(), true
	}

	if e, ok := s.loadDisk(id, key); ok {
		s.insert(id, e) // promote; e is already our private copy
		s.hits.Add(1)
		s.diskHits.Add(1)
		return e.clone(), true
	}
	s.misses.Add(1)
	return nil, false
}

// Put stores a deep copy of entry under key in the memory tier and, when
// the disk tier is enabled, persists it. Entries without a mapping are
// ignored — there is nothing to serve from them.
func (s *Store) Put(key Key, entry *Entry) {
	if entry == nil || entry.Mapping == nil {
		return
	}
	e := entry.clone()
	id := key.id()
	s.insert(id, e)
	s.puts.Add(1)
	s.writeDisk(id, key, e)
}

// insert adds or refreshes a memory-tier entry, evicting from the LRU
// tail past capacity.
func (s *Store) insert(id string, e *Entry) {
	s.mu.Lock()
	evicted := s.mem.Put(id, e)
	s.mu.Unlock()
	s.evictions.Add(int64(evicted))
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries := s.mem.Len()
	capacity := s.cap
	s.mu.Unlock()
	return Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Puts:            s.puts.Load(),
		Evictions:       s.evictions.Load(),
		Entries:         entries,
		Capacity:        capacity,
		DiskHits:        s.diskHits.Load(),
		DiskWrites:      s.diskWrites.Load(),
		DiskErrors:      s.diskErr.Load(),
		DiskQuarantines: s.diskQuarantines.Load(),
	}
}

// DiskHealthy reports the write-path health of the disk tier: true when
// the tier is disabled (nothing to be unhealthy) or the most recent
// persist attempt succeeded. Readiness probes use it to report a node
// that can still serve but can no longer make results durable.
func (s *Store) DiskHealthy() bool {
	return s.dir == "" || !s.diskDown.Load()
}

// diskEntry is the JSON shape of a record's payload. The key fields are
// stored alongside the mapping so a load can confirm the record really
// holds the requested content (a misplaced or hash-colliding record
// degrades to a miss, not a wrong answer).
type diskEntry struct {
	Hamiltonian     string `json:"hamiltonian"`
	Spec            string `json:"spec"`
	Options         string `json:"options"`
	Method          string `json:"method"`
	PredictedWeight int    `json:"predicted_weight"`
	Optimal         bool   `json:"optimal,omitempty"`
	Visited         int64  `json:"visited,omitempty"`
	Mapping         string `json:"mapping"` // mapping.WriteText serialization
}

// encodeEntry marshals one entry into the disk JSON shape.
func encodeEntry(key Key, e *Entry) ([]byte, error) {
	var mt bytes.Buffer
	if err := e.Mapping.WriteText(&mt); err != nil {
		return nil, fmt.Errorf("store: encode mapping: %w", err)
	}
	return json.Marshal(diskEntry{
		Hamiltonian:     key.Hamiltonian,
		Spec:            key.Spec,
		Options:         key.Options,
		Method:          e.Method,
		PredictedWeight: e.PredictedWeight,
		Optimal:         e.Optimal,
		Visited:         e.Visited,
		Mapping:         mt.String(),
	})
}

// decodeEntry unmarshals and validates the disk JSON shape against the
// key it is supposed to hold. Every failure is an error; loadDisk turns
// it into a tolerated miss.
func decodeEntry(raw []byte, key Key) (*Entry, error) {
	var de diskEntry
	if err := json.Unmarshal(raw, &de); err != nil {
		return nil, fmt.Errorf("store: decode entry: %w", err)
	}
	if de.Hamiltonian != key.Hamiltonian || de.Spec != key.Spec || de.Options != key.Options {
		return nil, fmt.Errorf("store: entry key mismatch (have %q/%q/%q)", de.Hamiltonian, de.Spec, de.Options)
	}
	m, err := mapping.ReadText(strings.NewReader(de.Mapping))
	if err != nil {
		return nil, fmt.Errorf("store: entry mapping: %w", err)
	}
	return &Entry{
		Method:          de.Method,
		Mapping:         m,
		PredictedWeight: de.PredictedWeight,
		Optimal:         de.Optimal,
		Visited:         de.Visited,
	}, nil
}

// loadDisk reads, validates, and parses the disk entry for id. Every
// failure mode — no record, a read error, a record that no longer
// frames, bad JSON, key mismatch, a mapping that fails to parse or
// verify — is a tolerated miss, and a record that is present but
// invalid is quarantined so the next Put heals it.
func (s *Store) loadDisk(id string, key Key) (*Entry, bool) {
	if s.log == nil {
		return nil, false
	}
	sp, ok := s.lookup(id)
	if !ok {
		return nil, false
	}
	rec, err := s.readRecord(sp)
	if err == nil {
		if ferr := fault.Point("store.disk.read"); ferr != nil {
			err = ferr
		}
	}
	if err != nil {
		s.diskErr.Add(1)
		return nil, false
	}
	return s.decodeRecord(id, key, sp, rec)
}

// decodeRecord validates the record read back for id and decodes its
// entry, quarantining it when it fails.
func (s *Store) decodeRecord(id string, key Key, sp span, rec []byte) (*Entry, bool) {
	rid, payload, ok := parseRecord(rec)
	if !ok {
		s.diskErr.Add(1)
		s.quarantine(id, sp, rec)
		return nil, false
	}
	if string(rid) != id {
		return nil, false // another id with the same first 64 bits
	}
	payload = fault.Mutate("store.disk.read", payload) // short read
	e, err := decodeEntry(payload, key)
	if err != nil {
		s.diskErr.Add(1)
		s.quarantine(id, sp, payload)
		return nil, false
	}
	return e, true
}

// quarantine takes a record that failed validation out of the load
// path: it is dropped from the index, so it is not re-validated on
// every miss and the next Put of this key appends a verified copy, and
// its bytes are kept as <id>.quarantined for postmortems. The log
// itself is never rewritten.
func (s *Store) quarantine(id string, sp span, raw []byte) {
	p := prefix(id)
	s.logMu.Lock()
	if s.index[p] == sp {
		delete(s.index, p)
	}
	s.logMu.Unlock()
	path := filepath.Join(s.dir, id+".quarantined")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		s.diskErr.Add(1)
	}
	s.diskQuarantines.Add(1)
	slog.Warn("store entry quarantined", "path", path)
}

// writeDisk appends an entry's record to the log and returns once it is
// durable, unless the log already holds the same bytes for the id.
// Failures are recorded in DiskErrors (and flip DiskHealthy off until a
// write succeeds again) but otherwise swallowed: the disk tier is an
// accelerator, never a correctness dependency.
func (s *Store) writeDisk(id string, key Key, e *Entry) {
	if s.log == nil {
		return
	}
	if ferr := fault.Point("store.disk.write"); ferr != nil { // e.g. ENOSPC
		s.diskFail()
		return
	}
	raw, err := encodeEntry(key, e)
	if err != nil {
		s.diskFail()
		return
	}
	raw = fault.Mutate("store.disk.write", raw) // torn write: only a prefix lands
	if s.holds(id, raw) {
		return
	}
	if err := s.appendRecord(id, raw); err != nil {
		s.diskFail()
		return
	}
	s.diskWrites.Add(1)
	s.diskDown.Store(false)
}

// diskFail records one failed persist attempt. The first failure of a
// streak logs (the transition is what an operator acts on); repeats
// only bump the counter, so a full disk cannot flood the log.
func (s *Store) diskFail() {
	s.diskErr.Add(1)
	if !s.diskDown.Swap(true) {
		slog.Warn("store disk tier failing writes", "dir", s.dir)
	}
}
