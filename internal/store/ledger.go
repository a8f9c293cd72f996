package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// DefaultLedgerEpsilon is the exploration rate hattd attaches the
// portfolio ledger with: roughly one race in ten launches a
// non-favorite first.
const DefaultLedgerEpsilon = 0.1

// LedgerCell is one (model-shape, method) win/loss row.
type LedgerCell struct {
	Wins   int64 `json:"wins"`
	Losses int64 `json:"losses"`
}

// Ledger is the persistent portfolio ledger: per-(model-shape, method)
// win/loss rows recorded by completed portfolio races and consulted —
// epsilon-greedily — to order racer launch for future races. It
// implements the compiler's MethodLedger contract: ordering steers
// scheduling only, never the race's deterministic winner, so ledger
// state is deliberately excluded from the compile content address.
//
// With a path the ledger persists itself after every Record with an
// atomic write (temp file, fsync, rename) and tolerates a corrupt file
// on open by quarantining it and starting fresh. With an empty path it
// is memory-only.
type Ledger struct {
	mu        sync.Mutex
	path      string
	eps       float64
	plays     int64
	rows      map[string]map[string]*LedgerCell
	saveFails int64
	failing   bool

	// wmu serializes file writes, which run outside mu so that Rank and
	// Snapshot never wait for the disk. written is the play count of the
	// newest state on disk: a snapshot older than it is dropped, never
	// written over it.
	wmu     sync.Mutex
	written int64
}

// ledgerFile is the on-disk JSON shape.
type ledgerFile struct {
	Version int                               `json:"version"`
	Plays   int64                             `json:"plays"`
	Shapes  map[string]map[string]*LedgerCell `json:"shapes"`
}

// OpenLedger opens (or creates) a portfolio ledger. An empty path keeps
// the ledger memory-only. epsilon is clamped to [0, 1]; 0 is pure
// exploitation. A corrupt ledger file is renamed aside with a
// ".quarantined" suffix and an empty ledger is returned rather than an
// error — the ledger is an optimizer, never a gatekeeper.
func OpenLedger(path string, epsilon float64) (*Ledger, error) {
	if epsilon < 0 {
		epsilon = 0
	}
	if epsilon > 1 {
		epsilon = 1
	}
	l := &Ledger{
		path: path,
		eps:  epsilon,
		rows: make(map[string]map[string]*LedgerCell),
	}
	if path == "" {
		return l, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: ledger dir: %w", err)
	}
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return l, nil
	case err != nil:
		return nil, fmt.Errorf("store: ledger read: %w", err)
	}
	var f ledgerFile
	if jerr := json.Unmarshal(raw, &f); jerr != nil || f.Version != 1 {
		q := path + ".quarantined"
		if rerr := os.Rename(path, q); rerr == nil {
			slog.Warn("ledger quarantined", "path", path, "quarantine", q, "err", jerr)
		}
		return l, nil
	}
	l.plays = f.Plays
	if f.Shapes != nil {
		for shape, methods := range f.Shapes {
			row := make(map[string]*LedgerCell, len(methods))
			for m, c := range methods {
				if c != nil {
					row[m] = &LedgerCell{Wins: c.Wins, Losses: c.Losses}
				}
			}
			l.rows[shape] = row
		}
	}
	return l, nil
}

// Record logs one completed portfolio race: the winner gains a win and
// every loser a loss under the given model shape. Persistence is
// best-effort — a failing disk degrades the ledger to memory-only
// behavior (tracked in Snapshot) without failing the race.
func (l *Ledger) Record(shape, winner string, losers []string) {
	l.mu.Lock()
	l.plays++
	l.cell(shape, winner).Wins++
	for _, m := range losers {
		l.cell(shape, m).Losses++
	}
	gen := l.plays
	var raw []byte
	var err error
	if l.path != "" {
		raw, err = json.Marshal(ledgerFile{Version: 1, Plays: l.plays, Shapes: l.rows})
	}
	l.mu.Unlock()
	if l.path != "" {
		l.persist(gen, raw, err)
	}
}

func (l *Ledger) cell(shape, m string) *LedgerCell {
	row := l.rows[shape]
	if row == nil {
		row = make(map[string]*LedgerCell)
		l.rows[shape] = row
	}
	c := row[m]
	if c == nil {
		c = &LedgerCell{}
		row[m] = c
	}
	return c
}

// Rank orders the given specs for launch: unplayed specs first (in
// their given order — optimism drives exploration of new methods), then
// by win rate for this shape, descending; the given order breaks ties.
// With probability epsilon one deterministically-chosen spec is rotated
// to the front instead. The RNG is seeded from the play count and the
// shape, never from global randomness, so a fixed ledger state ranks
// reproducibly.
func (l *Ledger) Rank(shape string, specs []string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]string(nil), specs...)
	if len(out) < 2 {
		return out
	}
	row := l.rows[shape]
	rate := func(spec string) float64 {
		c := row[spec]
		if c == nil || c.Wins+c.Losses == 0 {
			return 2 // optimistic: ahead of any real win rate
		}
		return float64(c.Wins) / float64(c.Wins+c.Losses)
	}
	sort.SliceStable(out, func(i, j int) bool { return rate(out[i]) > rate(out[j]) })

	if l.eps > 0 {
		h := fnv.New64a()
		h.Write([]byte(shape))
		r := splitmix64(uint64(l.plays) ^ h.Sum64())
		if float64(r>>11)/(1<<53) < l.eps {
			pick := int(splitmix64(r) % uint64(len(out)))
			out[0], out[pick] = out[pick], out[0]
		}
	}
	return out
}

// splitmix64 is the standard SplitMix64 scramble: a full-period,
// allocation-free generator good enough for exploration dice.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// persist writes raw, the snapshot taken at play count gen, unless a
// newer snapshot is already on disk. Failures flip the ledger into a
// failing state logged once per transition, mirroring the store disk
// tier.
func (l *Ledger) persist(gen int64, raw []byte, err error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if gen <= l.written {
		return
	}
	if err == nil {
		err = writeLedgerFile(l.path, raw)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.saveFails++
		if !l.failing {
			l.failing = true
			slog.Warn("ledger persistence failing", "path", l.path, "err", err)
		}
		return
	}
	l.written = gen
	if l.failing {
		l.failing = false
		slog.Info("ledger persistence recovered", "path", l.path)
	}
}

// writeLedgerFile replaces the ledger file atomically: temp file, fsync,
// rename. It is a variable so that tests can hold a write open.
var writeLedgerFile = func(path string, raw []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// LedgerMethodStats is one method's row in a LedgerShapeStats.
type LedgerMethodStats struct {
	Method string `json:"method"`
	Wins   int64  `json:"wins"`
	Losses int64  `json:"losses"`
}

// LedgerShapeStats groups a shape's per-method rows.
type LedgerShapeStats struct {
	Shape   string              `json:"shape"`
	Methods []LedgerMethodStats `json:"methods"`
}

// LedgerSnapshot is the ledger block of GET /v1/stats's portfolio
// object: every (shape, method) win/loss row, sorted by shape then method.
type LedgerSnapshot struct {
	Plays        int64              `json:"plays"`
	Epsilon      float64            `json:"epsilon"`
	Persisted    bool               `json:"persisted"`
	SaveFailures int64              `json:"save_failures,omitempty"`
	Shapes       []LedgerShapeStats `json:"shapes"`
}

// Snapshot returns a sorted, deep copy of the ledger state.
func (l *Ledger) Snapshot() LedgerSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := LedgerSnapshot{
		Plays:        l.plays,
		Epsilon:      l.eps,
		Persisted:    l.path != "" && !l.failing,
		SaveFailures: l.saveFails,
		Shapes:       make([]LedgerShapeStats, 0, len(l.rows)),
	}
	for shape, row := range l.rows {
		s := LedgerShapeStats{Shape: shape, Methods: make([]LedgerMethodStats, 0, len(row))}
		for m, c := range row {
			s.Methods = append(s.Methods, LedgerMethodStats{Method: m, Wins: c.Wins, Losses: c.Losses})
		}
		sort.Slice(s.Methods, func(i, j int) bool { return s.Methods[i].Method < s.Methods[j].Method })
		snap.Shapes = append(snap.Shapes, s)
	}
	sort.Slice(snap.Shapes, func(i, j int) bool { return snap.Shapes[i].Shape < snap.Shapes[j].Shape })
	return snap
}
