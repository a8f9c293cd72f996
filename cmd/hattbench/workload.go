package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/fermion"
	"repro/internal/models"
)

// workload is one traffic mix. Its request stream is a pure function of
// (seed, index): see request.
type workload struct {
	name string
	why  string
	// hit: after warm-up every window request is a store hit; otherwise
	// every window request is a miss.
	hit     bool
	models  []string // named-model pool; empty when inline is set
	methods []string
	device  string // catalog device every request targets ("" = none)
	inline  bool   // requests carry a generated inline hamiltonian
	seeded  bool   // requests carry a unique options.seed
	strings bool   // requests ask for include_strings
	// prefix is how many stream requests the traced passes replay.
	prefix int
}

var workloads = []workload{
	{
		name:    "hit-small",
		why:     "all store hits on small named models, no strings: decode, model rebuild, keying, lookup and encode are the whole cost",
		hit:     true,
		models:  []string{"h2", "hubbard:2x2", "hubbard:3x3"},
		methods: []string{"jw", "bk", "hatt"},
		prefix:  10000,
	},
	{
		name:    "hit-routed",
		why:     "all store hits routed onto grid:6x6: every hit re-runs synthesis and routing while search stays idle",
		hit:     true,
		models:  []string{"h2", "hubbard:2x3", "hubbard:3x3", "hubbard:4x4"},
		methods: []string{"hatt", "jw"},
		device:  "grid:6x6",
		prefix:  1000,
	},
	{
		name:    "miss-inline",
		why:     "unseen inline diluted Hubbard Hamiltonians through hatt with strings: the paper's path, store and build memo bypassed",
		methods: []string{"hatt"},
		inline:  true,
		strings: true,
		prefix:  1400,
	},
	{
		name:    "miss-search",
		why:     "anneal and portfolio with a unique options.seed on each request: search dominates and every request stays a miss",
		models:  []string{"hubbard:2x3", "hubbard:3x3", "neutrino:3x2"},
		methods: []string{"anneal", "portfolio"},
		seeded:  true,
		prefix:  100,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// compileBody is the wire shape of one POST /v1/compile request.
type compileBody struct {
	Model       string          `json:"model,omitempty"`
	Hamiltonian json.RawMessage `json:"hamiltonian,omitempty"`
	Method      string          `json:"method"`
	Options     *bodyOptions    `json:"options,omitempty"`
	Strings     bool            `json:"include_strings,omitempty"`
	Device      string          `json:"device,omitempty"`
}

type bodyOptions struct {
	Seed int64 `json:"seed"`
}

// Index spaces of one stream. Window and verification requests use
// indices from 0; warm-up requests use indices from warmBase, so a miss
// workload's warm-up never fills an entry the window later asks for.
const (
	warmBase  = 1 << 40
	warmCount = 8 // warm-up requests of a miss workload
)

// qualitySeed fixes the stream behind the quality probe, so the
// pauli_weight_sum and routed_cnots_sum metrics do not depend on -seed.
const qualitySeed = 0x4a7715

// request returns request i of the workload's stream for seed.
func (w *workload) request(seed, i uint64) compileBody {
	h := splitmix64(splitmix64(seed) + i)
	var b compileBody
	if w.inline {
		b.Method = w.methods[h%uint64(len(w.methods))]
		raw, err := dilutedHubbard(rand.New(rand.NewPCG(h, i)), i).MarshalJSON()
		if err != nil {
			panic(err) // a generated Hamiltonian always marshals
		}
		b.Hamiltonian = raw
	} else {
		// Each run of len(models)·len(methods) consecutive requests holds
		// every combination once, in an order drawn from (seed, run). The
		// combinations differ in cost several times over, so a mix left to
		// chance would move the window's percentiles from seed to seed.
		n := len(w.models) * len(w.methods)
		run := i / uint64(n)
		combo := rand.New(rand.NewPCG(splitmix64(seed), run)).Perm(n)[i%uint64(n)]
		b.Model = w.models[combo%len(w.models)]
		b.Method = w.methods[combo/len(w.models)]
	}
	if w.seeded {
		// Distinct for distinct i, never 0 (0 means "unset" on the wire).
		b.Options = &bodyOptions{Seed: int64(splitmix64(seed)>>24) + int64(i) + 1}
	}
	b.Strings = w.strings
	b.Device = w.device
	return b
}

// warmup returns the warm-up requests: every (model, method) combination
// twice for a hit workload (a miss that fills the store, then a hit), and
// warmCount requests from the warm-up index space for a miss workload.
func (w *workload) warmup(seed uint64) []compileBody {
	var out []compileBody
	if !w.hit {
		for k := uint64(0); k < warmCount; k++ {
			out = append(out, w.request(seed, warmBase+k))
		}
		return out
	}
	for round := 0; round < 2; round++ {
		for _, method := range w.methods {
			for _, model := range w.models {
				out = append(out, compileBody{Model: model, Method: method, Strings: w.strings, Device: w.device})
			}
		}
	}
	return out
}

// dilutedHubbard draws a spinful Fermi–Hubbard model on a 3×4 or 4×4
// open lattice in which each bond survives with probability 0.75, with
// hopping t drawn from [0.5, 1.5] and on-site U in [2, 6], both on a
// 0.0001 grid. U steps with the request index i, so no two of any 40,001
// consecutive requests are the same Hamiltonian and none is a store hit.
// Modes are numbered as in models.FermiHubbard: 2·site + spin.
func dilutedHubbard(r *rand.Rand, i uint64) *fermion.Hamiltonian {
	rows, cols := 3, 4
	if r.IntN(2) == 1 {
		rows = 4
	}
	t := float64(5000+r.IntN(10001)) / 10000
	u := float64(20000+i%40001) / 10000
	h := fermion.NewHamiltonian(2 * rows * cols)
	hop := func(a, b int) {
		if r.Float64() >= 0.75 {
			return
		}
		for spin := 0; spin < 2; spin++ {
			h.AddHermitian(complex(-t, 0),
				fermion.Op{Mode: 2*a + spin, Dagger: true}, fermion.Op{Mode: 2*b + spin})
		}
	}
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			s := row*cols + col
			if col+1 < cols {
				hop(s, s+1)
			}
			if row+1 < rows {
				hop(s, s+cols)
			}
		}
	}
	for s := 0; s < rows*cols; s++ {
		h.Add(complex(u, 0),
			fermion.Op{Mode: 2 * s, Dagger: true}, fermion.Op{Mode: 2 * s},
			fermion.Op{Mode: 2*s + 1, Dagger: true}, fermion.Op{Mode: 2*s + 1})
	}
	return h
}

// majoranaOf builds the Majorana form of the Hamiltonian a request names,
// the way hattd does.
func majoranaOf(b *compileBody) (*fermion.MajoranaHamiltonian, error) {
	var (
		h   *fermion.Hamiltonian
		err error
	)
	if len(b.Hamiltonian) > 0 {
		h, err = fermion.ReadJSON(bytes.NewReader(b.Hamiltonian))
	} else {
		h, err = models.Resolve(b.Model)
	}
	if err != nil {
		return nil, err
	}
	return h.Majorana(1e-12), nil
}

// structureKey hashes the Majorana index structure of mh (mode count and
// every non-identity monomial's index set, coefficients ignored): the
// input the core build memo is keyed on.
func structureKey(mh *fermion.MajoranaHamiltonian) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(mh.Modes)
	for _, set := range mh.IndexSets() {
		put(len(set))
		for _, j := range set {
			put(j)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// structureOf is the structureKey of the Hamiltonian a request names.
func structureOf(b *compileBody) ([32]byte, error) {
	mh, err := majoranaOf(b)
	if err != nil {
		return [32]byte{}, err
	}
	return structureKey(mh), nil
}

// uniqueStructureShare is the share of the stream's first n requests whose
// Majorana index structure has not appeared earlier in the stream.
func (w *workload) uniqueStructureShare(seed uint64, n int) (float64, error) {
	seen := make(map[[32]byte]bool, n)
	for i := 0; i < n; i++ {
		b := w.request(seed, uint64(i))
		key, err := structureOf(&b)
		if err != nil {
			return 0, err
		}
		seen[key] = true
	}
	return float64(len(seen)) / float64(n), nil
}

// splitmix64 is the standard 64-bit finalizer (Vigna): consecutive inputs
// give independent-looking outputs with no shared RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
