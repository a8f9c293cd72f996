package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/analysis/annotations"
	"repro/internal/fermion"
	"repro/internal/tree"
)

// The references below are the searches as they were before Build kept
// a score table, anneal scored a swap along its two changed paths and
// beam picked its survivors with a bounded selection: Build re-scores
// every candidate at every step, anneal re-walks the whole tree with
// evaluateTree after every swap, and beam stable-sorts every candidate.
// The tests hold the fast versions to their exact output.

// buildReference is Build scoring every candidate builder.candidates
// enumerates at every step, then reducing in enumeration order.
func buildReference(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
	b := newBuilder(newProblem(mh))
	n := b.p.n
	depth := make([]int, 3*n+1) // leaves depth 0
	var cands []triple
	var scores []int
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.Bound.Unbeatable(b.predicted, opts.BoundPos) {
			return nil, ErrBounded
		}
		cands = b.candidates(cands[:0])
		if len(cands) == 0 {
			panic("core: no valid vacuum-preserving selection (invariant violated)")
		}
		if cap(scores) < len(cands) {
			scores = make([]int, len(cands))
		}
		scores = scores[:len(cands)]
		for j, c := range cands {
			scores[j] = settledWeight(b.bits[c.x], b.bits[c.y], b.bits[c.z])
		}
		bestW := int(^uint(0) >> 1)
		bestTie := int(^uint(0) >> 1)
		bestIdx := -1
		for j, c := range cands {
			w := scores[j]
			if w > bestW {
				continue
			}
			tie := 0
			switch opts.TieBreak {
			case TieDepth:
				tie = 1 + max3(depth[c.x], depth[c.y], depth[c.z])
			case TieSupport:
				tie = parentSupport(b.bits[c.x], b.bits[c.y], b.bits[c.z])
			}
			if w < bestW || tie < bestTie {
				bestW, bestTie, bestIdx = w, tie, j
			}
		}
		c := cands[bestIdx]
		depth[2*n+1+i] = 1 + max3(depth[c.x], depth[c.y], depth[c.z])
		b.merge(i, c.x, c.y, c.z)
	}
	return b.result("HATT"), nil
}

// annealReference is Anneal at one restart over annealChainReference.
func annealReference(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
	if opts.Iters == 0 {
		opts.Iters = 2000 * mh.Modes
	}
	if opts.TStart == 0 {
		opts.TStart = 2.0
	}
	if opts.TEnd == 0 {
		opts.TEnd = 0.01
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	seed, err := buildUnoptScan(ctx, newProblem(mh), Options{})
	if err != nil {
		return nil, err
	}
	return annealChainReference(ctx, seed, opts)
}

// annealChainReference runs one simulated-annealing chain from the seed
// construction's tree to completion (or to bound-driven early exit).
func annealChainReference(ctx context.Context, seed *builder, opts Options) (*Result, error) {
	p := seed.p
	cur := seed.finish()
	curW := p.evaluateTree(cur)
	best := cloneTree(cur)
	bestW := curW
	// Every non-identity term settles at least one Pauli letter under any
	// tree, so nTerms floors every weight this chain could ever reach.
	floor := p.nTerms
	emitted := int(^uint(0) >> 1) // emit the start tree at the first stride

	r := rand.New(rand.NewSource(opts.Seed))
	all := collectNodes(cur)
	cool := math.Pow(opts.TEnd/opts.TStart, 1/math.Max(1, float64(opts.Iters-1)))
	temp := opts.TStart
	stride := opts.Iters / 100
	if stride < 1 {
		stride = 1
	}
	for it := 0; it < opts.Iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if it%stride == 0 {
			if opts.Progress != nil {
				opts.Progress(it, opts.Iters, bestW)
			}
			if opts.OnImprove != nil && bestW < emitted {
				emitted = bestW
				opts.OnImprove(annealResult(best, bestW))
			}
			if opts.Bound.Unbeatable(floor, opts.BoundPos) {
				break // cannot win even at the floor; best-so-far stands
			}
		}
		a := all[r.Intn(len(all))]
		b := all[r.Intn(len(all))]
		if a == b || a.Parent == nil || b.Parent == nil || related(a, b) {
			temp *= cool
			continue
		}
		swapNodes(a, b)
		w := p.evaluateTree(cur)
		delta := float64(w - curW)
		if delta <= 0 || r.Float64() < math.Exp(-delta/temp) {
			curW = w
			if w < bestW {
				bestW = w
				best = cloneTree(cur)
			}
		} else {
			swapNodes(a, b) // revert
		}
		temp *= cool
	}
	if opts.Progress != nil {
		opts.Progress(opts.Iters, opts.Iters, bestW)
	}
	return annealResult(best, bestW), nil
}

// related reports whether one node is an ancestor of the other.
func related(a, b *tree.Node) bool {
	for n := a; n != nil; n = n.Parent {
		if n == b {
			return true
		}
	}
	for n := b; n != nil; n = n.Parent {
		if n == a {
			return true
		}
	}
	return false
}

// swapNodes exchanges the tree positions of two unrelated non-root nodes.
func swapNodes(a, b *tree.Node) {
	pa, ba := a.Parent, a.PBranch
	pb, bb := b.Parent, b.PBranch
	pa.Child[ba] = b
	b.Parent, b.PBranch = pa, ba
	pb.Child[bb] = a
	a.Parent, a.PBranch = pb, bb
}

// collectNodes returns all nodes of the tree in preorder, X before Y
// before Z.
func collectNodes(t *tree.Tree) []*tree.Node {
	var out []*tree.Node
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		out = append(out, n)
		if n.IsLeaf() {
			return
		}
		for _, c := range n.Child {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// cloneTree deep-copies a tree, preserving IDs, qubits, and leaf indexing.
func cloneTree(t *tree.Tree) *tree.Tree {
	c := &tree.Tree{N: t.N, Leaves: make([]*tree.Node, len(t.Leaves))}
	var walk func(n *tree.Node) *tree.Node
	walk = func(n *tree.Node) *tree.Node {
		nn := &tree.Node{ID: n.ID, Qubit: n.Qubit, PBranch: n.PBranch}
		if n.IsLeaf() {
			c.Leaves[n.ID] = nn
			return nn
		}
		for i, ch := range n.Child {
			cc := walk(ch)
			nn.Child[i] = cc
			cc.Parent = nn
		}
		return nn
	}
	c.Root = walk(t.Root)
	return c
}

// beamReference is Beam with the beam pruned by a stable sort of every
// candidate.
func beamReference(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error) {
	width := max(1, opts.Width)
	beams := []*builder{newBuilder(newProblem(mh))}
	n := beams[0].p.n
	type cand struct {
		parent *builder
		triple
		acc int
	}
	var trips []triple
	var cands []cand
	bounded := false
	for i := 0; i < n; i++ {
		minAcc := beams[0].predicted
		for _, st := range beams[1:] {
			minAcc = min(minAcc, st.predicted)
		}
		if opts.Bound.Unbeatable(minAcc, opts.BoundPos) {
			bounded = true
			break
		}
		cands = cands[:0]
		for _, st := range beams {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			trips = st.candidates(trips[:0])
			for _, t := range trips {
				cands = append(cands, cand{st, t, 0})
			}
		}
		if err := scoreChunks(ctx, len(cands), opts.Workers, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				c := &cands[j]
				st := c.parent
				c.acc = st.predicted + settledWeight(st.bits[c.x], st.bits[c.y], st.bits[c.z])
			}
		}); err != nil {
			return nil, err
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].acc < cands[b].acc })
		if len(cands) > width {
			cands = cands[:width]
		}
		next := make([]*builder, 0, len(cands))
		for _, c := range cands {
			child := c.parent.clone()
			child.merge(i, c.x, c.y, c.z)
			next = append(next, child)
		}
		beams = next
	}
	if bounded && width == 1 {
		return nil, ErrBounded
	}
	var best *builder
	if !bounded {
		best = beams[0]
		for _, st := range beams[1:] {
			if st.predicted < best.predicted {
				best = st
			}
		}
	}
	if width > 1 {
		greedy, err := Build(ctx, mh, Options{Workers: opts.Workers, Bound: opts.Bound, BoundPos: opts.BoundPos})
		switch {
		case errors.Is(err, ErrBounded):
			if bounded {
				return nil, ErrBounded
			}
		case err != nil:
			return nil, err
		case bounded || greedy.PredictedWeight < best.predicted:
			greedy.Mapping.Name = "HATT-beam"
			return greedy, nil
		}
	}
	return best.result("HATT-beam"), nil
}

// TestBuildMatchesReference holds Build's score table to the full
// re-scoring, under every tie-break, on models the golden table does not
// hold: 60 to 72 modes (hubbard:6x6, 5x7 and the 1x30 chain), molecules
// with thousands of terms, and a larger neutrino model.
func TestBuildMatchesReference(t *testing.T) {
	for _, spec := range []string{"hubbard:6x6", "hubbard:5x7", "hubbard:1x30", "molecule:14", "molecule:20", "neutrino:4x3"} {
		mh := boundTestModel(t, spec)
		for _, tb := range []TieBreak{TieFirst, TieDepth, TieSupport} {
			opts := Options{TieBreak: tb}
			want := run(t, buildReference, mh, opts)
			got := run(t, Build, mh, opts)
			if g, w := goldenDigest(t, got, ""), goldenDigest(t, want, ""); got.PredictedWeight != want.PredictedWeight || g != w {
				t.Errorf("%s tie-break %d: weight %d digest %s, reference %d %s",
					spec, tb, got.PredictedWeight, g, want.PredictedWeight, w)
			}
		}
	}
}

// TestAnnealMatchesReference holds Anneal to the full-walk chain at the
// default 2000·N schedule. hubbard:3x3 (75 terms), hubbard:4x4 (144),
// neutrino:3x2 (204) and molecule:12 (1,698) have more than 64 terms,
// so their parities span several words.
func TestAnnealMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		seeds int64
	}{
		{"h2", 5}, {"hubbard:2x3", 4}, {"hubbard:3x3", 3}, {"hubbard:4x4", 2},
		{"neutrino:3x2", 3}, {"molecule:12", 2},
	} {
		mh := boundTestModel(t, tc.spec)
		for seed := int64(1); seed <= tc.seeds; seed++ {
			opts := Options{Seed: seed}
			want := run(t, annealReference, mh, opts)
			got := run(t, Anneal, mh, opts)
			if g, w := goldenDigest(t, got, ""), goldenDigest(t, want, ""); got.PredictedWeight != want.PredictedWeight || g != w {
				t.Errorf("%s seed %d: weight %d digest %s, reference %d %s",
					tc.spec, seed, got.PredictedWeight, g, want.PredictedWeight, w)
			}
		}
	}
}

// TestAnnealMatchesReferenceThreeWords holds Anneal to the full-walk
// chain on hubbard:4x6, whose 145 nodes take three ancestor words, under
// a shortened schedule.
func TestAnnealMatchesReferenceThreeWords(t *testing.T) {
	mh := boundTestModel(t, "hubbard:4x6")
	if ids := 3*mh.Modes + 1; (ids+63)/64 != 3 {
		t.Fatalf("hubbard:4x6 has %d nodes, want three ancestor words", ids)
	}
	for seed := int64(1); seed <= 3; seed++ {
		opts := Options{Seed: seed, Iters: 20_000}
		want := run(t, annealReference, mh, opts)
		got := run(t, Anneal, mh, opts)
		if g, w := goldenDigest(t, got, ""), goldenDigest(t, want, ""); got.PredictedWeight != want.PredictedWeight || g != w {
			t.Errorf("seed %d: weight %d digest %s, reference %d %s", seed, got.PredictedWeight, g, want.PredictedWeight, w)
		}
	}
}

// TestMetropolisShortcut pins the premise that lets metropolis skip
// math.Exp, e⁻⁴⁴ < 2⁻⁶³ and every Float64 draw a multiple of 2⁻⁶³, and
// holds it to u < e^x on draws and at the edges.
func TestMetropolisShortcut(t *testing.T) {
	if e := math.Exp(-44); e >= 0x1p-63 {
		t.Fatalf("math.Exp(-44) = %g, not below 2⁻⁶³", e)
	}
	xs := []float64{0, -1, -30, -43.999, -44, -44.001, -100, -745.2, -800, math.Inf(-1), math.NaN()}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		u := r.Float64()
		if k := u * 0x1p63; k != math.Trunc(k) {
			t.Fatalf("draw %d: %g is not a multiple of 2⁻⁶³", i, u)
		}
		if x := xs[i%len(xs)]; metropolis(u, x) != (u < math.Exp(x)) {
			t.Fatalf("metropolis(%g, %g) = %v, want %v", u, x, metropolis(u, x), u < math.Exp(x))
		}
	}
	for _, u := range []float64{0, 0x1p-63, 0x1p-62} {
		for _, x := range xs {
			if metropolis(u, x) != (u < math.Exp(x)) {
				t.Errorf("metropolis(%g, %g) = %v, want %v", u, x, metropolis(u, x), u < math.Exp(x))
			}
		}
	}
}

// evalCopy holds everything treeEval.score must leave as it found it.
type evalCopy struct {
	parent, slot, child, settled []int32
	par, anc                     []uint64
	total                        int
}

func copyEval(ev *treeEval) evalCopy {
	return evalCopy{slices.Clone(ev.parent), slices.Clone(ev.slot), slices.Clone(ev.child),
		slices.Clone(ev.settled), slices.Clone(ev.par), slices.Clone(ev.anc), ev.total}
}

// checkEval compares every node's parity and settled weight with its
// children's, every ancestor set with the ancestors found by walking
// parent, and the running total with the evaluateTree oracle.
func checkEval(t *testing.T, p *problem, ev *treeEval, step string) {
	t.Helper()
	cur := ev.snapshot()
	if err := cur.Validate(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if w := p.evaluateTree(cur); ev.total != w {
		t.Fatalf("%s: running total %d, evaluateTree %d", step, ev.total, w)
	}
	want := make([]uint64, ev.ancWords)
	for id := range ev.parent {
		n := int32(id)
		clear(want)
		for a := ev.parent[n]; a >= 0; a = ev.parent[a] {
			want[a/64] |= 1 << (a % 64)
		}
		if !slices.Equal(ev.ancestors(n), want) {
			t.Fatalf("%s: node %d ancestor set %x, want %x", step, id, ev.ancestors(n), want)
		}
		if id <= 2*p.n {
			if !slices.Equal(ev.bits(n), p.leafBits[id]) {
				t.Fatalf("%s: leaf %d parity changed", step, id)
			}
			continue
		}
		c := ev.child[3*id : 3*id+3]
		bx, by, bz := ev.bits(c[0]), ev.bits(c[1]), ev.bits(c[2])
		for i, w := range ev.bits(n) {
			if w != bx[i]^by[i]^bz[i] {
				t.Fatalf("%s: node %d parity is not its children's XOR", step, id)
			}
		}
		if w := settledWeight(bx, by, bz); int(ev.settled[n]) != w {
			t.Fatalf("%s: node %d settled %d, want %d", step, id, ev.settled[n], w)
		}
	}
}

// TestTreeEvalTracksEvaluateTree drives the evaluator through random
// proposals. Each scored total must equal evaluateTree of the swapped
// tree while scoring changes nothing; half the scored swaps are applied,
// and the evaluator is checked against the oracle after each. Every third
// pair is two siblings (LCA = their parent) and every third is one node
// from each of two root subtrees (LCA = root). hubbard:4x4's 97 nodes
// take two ancestor words.
func TestTreeEvalTracksEvaluateTree(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		spec     string
		ancWords int
	}{{"hubbard:2x2", 1}, {"neutrino:3x2", 1}, {"hubbard:4x4", 2}} {
		spec := tc.spec
		p := newProblem(boundTestModel(t, spec))
		seed, err := buildUnoptScan(ctx, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ev := newTreeEval(seed)
		if ev.ancWords != tc.ancWords {
			t.Fatalf("%s: %d ancestor words, want %d", spec, ev.ancWords, tc.ancWords)
		}
		checkEval(t, p, ev, spec+" start")
		r := rand.New(rand.NewSource(1))
		// descend walks down from n, stopping at each level with
		// probability 1/3.
		descend := func(n int32) int32 {
			for int(n) > 2*p.n && r.Intn(3) != 0 {
				n = ev.child[3*int(n)+r.Intn(3)]
			}
			return n
		}
		var siblings, rootLCA, applied int
		for step := 0; step < 1500; step++ {
			var a, b int32
			switch step % 3 {
			case 0:
				v := 2*p.n + 1 + r.Intn(p.n)
				i := r.Intn(3)
				a, b = ev.child[3*v+i], ev.child[3*v+(i+1+r.Intn(2))%3]
			case 1:
				c := ev.child[3*ev.root:]
				i := r.Intn(3)
				a, b = descend(c[i]), descend(c[(i+1+r.Intn(2))%3])
			default:
				a, b = int32(r.Intn(len(ev.parent))), int32(r.Intn(len(ev.parent)))
			}
			cur := ev.snapshot()
			nodes := make([]*tree.Node, len(ev.parent))
			for _, n := range collectNodes(cur) {
				nodes[n.ID] = n
			}
			before := copyEval(ev)
			w, ok := ev.score(a, b)
			if want := a != b && !related(nodes[a], nodes[b]); ok != want {
				t.Fatalf("%s step %d: score reported %v, want %v", spec, step, ok, want)
			}
			where := fmt.Sprintf("%s step %d", spec, step)
			if !reflect.DeepEqual(copyEval(ev), before) {
				t.Fatalf("%s: scoring changed the evaluator", where)
			}
			if !ok {
				continue
			}
			swapNodes(nodes[a], nodes[b])
			if want := p.evaluateTree(cur); w != want {
				t.Fatalf("%s: scored %d, evaluateTree of the swapped tree %d", where, w, want)
			}
			if ev.parent[a] == ev.parent[b] {
				siblings++
			}
			if ev.path[ev.nPath-1] == ev.root {
				rootLCA++
			}
			if r.Intn(2) == 0 {
				continue
			}
			ev.apply(a, b, w)
			applied++
			for _, n := range collectNodes(cur)[1:] {
				if ev.parent[n.ID] != int32(n.Parent.ID) || ev.slot[n.ID] != int32(n.PBranch) {
					t.Fatalf("%s: node %d hangs at %d/%d, want %d/%d", where, n.ID, ev.parent[n.ID], ev.slot[n.ID], n.Parent.ID, n.PBranch)
				}
			}
			checkEval(t, p, ev, where+" apply")
		}
		if siblings == 0 || rootLCA == 0 || applied == 0 {
			t.Fatalf("%s: %d sibling swaps, %d root-LCA swaps, %d applied; want each > 0", spec, siblings, rootLCA, applied)
		}
	}
}

// TestBeamMatchesReference holds Beam's bounded selection to the stable
// sort. eq3, motivation and the four-mode random inputs are tie-heavy,
// so the enumeration-position tie-break decides survivors there.
func TestBeamMatchesReference(t *testing.T) {
	inputs := []goldenInput{{"eq3", eq3()}, {"motivation", motivation()}}
	for seed := int64(1); seed <= 3; seed++ {
		inputs = append(inputs, goldenInput{fmt.Sprintf("rand4-s%d", seed), randomFermionic(4, 12, seed)})
	}
	for _, spec := range []string{"h2", "hubbard:2x2", "hubbard:2x3", "neutrino:2x2"} {
		inputs = append(inputs, goldenInput{spec, boundTestModel(t, spec)})
	}
	for _, in := range inputs {
		for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 64} {
			opts := Options{Width: width}
			want := run(t, beamReference, in.mh, opts)
			got := run(t, Beam, in.mh, opts)
			if g, w := goldenDigest(t, got, ""), goldenDigest(t, want, ""); got.PredictedWeight != want.PredictedWeight || g != w {
				t.Errorf("%s width %d: weight %d digest %s, reference %d %s",
					in.name, width, got.PredictedWeight, g, want.PredictedWeight, w)
			}
		}
	}
}

// TestLowestMatchesStableSort checks the selection alone against a
// stable sort, on few distinct scores and at widths up to the wire's
// 4,096.
func TestLowestMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var keep []int
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(3000)
		acc := make([]int, n)
		for i := range acc {
			acc[i] = r.Intn(1 + trial%20)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return acc[want[a]] < acc[want[b]] })
		k := []int{1, 2, 4, 7, 64, 300, 4096}[trial%7]
		want = want[:min(k, n)]
		keep = lowest(keep[:0], n, k, func(a, b int) bool { return acc[a] < acc[b] || acc[a] == acc[b] && a < b })
		if !slices.Equal(keep, want) {
			t.Fatalf("trial %d (n %d, k %d): kept %v, want %v", trial, n, k, keep, want)
		}
	}
}

// TestAnnealAllocs gates one default-schedule anneal on hubbard:3x3: a
// swap is scored and applied in flat arrays, so what allocates is the
// seed construction and a tree per new best (re-walking the tree after
// every swap made 474,717).
func TestAnnealAllocs(t *testing.T) {
	if annotations.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	mh := boundTestModel(t, "hubbard:3x3")
	ctx := context.Background()
	n := testing.AllocsPerRun(1, func() {
		if _, err := Anneal(ctx, mh, Options{Seed: 7, Restarts: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if n > 2000 {
		t.Fatalf("Anneal on hubbard:3x3 allocates %.0f/op, want ≤ 2000", n)
	}
}

// TestExhaustiveAllocs gates a 50,000-visit exhaustive search on
// hubbard:2x2: the search backtracks over one builder, so what allocates
// is the parent bitset of each merge, about one per visit.
func TestExhaustiveAllocs(t *testing.T) {
	if annotations.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	mh := boundTestModel(t, "hubbard:2x2")
	ctx := context.Background()
	n := testing.AllocsPerRun(1, func() {
		if _, err := Exhaustive(ctx, mh, Options{MaxVisits: 50_000}); err != nil {
			t.Fatal(err)
		}
	})
	if n > 60_000 {
		t.Fatalf("Exhaustive on hubbard:2x2 allocates %.0f/op, want ≤ 60000", n)
	}
}

// TestBuildAllocs gates one hubbard:3x3 Build: the score table is one
// allocation, so what allocates is the problem, one parent bitset per
// merge and the finished tree and mapping.
func TestBuildAllocs(t *testing.T) {
	if annotations.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	mh := boundTestModel(t, "hubbard:3x3")
	ctx := context.Background()
	n := testing.AllocsPerRun(5, func() {
		if _, err := Build(ctx, mh, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if n > 300 {
		t.Fatalf("Build on hubbard:3x3 allocates %.0f/op, want ≤ 300", n)
	}
}
