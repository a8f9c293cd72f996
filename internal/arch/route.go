package arch

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
)

// RouteResult is a routed circuit plus bookkeeping.
type RouteResult struct {
	Circuit    *circuit.Circuit // over physical qubits
	SwapsAdded int
	// FinalLayout maps logical qubit -> physical qubit after routing.
	FinalLayout []int
}

// Fits returns an error when a circuit over n logical qubits does not
// fit on d.
func (d *Device) Fits(n int) error {
	if n > d.N {
		return fmt.Errorf("arch: circuit needs %d qubits, %s has %d", n, d.Name, d.N)
	}
	return nil
}

// Route compiles a logical circuit onto a device ("tetris-lite"): logical
// qubits get an initial greedy placement that co-locates frequently
// interacting pairs on high-degree physical qubits, then each CNOT between
// non-adjacent qubits is routed by moving the control along a BFS shortest
// path with SWAPs (3 CNOTs each). Single-qubit gates pass through. The
// result is optimized with the peephole pass.
func Route(c *circuit.Circuit, d *Device) (*RouteResult, error) {
	if err := d.Fits(c.N); err != nil {
		return nil, err
	}
	layout := initialLayout(c, d) // logical -> physical
	phys := make([]int, d.N)      // physical -> logical (-1 = free)
	for i := range phys {
		phys[i] = -1
	}
	for l, p := range layout {
		phys[p] = l
	}
	out := circuit.New(d.N)
	swaps := 0
	emitSwap := func(a, b int) {
		out.Append(circuit.CNOT(a, b), circuit.CNOT(b, a), circuit.CNOT(a, b))
		la, lb := phys[a], phys[b]
		phys[a], phys[b] = lb, la
		if la >= 0 {
			layout[la] = b
		}
		if lb >= 0 {
			layout[lb] = a
		}
		swaps++
	}
	for _, g := range c.Gates {
		if g.Kind == circuit.KindSingle {
			ng := g
			ng.Q = layout[g.Q]
			out.Append(ng)
			continue
		}
		pc, pt := layout[g.Q2], layout[g.Q]
		if !d.Coupled(pc, pt) {
			path := d.ShortestPath(pc, pt)
			if path == nil {
				return nil, fmt.Errorf("arch: %s disconnected between %d and %d", d.Name, pc, pt)
			}
			// Swap the control along the path until adjacent to the target.
			for i := 0; i+2 < len(path); i++ {
				emitSwap(path[i], path[i+1])
			}
			pc = layout[g.Q2]
			pt = layout[g.Q]
		}
		out.Append(circuit.CNOT(pc, pt))
	}
	return &RouteResult{
		Circuit:     circuit.Optimize(out),
		SwapsAdded:  swaps,
		FinalLayout: layout,
	}, nil
}

// initialLayout places the most-interacting logical qubits on a
// high-degree connected region: logical qubits are sorted by CNOT
// activity, the busiest is placed on the highest-degree physical qubit,
// and each subsequent qubit goes to the free physical qubit adjacent to
// (or nearest) its strongest already-placed partner.
func initialLayout(c *circuit.Circuit, d *Device) []int {
	inter := make(map[[2]int]int)
	activity := make([]int, c.N)
	for _, g := range c.Gates {
		if g.Kind != circuit.KindCNOT {
			continue
		}
		a, b := g.Q2, g.Q
		if a > b {
			a, b = b, a
		}
		inter[[2]int{a, b}]++
		activity[g.Q]++
		activity[g.Q2]++
	}
	order := make([]int, c.N)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return activity[order[i]] > activity[order[j]] })

	layout := make([]int, c.N)
	for i := range layout {
		layout[i] = -1
	}
	used := make([]bool, d.N)
	// Seed: busiest logical qubit on the highest-degree physical one.
	bestP := 0
	for p := 1; p < d.N; p++ {
		if d.Degree(p) > d.Degree(bestP) {
			bestP = p
		}
	}
	place := func(l, p int) {
		layout[l] = p
		used[p] = true
	}
	place(order[0], bestP)
	for _, l := range order[1:] {
		// Strongest placed partner.
		bestPartner, bestW := -1, -1
		for o := 0; o < c.N; o++ {
			if layout[o] < 0 || o == l {
				continue
			}
			a, b := l, o
			if a > b {
				a, b = b, a
			}
			if w := inter[[2]int{a, b}]; w > bestW {
				bestW, bestPartner = w, o
			}
		}
		target := bestP
		if bestPartner >= 0 {
			target = layout[bestPartner]
		}
		// Nearest free physical qubit to target (BFS).
		p := nearestFree(d, target, used)
		place(l, p)
	}
	return layout
}

func nearestFree(d *Device, from int, used []bool) int {
	if !used[from] {
		return from
	}
	seen := make([]bool, d.N)
	seen[from] = true
	queue := []int{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range d.Neighbors(cur) {
			if seen[nb] {
				continue
			}
			if !used[nb] {
				return nb
			}
			seen[nb] = true
			queue = append(queue, nb)
		}
	}
	panic("arch: no free physical qubit")
}
