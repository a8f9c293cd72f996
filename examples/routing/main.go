// Routing: reproduce a Table-IV-style row — the same molecular
// Hamiltonian compiled with Jordan–Wigner and with HATT, each
// synthesized into a Trotter circuit and routed onto IBM Montreal's
// 27-qubit heavy-hex coupling graph with the tetris-lite pass. The
// whole hardware-aware chain runs through one facade call:
// compiler.Compile + WithDevice.
//
//	go run ./examples/routing
package main

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/models"
	"repro/pkg/compiler"
)

func main() {
	// A 6-mode synthetic molecule (the LiH-sized Table-IV case): small
	// enough to run instantly, large enough that routing overhead shows.
	h, err := models.Resolve("molecule:6")
	if err != nil {
		panic(err)
	}
	mh := h.Majorana(1e-12)
	ctx := context.Background()

	fmt.Printf("molecule:6 (%d modes) routed onto IBM Montreal (27 qubits, heavy-hex)\n\n", h.Modes)
	fmt.Printf("%-8s | %8s %8s %8s %8s %8s\n", "Method", "Weight", "Swaps", "CX", "U3", "Depth")
	for _, method := range []string{"jw", "hatt"} {
		res, err := compiler.Compile(ctx, method, mh, compiler.WithDevice("montreal"))
		if err != nil {
			panic(err)
		}
		r := res.Routed
		fmt.Printf("%-8s | %8d %8d %8d %8d %8d\n",
			method, res.PredictedWeight, r.SwapsAdded, r.CNOTs, r.Singles, r.Depth)
	}

	// The routed circuit is an ordinary circuit over physical qubits:
	// independently verifiable against the coupling graph, exportable as
	// OpenQASM, byte-identical on every run (and on store cache hits).
	res, err := compiler.Compile(ctx, "hatt", mh, compiler.WithDevice("montreal"))
	if err != nil {
		panic(err)
	}
	routed, err := res.Routed.Circuit(ctx)
	if err != nil {
		panic(err)
	}
	d, _ := arch.Lookup("montreal")
	if err := arch.CheckCoupling(routed, d); err != nil {
		panic(err)
	}
	fmt.Printf("\ncoupling audit: every CNOT respects %s's %d couplers\n", d.Name, len(d.Edges()))
	fmt.Printf("final layout (logical -> physical): %v\n", res.Routed.FinalLayout)

	// Custom topologies come from a JSON edge list — the same schema
	// hattc -device-file and the service's custom_device field accept.
	ring, err := arch.ParseDeviceJSON([]byte(
		`{"name":"ring8","qubits":8,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,0]]}`))
	if err != nil {
		panic(err)
	}
	res, err = compiler.Compile(ctx, "hatt", mh, compiler.WithDeviceSpec(ring))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nsame problem on a custom 8-qubit ring: %d swaps, %d CNOTs, depth %d\n",
		res.Routed.SwapsAdded, res.Routed.CNOTs, res.Routed.Depth)
}
