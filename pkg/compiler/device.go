package compiler

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/fermion"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/pauli"
	"repro/internal/store"
)

// WithDevice targets a catalog device by spec — "manhattan", "sycamore",
// "montreal", "linear:<n>", or "grid:<r>x<c>" — making hardware
// awareness part of the compilation: Compile (and every batch/pipeline
// path over it) synthesizes the Trotter circuit for the mapping, routes
// it onto the device with the tetris-lite pass, and reports the routed
// metrics in Result.Routed. An unknown spec surfaces as an error from
// Compile, not here, so options stay infallible to construct.
func WithDevice(spec string) Option {
	return func(o *Options) { o.DeviceName = spec; o.Device = nil }
}

// WithDeviceSpec targets an explicitly constructed device — typically a
// custom coupling graph loaded from a JSON edge list (arch.DeviceSpec /
// hattc -device-file). It overrides any WithDevice catalog spec.
func WithDeviceSpec(d *arch.Device) Option {
	return func(o *Options) { o.Device = d; o.DeviceName = "" }
}

// deviceDigest is the device component of Options.Digest: the
// canonical catalog spec for named devices, a content fingerprint for
// custom ones, "" when compilation is hardware-oblivious. Routed and
// unrouted compilations of the same problem therefore occupy separate
// store entries. Resolvable specs canonicalize through the device's own
// name, so equivalent spellings ("linear:08", "LINEAR:8") share one
// content address; an unresolvable spec falls back to its normalized
// text — harmless, since compileWith rejects it before any store access.
func (o Options) deviceDigest() string {
	switch {
	case o.Device != nil:
		return "custom:" + o.Device.Fingerprint()
	case o.DeviceName != "":
		if d, err := arch.Lookup(o.DeviceName); err == nil {
			return arch.Normalize(d.Name)
		}
		return arch.Normalize(o.DeviceName)
	}
	return ""
}

// routingDevice resolves the targeted device, or (nil, nil) when none
// is configured.
func (o Options) routingDevice() (*arch.Device, error) {
	if o.Device != nil {
		return o.Device, nil
	}
	if o.DeviceName == "" {
		return nil, nil
	}
	return arch.Lookup(o.DeviceName)
}

// Routed is the hardware-mapped view of a compilation: the Trotter
// circuit synthesized from the mapping and routed onto a coupling graph
// by the tetris-lite pass. Routing is deterministic, so for a fixed
// mapping, device and synthesis options the routed circuit is
// byte-identical on every run.
//
// A compile served from a Store carries the metrics stored with the
// mapping and synthesizes and routes nothing; Circuit derives the gates
// on first use. A fresh compile carries the circuit it already built.
type Routed struct {
	Device      string // device name, e.g. "Montreal"
	PhysQubits  int    // device size; the routed circuit spans all of it
	SwapsAdded  int    // SWAPs inserted (3 CNOTs each, pre-peephole)
	CNOTs       int    // routed two-qubit gate count
	Singles     int    // routed single-qubit (U3) gate count
	Depth       int    // routed circuit depth
	FinalLayout []int  // logical qubit → physical qubit after routing

	once    sync.Once
	derive  func(context.Context) (*Routed, error) // rebuilds the circuit of a stored summary
	circuit *circuit.Circuit
	err     error

	// The synthesis intermediates, stashed so Pipeline.Run doesn't pay
	// for mapping application and Trotter synthesis a second time.
	qubitH  *pauli.Hamiltonian
	logical *circuit.Circuit
}

// Circuit returns the routed, peephole-optimized circuit. On a result
// served from a Store it synthesizes and routes the mapping once, under
// the first caller's ctx (so the circuit.synthesis and circuit.route
// spans land in that caller's trace), and returns an error if the
// derived circuit contradicts the stored metrics. Safe for concurrent
// use.
func (r *Routed) Circuit(ctx context.Context) (*circuit.Circuit, error) {
	r.once.Do(func() {
		if r.circuit != nil {
			return
		}
		d, err := r.derive(ctx)
		if err == nil && !d.sameMetrics(r) {
			err = fmt.Errorf("compiler: routed circuit on %s (%d swaps, %d CNOTs, %d U3s, depth %d) contradicts the stored summary (%d, %d, %d, %d)",
				d.Device, d.SwapsAdded, d.CNOTs, d.Singles, d.Depth, r.SwapsAdded, r.CNOTs, r.Singles, r.Depth)
		}
		if err != nil {
			r.err = err
			return
		}
		r.circuit, r.qubitH, r.logical = d.circuit, d.qubitH, d.logical
	})
	return r.circuit, r.err
}

func (r *Routed) sameMetrics(o *Routed) bool {
	return r.Device == o.Device && r.PhysQubits == o.PhysQubits && r.SwapsAdded == o.SwapsAdded &&
		r.CNOTs == o.CNOTs && r.Singles == o.Singles && r.Depth == o.Depth &&
		slices.Equal(r.FinalLayout, o.FinalLayout)
}

// summary is the store's copy of r: the metrics without the circuit.
func (r *Routed) summary() *store.Routed {
	return &store.Routed{Device: r.Device, PhysQubits: r.PhysQubits, SwapsAdded: r.SwapsAdded,
		CNOTs: r.CNOTs, Singles: r.Singles, Depth: r.Depth, FinalLayout: r.FinalLayout}
}

// routedSummary serves the summary stored with a cached result;
// Circuit routes the result's mapping when first called.
func routedSummary(s *store.Routed, res *Result, mh *fermion.MajoranaHamiltonian, dev *arch.Device, o Options) *Routed {
	return &Routed{Device: s.Device, PhysQubits: s.PhysQubits, SwapsAdded: s.SwapsAdded,
		CNOTs: s.CNOTs, Singles: s.Singles, Depth: s.Depth, FinalLayout: s.FinalLayout,
		derive: func(ctx context.Context) (*Routed, error) {
			return route(ctx, res.Method, res.Mapping, mh, dev, o)
		}}
}

// route synthesizes the mapping's Trotter circuit with the options'
// synthesis knobs and routes it onto dev. ctx feeds the tracing seam
// only — synthesis and routing are fast deterministic passes that do
// not check cancellation.
func route(ctx context.Context, method string, m *mapping.Mapping, mh *fermion.MajoranaHamiltonian, dev *arch.Device, o Options) (*Routed, error) {
	if m == nil {
		return nil, fmt.Errorf("compiler: method %s produced no mapping to route", method)
	}
	_, synthSpan := obs.StartSpan(ctx, "circuit.synthesis")
	synthSpan.SetAttr("method", method)
	hq := m.Apply(mh)
	logical := circuit.Optimize(circuit.SynthesizeTrotter(hq, o.TrotterTime, o.TrotterSteps, o.TermOrder))
	synthSpan.End()
	_, routeSpan := obs.StartSpan(ctx, "circuit.route")
	routeSpan.SetAttr("method", method)
	routeSpan.SetAttr("device", dev.Name)
	rr, err := arch.Route(logical, dev)
	routeSpan.End()
	if err != nil {
		return nil, fmt.Errorf("compiler: routing onto %s: %w", dev.Name, err)
	}
	return &Routed{
		Device:      dev.Name,
		PhysQubits:  dev.N,
		SwapsAdded:  rr.SwapsAdded,
		CNOTs:       rr.Circuit.CNOTCount(),
		Singles:     rr.Circuit.SingleCount(),
		Depth:       rr.Circuit.Depth(),
		FinalLayout: rr.FinalLayout,
		circuit:     rr.Circuit,
		qubitH:      hq,
		logical:     logical,
	}, nil
}
