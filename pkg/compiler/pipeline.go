package compiler

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/fermion"
	"repro/internal/linalg"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pauli"
	"repro/internal/taper"
)

// MaxTaperQubits bounds the tapering stage: the ground-sector sweep needs
// the dense eigensolver, which is only feasible on small systems.
const MaxTaperQubits = 12

// Pipeline runs the full compilation chain — model construction, Majorana
// expansion, mapping, circuit synthesis, metrics, and optional Z₂
// tapering — in one call:
//
//	rep, err := compiler.Pipeline{Model: "hubbard:2x3", Method: "hatt"}.Run(ctx)
//
// Either Model (a spec for models.Resolve) or Hamiltonian must be set;
// Hamiltonian wins when both are. Method defaults to "hatt".
type Pipeline struct {
	Model       string               // model spec, e.g. "h2", "hubbard:3x3"
	Hamiltonian *fermion.Hamiltonian // pre-built system, overrides Model
	Method      string               // mapping method spec, e.g. "beam:8"
	Taper       bool                 // additionally taper (≤ MaxTaperQubits)
	Options     []Option
}

// TaperReport summarizes the optional tapering stage.
type TaperReport struct {
	Qubits       int
	Weight       int
	CNOTs        int
	Depth        int
	GroundEnergy float64
	Symmetries   int
}

// Report is the outcome of one Pipeline run.
type Report struct {
	Model         string
	Modes         int
	FermionTerms  int
	MajoranaTerms int

	Result  *Result            // the compiled mapping
	Qubit   *pauli.Hamiltonian // the mapped qubit Hamiltonian
	Circuit *circuit.Circuit   // the synthesized, peephole-optimized circuit

	Weight          int // Pauli weight of the qubit Hamiltonian
	Terms           int // its non-identity term count
	CNOTs           int
	Singles         int
	Depth           int
	VacuumPreserved bool

	// Routed mirrors Result.Routed: the hardware-mapped circuit and its
	// metrics when the options target a device, nil otherwise. Run has
	// already derived its circuit, so Routed.Circuit returns at once.
	Routed *Routed

	Tapered *TaperReport // nil unless Taper was requested
	Elapsed time.Duration
}

// Run executes the pipeline. The context bounds every long-running stage:
// the mapping search and the tapering sector sweep.
func (p Pipeline) Run(ctx context.Context) (*Report, error) {
	start := time.Now()
	h, name := p.Hamiltonian, p.Model
	switch {
	case h == nil && name == "":
		return nil, errors.New("compiler: pipeline needs a Model spec or a Hamiltonian")
	case name == "":
		name = "custom"
	}
	_, modelSpan := obs.StartSpan(ctx, "model.build")
	modelSpan.SetAttr("model", name)
	if h == nil {
		var err error
		if h, err = models.Resolve(p.Model); err != nil {
			modelSpan.End()
			return nil, err
		}
	}
	mh := h.Majorana(1e-12)
	modelSpan.End()

	spec := p.Method
	if spec == "" {
		spec = "hatt"
	}
	o := NewOptions(p.Options...)
	res, err := compileWith(ctx, spec, mh, o)
	if err != nil {
		return nil, err
	}
	if err := res.Mapping.VerifyIndependent(); err != nil {
		return nil, fmt.Errorf("compiler: mapping failed verification: %w", err)
	}

	// With a device targeted, routing already applied the mapping and
	// synthesized the logical circuit (on a store hit, Circuit does so
	// now) — reuse those instead of paying for synthesis twice.
	var hq *pauli.Hamiltonian
	var cc *circuit.Circuit
	if r := res.Routed; r != nil {
		if _, err := r.Circuit(ctx); err != nil {
			return nil, err
		}
		hq, cc = r.qubitH, r.logical
	} else {
		_, synthSpan := obs.StartSpan(ctx, "circuit.synthesis")
		synthSpan.SetAttr("method", res.Method)
		hq = res.Mapping.Apply(mh)
		cc = circuit.Optimize(circuit.SynthesizeTrotter(hq, o.TrotterTime, o.TrotterSteps, o.TermOrder))
		synthSpan.End()
	}
	rep := &Report{
		Model:           name,
		Modes:           h.Modes,
		FermionTerms:    h.NumTerms(),
		MajoranaTerms:   len(mh.Terms),
		Result:          res,
		Qubit:           hq,
		Circuit:         cc,
		Weight:          hq.Weight(),
		Terms:           hq.NonIdentityTerms(),
		CNOTs:           cc.CNOTCount(),
		Singles:         cc.SingleCount(),
		Depth:           cc.Depth(),
		VacuumPreserved: res.Mapping.VacuumPreserved(),
		Routed:          res.Routed,
	}

	if p.Taper {
		if hq.N() > MaxTaperQubits {
			return nil, fmt.Errorf("compiler: tapering limited to ≤ %d qubits (mapping uses %d)", MaxTaperQubits, hq.N())
		}
		tctx, taperSpan := obs.StartSpan(ctx, "taper.ground")
		taperSpan.SetAttr("method", res.Method)
		tres, e, err := taper.GroundSector(tctx, hq, linalg.GroundEnergy)
		taperSpan.End()
		if err != nil {
			return nil, fmt.Errorf("compiler: tapering failed: %w", err)
		}
		tc := circuit.Compile(tres.Reduced, o.TermOrder)
		rep.Tapered = &TaperReport{
			Qubits:       tres.Reduced.N(),
			Weight:       tres.Reduced.Weight(),
			CNOTs:        tc.CNOTCount(),
			Depth:        tc.Depth(),
			GroundEnergy: e,
			Symmetries:   len(tres.Symmetries),
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
