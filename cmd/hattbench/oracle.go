package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
	"repro/internal/pauli"
	"repro/pkg/compiler"
)

// verifySetSize is how many requests the output oracle checks after each
// window: the stream's first verifySetSize requests, and as many from the
// quality probe.
const verifySetSize = 32

// qualityDevice is the device every quality-probe request is routed onto,
// so every workload reports a routed gate count.
const qualityDevice = "grid:6x6"

// outputCheck is what checkOutputs found.
type outputCheck struct {
	sent      int
	failures  []error
	weightSum int // quality probe: summed pauli_weight
	cnotSum   int // quality probe: summed routed CNOTs
}

// checkOutputs sends two sets of requests with include_strings and runs
// the oracle on every response: the verification set, the first
// verifySetSize requests of the window's own stream, and the quality
// probe, as many requests from the stream at qualitySeed routed onto
// qualityDevice. The quality probe does not depend on -seed, so its sums
// change only when the code's results change.
func checkOutputs(ctx context.Context, client *http.Client, url string, w *workload, seed uint64) *outputCheck {
	oc := &outputCheck{}
	send := func(set string, b compileBody) *compileResp {
		oc.sent++
		body, err := json.Marshal(b)
		if err != nil {
			panic(err) // compileBody always marshals
		}
		r, _, err := post(ctx, client, url, body)
		if err == nil {
			err = verify(&b, &r)
		}
		if err != nil {
			oc.failures = append(oc.failures, fmt.Errorf("%s %s/%s: %w", set, b.Model, b.Method, err))
			return nil
		}
		return &r
	}
	for i := uint64(0); i < verifySetSize; i++ {
		b := w.request(seed, i)
		b.Strings = true
		send("verification", b)
	}
	for i := uint64(0); i < verifySetSize; i++ {
		b := w.request(qualitySeed, i)
		b.Strings, b.Device = true, qualityDevice
		if r := send("quality", b); r != nil {
			oc.weightSum += r.PauliWeight
			oc.cnotSum += r.Routed.CNOTs
		}
	}
	return oc
}

// verify is the output oracle for one response that carries mapping
// strings. It checks the mapping algebra, that the applied Pauli weight
// equals the reported one, and for a routed response that the QASM parses,
// respects the device's coupling graph, and has the CNOT count both the
// response and an in-process re-route report.
func verify(b *compileBody, r *compileResp) error {
	mh, err := majoranaOf(b)
	if err != nil {
		return err
	}
	if len(r.Mapping) != 2*mh.Modes || r.Modes != mh.Modes {
		return fmt.Errorf("%d mapping strings for %d modes (response says %d)", len(r.Mapping), mh.Modes, r.Modes)
	}
	m := &mapping.Mapping{Name: r.Method, Modes: mh.Modes, Majoranas: make([]pauli.String, len(r.Mapping))}
	for j, s := range r.Mapping {
		if m.Majoranas[j], err = pauli.Parse(s); err != nil {
			return fmt.Errorf("mapping string %d: %w", j, err)
		}
	}
	if err := m.Verify(); err != nil {
		return err
	}
	if err := m.VerifyIndependent(); err != nil {
		return err
	}
	hq := m.Apply(mh)
	if w := hq.Weight(); w != r.PauliWeight {
		return fmt.Errorf("applied weight %d, reported %d", w, r.PauliWeight)
	}
	if b.Device == "" {
		return nil
	}
	if r.Routed == nil {
		return fmt.Errorf("no routed block for device %s", b.Device)
	}
	dev, err := arch.Lookup(b.Device)
	if err != nil {
		return err
	}
	c, err := circuit.ReadQASM(strings.NewReader(r.Routed.QASM))
	if err != nil {
		return fmt.Errorf("routed QASM: %w", err)
	}
	if err := arch.CheckCoupling(c, dev); err != nil {
		return err
	}
	rr, err := arch.Route(synthesize(hq), dev)
	if err != nil {
		return err
	}
	if got, want := c.CNOTCount(), rr.Circuit.CNOTCount(); got != r.Routed.CNOTs || got != want {
		return fmt.Errorf("routed QASM has %d CNOTs, response says %d, re-route gives %d", got, r.Routed.CNOTs, want)
	}
	return nil
}

// synthesize is the Trotter synthesis and peephole pass hattd runs before
// routing, with the compiler's default knobs.
func synthesize(hq *pauli.Hamiltonian) *circuit.Circuit {
	o := compiler.NewOptions()
	return circuit.Optimize(circuit.SynthesizeTrotter(hq, o.TrotterTime, o.TrotterSteps, o.TermOrder))
}
