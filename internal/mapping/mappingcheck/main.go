// Command mappingcheck is the independent mapping auditor the CI
// portfolio-smoke job runs: it reads Majorana Pauli strings (one per
// line, in M0..M{2N-1} order — e.g. `jq -r '.partial.mapping[]'` over a
// job's partial block) and re-runs the same algebra validation the
// compiler and the store's disk tier enforce: pairwise
// anticommutation, and algebraic independence of the derived mode
// operators. It exits non-zero on any violation, so
//
//	curl .../v1/jobs/job-000001?include_partial=true \
//	  | jq -r '.partial.mapping[]' | go run ./internal/mapping/mappingcheck
//
// is a one-line validity gate on an anytime partial result.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/mapping"
	"repro/internal/pauli"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mappingcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	input := flag.String("input", "-", "file of Pauli strings, one per line in M0.. order ('-' = stdin)")
	name := flag.String("name", "audited", "mapping name used in the report line")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	var strs []pauli.String
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := pauli.Parse(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", len(strs)+1, err)
		}
		strs = append(strs, s)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(strs) == 0 || len(strs)%2 != 0 {
		return fmt.Errorf("read %d Pauli strings, want a positive even count (2 per mode)", len(strs))
	}

	m := &mapping.Mapping{Name: *name, Modes: len(strs) / 2, Majoranas: strs}
	if err := m.Verify(); err != nil {
		return fmt.Errorf("anticommutation: %w", err)
	}
	if err := m.VerifyIndependent(); err != nil {
		return fmt.Errorf("independence: %w", err)
	}
	fmt.Printf("mappingcheck: %s OK — %d modes, %d qubits, anticommutation and independence verified (vacuum=%v)\n",
		*name, m.Modes, m.Qubits(), m.VacuumPreserved())
	return nil
}
