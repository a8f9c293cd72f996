package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// TestDiskCrashRecovery drives the disk tier through the log states a
// crash (or torn write) can leave behind and asserts the self-healing
// contract: the tier opens, the damaged entry degrades to a miss, a
// record that frames but does not decode is quarantined out of the load
// path, and the next Put — the "recompile" in service terms — restores
// a servable copy.
func TestDiskCrashRecovery(t *testing.T) {
	k := key("crashed")
	for name, tc := range map[string]struct {
		damage         func(good []byte) []byte // the log left behind, given the entry's payload
		wantQuarantine bool
	}{
		"truncated entry": {
			damage:         func(good []byte) []byte { return record(k.id(), good[:len(good)/2]) },
			wantQuarantine: true,
		},
		"zero-byte entry": {
			damage:         func(good []byte) []byte { return record(k.id(), nil) },
			wantQuarantine: true,
		},
		"half-written tail": {
			// Crash mid-append: the log ends inside the record. That is
			// a plain miss — nothing frames, nothing to quarantine — and
			// the torn bytes are inert.
			damage: func(good []byte) []byte {
				rec := record(k.id(), good)
				return rec[:len(rec)/2]
			},
			wantQuarantine: false,
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(8, dir)
			if err != nil {
				t.Fatal(err)
			}
			s.Put(k, testEntry(t, 3))
			good := recordPayload(t, s, k)
			if err := os.WriteFile(filepath.Join(dir, logName), tc.damage(good), 0o644); err != nil {
				t.Fatal(err)
			}

			// A fresh process with a cold memory tier must open and serve.
			fresh, err := Open(8, dir)
			if err != nil {
				t.Fatalf("tier failed to load after crash: %v", err)
			}
			if _, ok := fresh.Get(k); ok {
				t.Fatal("damaged entry served as a hit")
			}
			st := fresh.Stats()
			if tc.wantQuarantine {
				if st.DiskQuarantines != 1 {
					t.Fatalf("stats = %+v, want 1 quarantine", st)
				}
				if _, ok := fresh.lookup(k.id()); ok {
					t.Fatal("quarantined record still indexed")
				}
				if q, _ := filepath.Glob(filepath.Join(dir, "*.quarantined")); len(q) != 1 {
					t.Fatalf("quarantined copy missing, glob=%v", q)
				}
			} else if st.DiskQuarantines != 0 {
				t.Fatalf("stats = %+v, want no quarantine for a record that never framed", st)
			}

			// "Recompile": the next Put heals the tier and the entry is
			// durable again for yet another cold start.
			fresh.Put(k, testEntry(t, 3))
			if !fresh.DiskHealthy() {
				t.Fatal("disk tier unhealthy after a successful rewrite")
			}
			again, err := Open(8, dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := again.Get(k); !ok {
				t.Fatal("healed entry not served after reopen")
			}
		})
	}
}

// TestTornWriteSelfHeals arms the real failpoint plan end-to-end: every
// disk persist is torn to half its bytes, exactly as the chaos smoke
// does, and the store must degrade to recompute-and-rewrite without
// ever serving bad bytes.
func TestTornWriteSelfHeals(t *testing.T) {
	defer fault.Disarm()
	dir := t.TempDir()
	k := key("torn")

	if err := fault.Arm("seed=3;store.disk.write=torn:0.5"); err != nil {
		t.Fatal(err)
	}
	s, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(k, testEntry(t, 3))
	if _, ok := s.Get(k); !ok {
		t.Fatal("memory tier must mask the torn disk write")
	}
	if !s.DiskHealthy() {
		t.Fatal("a torn write is silent at write time; health flips on read")
	}

	// Cold restart, plan still armed: the torn file is quarantined, the
	// entry recompiles (Put), and the rewrite is torn again — memory
	// still serves.
	fresh, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(k); ok {
		t.Fatal("torn disk entry served as a hit")
	}
	if st := fresh.Stats(); st.DiskQuarantines != 1 {
		t.Fatalf("stats = %+v, want 1 quarantine", st)
	}
	fresh.Put(k, testEntry(t, 3))

	// Plan disarmed (the fault heals): one more Put writes a good copy.
	fault.Disarm()
	fresh.Put(k, testEntry(t, 3))
	healed, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := healed.Get(k); !ok {
		t.Fatal("store did not heal once the fault cleared")
	}
}

// TestInjectedWriteErrorFlipsHealth covers the ENOSPC-style failpoint:
// an injected write error marks the disk tier unhealthy for readiness
// reporting, and the first successful persist clears it.
func TestInjectedWriteErrorFlipsHealth(t *testing.T) {
	defer fault.Disarm()
	dir := t.TempDir()
	s, err := Open(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm("seed=1;store.disk.write=error*1"); err != nil {
		t.Fatal(err)
	}
	s.Put(key("a"), testEntry(t, 2))
	if s.DiskHealthy() {
		t.Fatal("failed persist left the tier healthy")
	}
	if st := s.Stats(); st.DiskErrors != 1 {
		t.Fatalf("stats = %+v, want 1 disk error", st)
	}
	s.Put(key("b"), testEntry(t, 2)) // burst exhausted: this one lands
	if !s.DiskHealthy() {
		t.Fatal("successful persist did not clear disk health")
	}
	// Memory-only stores are trivially healthy.
	mem, err := Open(8, "")
	if err != nil {
		t.Fatal(err)
	}
	if !mem.DiskHealthy() {
		t.Fatal("memory-only store reported an unhealthy disk tier")
	}
}
