// Package fault is the deterministic failure-injection layer for the
// service stack. Production code names its failure-prone sites with
// failpoints — fault.Point("store.disk.write"), fault.Mutate(...) — and
// each site is a no-op until a plan is armed (hattd -fault-plan, or the
// HATT_FAULT_PLAN environment variable). The disarmed fast path is a
// single atomic pointer load, so instrumented hot code pays nothing in
// normal operation.
//
// A plan is a seeded set of per-site rules:
//
//	seed=42;fleet.peer.status=error*6;store.disk.write=torn:0.5@30
//
// Grammar, semicolon-separated:
//
//	seed=N                      splitmix64 seed shared by every rule
//	<site>=<mode>[:arg][@pct][*count]
//
// Modes:
//
//	error          Point returns ErrInjected
//	latency:<dur>  PointCtx sleeps for <dur> (Go duration), honoring ctx
//	torn:<frac>    Mutate truncates the payload to <frac> of its length
//	short:<frac>   alias of torn for read-side sites
//
// "@pct" fires the rule on that percentage of evaluations (default
// 100), decided by splitmix64 over (seed, site, evaluation index) so a
// plan replays identically across runs. "*count" caps the number of
// firings (a burst); after the cap the site heals. Every decision and
// firing is counted per site and exported through Stats for the /v1
// surface, so a chaos run can assert its plan actually executed.
package fault

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// EnvVar is the environment variable ArmFromEnv consults when no
// explicit plan is given.
const EnvVar = "HATT_FAULT_PLAN"

// ErrInjected is the sentinel returned by an armed error-mode
// failpoint. Instrumented sites propagate it like any other failure;
// tests and operators can identify injected faults with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// mode is what an armed rule does when it fires.
type mode uint8

const (
	modeError mode = iota
	modeLatency
	modeTorn
)

// rule is one armed site. The counters are atomics so concurrent
// callers take deterministic, non-overlapping evaluation indexes.
type rule struct {
	site  string
	mode  mode
	delay time.Duration // modeLatency
	frac  float64       // modeTorn: fraction of the payload that survives
	pct   uint64        // firing probability in percent, 1..100
	burst uint64        // max firings; 0 = unlimited

	evals atomic.Uint64 // evaluation counter (decision index)
	fired atomic.Uint64 // firings so far
}

// fire decides deterministically whether this evaluation injects.
func (r *rule) fire(seed uint64) bool {
	n := r.evals.Add(1) - 1
	if r.pct < 100 {
		h := splitmix64(seed ^ siteHash(r.site) ^ splitmix64(n))
		if h%100 >= r.pct {
			return false
		}
	}
	if r.burst > 0 {
		// Post-increment cap: the first `burst` winning evaluations
		// fire, later ones see an exhausted budget and pass through.
		if r.fired.Add(1) > r.burst {
			return false
		}
		return true
	}
	r.fired.Add(1)
	return true
}

// Plan is a parsed, armed set of rules. Plans are immutable after
// Parse; all mutable state lives in per-rule atomic counters.
type Plan struct {
	seed  uint64
	src   string
	rules map[string]*rule
}

// current is the armed plan; nil means every failpoint is a no-op.
var current atomic.Pointer[Plan]

// Enabled reports whether a plan is armed.
func Enabled() bool { return current.Load() != nil }

// Active returns the source text of the armed plan, or "".
func Active() string {
	if p := current.Load(); p != nil {
		return p.src
	}
	return ""
}

// Arm parses and installs a plan, replacing any armed one. An empty
// string disarms.
func Arm(plan string) error {
	if strings.TrimSpace(plan) == "" {
		Disarm()
		return nil
	}
	p, err := Parse(plan)
	if err != nil {
		return err
	}
	current.Store(p)
	slog.Warn("fault plan armed", "plan", p.src)
	return nil
}

// ArmFromEnv arms from the HATT_FAULT_PLAN environment variable if it
// is set, and reports the plan text that was armed (empty when unset).
func ArmFromEnv() (string, error) {
	plan := os.Getenv(EnvVar)
	if plan == "" {
		return "", nil
	}
	return plan, Arm(plan)
}

// Disarm removes the armed plan; every failpoint returns to a no-op.
func Disarm() {
	if current.Load() != nil {
		slog.Info("fault plan disarmed")
	}
	current.Store(nil)
}

// Parse compiles plan text into a Plan without arming it.
func Parse(text string) (*Plan, error) {
	p := &Plan{src: text, rules: make(map[string]*rule)}
	seenSeed := false
	for _, clause := range strings.Split(text, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return nil, fmt.Errorf("fault: malformed clause %q (want key=value)", clause)
		}
		if key == "seed" {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", val, err)
			}
			p.seed, seenSeed = n, true
			continue
		}
		r, err := parseRule(key, val)
		if err != nil {
			return nil, err
		}
		if _, dup := p.rules[key]; dup {
			return nil, fmt.Errorf("fault: duplicate rule for site %q", key)
		}
		p.rules[key] = r
	}
	if len(p.rules) == 0 {
		return nil, errors.New("fault: plan has no site rules")
	}
	if !seenSeed {
		p.seed = 1
	}
	return p, nil
}

// parseRule compiles one site clause: mode[:arg][@pct][*count].
func parseRule(site, spec string) (*rule, error) {
	r := &rule{site: site, pct: 100}
	if body, count, ok := strings.Cut(spec, "*"); ok {
		n, err := strconv.ParseUint(count, 10, 64)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("fault: %s: bad burst count %q", site, count)
		}
		r.burst, spec = n, body
	}
	if body, pct, ok := strings.Cut(spec, "@"); ok {
		n, err := strconv.ParseUint(pct, 10, 64)
		if err != nil || n == 0 || n > 100 {
			return nil, fmt.Errorf("fault: %s: bad firing percentage %q (want 1..100)", site, pct)
		}
		r.pct, spec = n, body
	}
	kind, arg, hasArg := strings.Cut(spec, ":")
	switch kind {
	case "error":
		if hasArg {
			return nil, fmt.Errorf("fault: %s: error mode takes no argument", site)
		}
		r.mode = modeError
	case "latency":
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("fault: %s: bad latency %q (want a positive Go duration)", site, arg)
		}
		r.mode, r.delay = modeLatency, d
	case "torn", "short":
		f, err := strconv.ParseFloat(arg, 64)
		if err != nil || f < 0 || f >= 1 {
			return nil, fmt.Errorf("fault: %s: bad fraction %q (want [0,1))", site, arg)
		}
		r.mode, r.frac = modeTorn, f
	default:
		return nil, fmt.Errorf("fault: %s: unknown mode %q (want error|latency:<dur>|torn:<frac>|short:<frac>)", site, kind)
	}
	return r, nil
}

// Point evaluates an error-mode failpoint. It returns ErrInjected when
// the armed plan says this site fails now, nil otherwise (including
// when the site's rule is a latency or payload mode — those only act
// through PointCtx and Mutate).
func Point(site string) error {
	p := current.Load()
	if p == nil {
		return nil
	}
	r := p.rules[site]
	if r == nil || r.mode != modeError || !r.fire(p.seed) {
		return nil
	}
	slog.Debug("fault injected", "site", site, "mode", "error")
	return fmt.Errorf("%w at %s", ErrInjected, site)
}

// PointCtx evaluates an error- or latency-mode failpoint. Latency
// rules sleep for the configured duration but give up early — returning
// ctx.Err() — if the caller's context ends first.
func PointCtx(ctx context.Context, site string) error {
	p := current.Load()
	if p == nil {
		return nil
	}
	r := p.rules[site]
	if r == nil {
		return nil
	}
	switch r.mode {
	case modeError:
		if r.fire(p.seed) {
			slog.Debug("fault injected", "site", site, "mode", "error")
			return fmt.Errorf("%w at %s", ErrInjected, site)
		}
	case modeLatency:
		if r.fire(p.seed) {
			slog.Debug("fault injected", "site", site, "mode", "latency")
			t := time.NewTimer(r.delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// Mutate applies a torn/short payload rule to b, returning the
// truncated prefix when the site fires and b unchanged otherwise. The
// caller keeps ownership either way; the result aliases b.
func Mutate(site string, b []byte) []byte {
	p := current.Load()
	if p == nil {
		return b
	}
	r := p.rules[site]
	if r == nil || r.mode != modeTorn || !r.fire(p.seed) {
		return b
	}
	return b[:int(float64(len(b))*r.frac)]
}

// Stats returns per-site firing counts for the armed plan, nil when
// disarmed. Sites that have not fired report 0, so a chaos harness can
// distinguish "armed but idle" from "not armed".
func Stats() map[string]uint64 {
	p := current.Load()
	if p == nil {
		return nil
	}
	out := make(map[string]uint64, len(p.rules))
	for site, r := range p.rules {
		n := r.fired.Load()
		if r.burst > 0 && n > r.burst {
			n = r.burst
		}
		out[site] = n
	}
	return out
}

// siteHash folds a site name into the splitmix64 stream (FNV-1a).
func siteHash(site string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the same mixer hattload uses for its deterministic
// request streams; identical seeds replay identical fault schedules.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
