// Package fleet turns a set of independent hattd nodes into a small
// compilation fleet. Each node remains a full router-and-worker — it
// accepts any request, compiles anything locally — but before paying for
// a search it consults its peers' content-addressed stores through the
// peer cache-fill protocol: a local store miss is routed, by consistent
// hash over the entry's store address, to the peers most likely to hold
// the entry, fetched via GET /v1/store/{address}, verified (the mapping
// algebra is re-checked on import exactly as it is for the disk tier),
// installed locally, and served as a cache hit.
//
// The fleet degrades, never fails: a down, slow, or cold peer costs one
// bounded fetch (Config.Timeout per attempt, Config.Retries extra
// attempts) and the node falls back to compiling locally. A peer that
// keeps failing trips a per-peer circuit breaker — consecutive failures
// past Config.BreakerThreshold stop the node dialing it at all, and a
// jittered exponential backoff with a single half-open probe decides
// when it may carry traffic again — so a dead peer costs a handful of
// timeouts once, not one per request. There is no membership protocol
// and no coordination traffic — the ring is derived deterministically
// from static configuration, so every node agrees on ownership from its
// flags alone.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// Defaults for Config's zero fields.
const (
	DefaultTimeout = 2 * time.Second
	DefaultRetries = 1
	// maxFillBytes bounds one peer response; a mapping entry is a few KB,
	// so anything near this is a misbehaving peer, not a big entry.
	maxFillBytes = 8 << 20
)

// Config describes one node's view of the fleet.
type Config struct {
	// Self is this node's own advertised base URL (e.g.
	// "http://10.0.0.1:7707"). It is excluded from fetch targets; a node
	// never dials itself.
	Self string
	// Peers are the base URLs of every fleet member (Self may be listed
	// or omitted — it is filtered out either way).
	Peers []string
	// Timeout bounds each individual peer fetch. Zero means
	// DefaultTimeout.
	Timeout time.Duration
	// Retries is how many additional attempts a failing fetch gets before
	// the next peer (or local compilation) takes over. Negative means 0;
	// zero means DefaultRetries.
	Retries int
	// BreakerThreshold is how many consecutive failures open a peer's
	// circuit breaker. Zero or negative means DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerBackoff is the first open interval; each re-open doubles it
	// (jittered) up to BreakerMaxBackoff. Zeros mean the defaults.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
}

// fileConfig is the JSON shape of a -fleet-config file.
type fileConfig struct {
	Self                string   `json:"self"`
	Peers               []string `json:"peers"`
	TimeoutMS           int64    `json:"timeout_ms,omitempty"`
	Retries             *int     `json:"retries,omitempty"`
	BreakerThreshold    int      `json:"breaker_threshold,omitempty"`
	BreakerBackoffMS    int64    `json:"breaker_backoff_ms,omitempty"`
	BreakerMaxBackoffMS int64    `json:"breaker_max_backoff_ms,omitempty"`
}

// LoadConfigFile reads a fleet topology from a JSON file:
//
//	{"self": "http://10.0.0.1:7707",
//	 "peers": ["http://10.0.0.1:7707", "http://10.0.0.2:7707"],
//	 "timeout_ms": 2000, "retries": 1}
//
// Unknown fields are rejected so a typo fails loudly at startup instead
// of silently running solo.
func LoadConfigFile(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("fleet: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var fc fileConfig
	if err := dec.Decode(&fc); err != nil {
		return Config{}, fmt.Errorf("fleet: config %s: %w", path, err)
	}
	cfg := Config{
		Self:              fc.Self,
		Peers:             fc.Peers,
		Timeout:           time.Duration(fc.TimeoutMS) * time.Millisecond,
		BreakerThreshold:  fc.BreakerThreshold,
		BreakerBackoff:    time.Duration(fc.BreakerBackoffMS) * time.Millisecond,
		BreakerMaxBackoff: time.Duration(fc.BreakerMaxBackoffMS) * time.Millisecond,
	}
	if fc.Retries != nil {
		cfg.Retries = *fc.Retries
		if cfg.Retries <= 0 {
			cfg.Retries = -1 // explicit zero survives normalization
		}
	}
	return cfg, nil
}

// ParsePeers splits a comma-separated -peers flag value into base URLs,
// trimming whitespace and dropping empties.
func ParsePeers(csv string) []string {
	var peers []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// validatePeer rejects base URLs the client could not dial.
func validatePeer(p string) error {
	u, err := url.Parse(p)
	if err != nil {
		return fmt.Errorf("fleet: peer %q: %w", p, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("fleet: peer %q: scheme must be http or https", p)
	}
	if u.Host == "" {
		return fmt.Errorf("fleet: peer %q: missing host", p)
	}
	return nil
}

// Stats is a point-in-time snapshot of the fleet layer's counters.
type Stats struct {
	Self      string                  `json:"self,omitempty"`
	Peers     []string                `json:"peers"`
	PeerHits  int64                   `json:"peer_hits"`   // entries filled from a peer
	PeerMiss  int64                   `json:"peer_misses"` // fan-outs where no peer held the entry
	PeerError int64                   `json:"peer_errors"` // failed fetch attempts (timeouts, 5xx, bad payloads)
	PeerSkips int64                   `json:"peer_skips"`  // attempts refused locally by an open breaker
	Breakers  map[string]BreakerStats `json:"breakers"`    // per-peer circuit-breaker state
}

// Store wraps a node's local content-addressed store with peer
// cache-fill. It implements the same Get/Put surface as *store.Store
// (and therefore compiler.Store), so it drops into the job manager and
// the sync compile path unchanged:
//
//	Get: local tiers first; on a miss, fetch from peers in ring order and
//	     import the first verified payload. Only a fill failure on every
//	     candidate is a miss — which the compile layer answers by
//	     compiling locally (degraded mode).
//	Put: local only. Fill is pull-based; entries propagate to the nodes
//	     that actually see demand for them.
type Store struct {
	local    *store.Store
	ring     *Ring
	self     string
	client   *http.Client
	retries  int
	breakers map[string]*breaker // fixed key set after NewStore; values self-synchronize

	peerHits, peerMiss, peerErr, peerSkips atomic.Int64
}

// NewStore builds the fleet wrapper over a local store. An empty peer
// list (after removing Self) is an error — single-node daemons should
// use the local store directly.
func NewStore(local *store.Store, cfg Config) (*Store, error) {
	if local == nil {
		return nil, errors.New("fleet: nil local store")
	}
	var others []string
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			continue
		}
		if err := validatePeer(p); err != nil {
			return nil, err
		}
		others = append(others, p)
	}
	if len(others) == 0 {
		return nil, errors.New("fleet: no peers besides self")
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	retries := cfg.Retries
	switch {
	case retries < 0:
		retries = 0
	case retries == 0:
		retries = DefaultRetries
	}
	threshold := cfg.BreakerThreshold
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	backoff := cfg.BreakerBackoff
	if backoff <= 0 {
		backoff = DefaultBreakerBackoff
	}
	maxBackoff := cfg.BreakerMaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = DefaultBreakerMaxBackoff
	}
	if maxBackoff < backoff {
		maxBackoff = backoff
	}
	breakers := make(map[string]*breaker, len(others))
	for _, p := range others {
		breakers[p] = newBreaker(p, threshold, backoff, maxBackoff)
	}
	return &Store{
		local:    local,
		ring:     NewRing(others),
		self:     cfg.Self,
		client:   &http.Client{Timeout: timeout},
		retries:  retries,
		breakers: breakers,
	}, nil
}

// Get consults the local tiers, then the fleet. It satisfies the
// context-free compiler.Store surface; callers that hold a request
// context should use GetContext so a disconnecting client aborts the
// peer fan-out.
func (f *Store) Get(key store.Key) (*store.Entry, bool) {
	//hatt:lint-ignore ctxflow context-free compiler.Store entry point; GetContext is the ctx-aware path
	return f.GetContext(context.Background(), key)
}

// GetContext is Get with the caller's context threaded through the peer
// fan-out: every fetch runs under the per-attempt timeout layered onto
// ctx, so a cancelled request stops dialing peers immediately instead
// of finishing the fill on the caller's corpse.
func (f *Store) GetContext(ctx context.Context, key store.Key) (*store.Entry, bool) {
	if e, ok := f.local.Get(key); ok {
		return e, true
	}
	return f.fill(ctx, key)
}

// Put stores locally. (Pull-based fill: peers that want the entry will
// come and get it.)
func (f *Store) Put(key store.Key, entry *store.Entry) { f.local.Put(key, entry) }

// Stats snapshots the fleet counters, including each peer's breaker.
func (f *Store) Stats() Stats {
	breakers := make(map[string]BreakerStats, len(f.breakers))
	for peer, b := range f.breakers {
		breakers[peer] = b.snapshot()
	}
	return Stats{
		Self:      f.self,
		Peers:     f.ring.Peers(),
		PeerHits:  f.peerHits.Load(),
		PeerMiss:  f.peerMiss.Load(),
		PeerError: f.peerErr.Load(),
		PeerSkips: f.peerSkips.Load(),
		Breakers:  breakers,
	}
}

// OpenBreakers lists peers whose breaker is currently refusing traffic,
// for readiness reporting. A half-open (or backoff-expired) breaker is
// probing its way back and does not count as degraded.
func (f *Store) OpenBreakers() []string {
	var open []string
	for _, peer := range f.ring.Peers() {
		if f.breakers[peer].snapshot().State == "open" {
			open = append(open, peer)
		}
	}
	return open
}

// fill runs the peer cache-fill protocol for one key: candidates in
// consistent-hash preference order, each given 1+retries bounded
// attempts gated by its circuit breaker; the first verified payload is
// imported into the local store and returned. 404 means "that peer
// doesn't have it" and moves on immediately (no retry — and it counts
// as breaker success, since the peer answered definitively); transport
// errors, 5xx, and bad payloads count as peer errors and breaker
// failures. A cancelled caller context aborts the whole fan-out without
// blaming any peer.
func (f *Store) fill(ctx context.Context, key store.Key) (*store.Entry, bool) {
	addr := key.Address()
	for _, peer := range f.ring.Owners(addr, len(f.ring.Peers())) {
		br := f.breakers[peer]
		sctx, span := obs.StartSpan(ctx, "fleet.peer.fetch")
		span.SetAttr("peer", peer)
		outcome := "miss"
		for attempt := 0; attempt <= f.retries; attempt++ {
			if ctx.Err() != nil {
				span.SetAttr("outcome", "canceled")
				span.End()
				return nil, false // caller gone: not a peer miss, nobody's fault
			}
			if !br.allow() {
				f.peerSkips.Add(1)
				outcome = "skip"
				break // breaker open: next peer, no network touched
			}
			raw, status, err := f.fetch(sctx, peer, addr)
			switch {
			case err != nil:
				if ctx.Err() != nil {
					br.onCancel()
					span.SetAttr("outcome", "canceled")
					span.End()
					return nil, false
				}
				f.peerErr.Add(1)
				br.onFailure()
				obs.L(ctx).Warn("peer fetch failed", "peer", peer, "attempt", attempt, "error", err.Error())
				outcome = "error"
				continue // retry this peer
			case status == http.StatusNotFound:
				// Definitive answer from a healthy peer: move on.
				br.onSuccess()
			case status != http.StatusOK:
				f.peerErr.Add(1)
				br.onFailure()
				obs.L(ctx).Warn("peer fetch failed", "peer", peer, "attempt", attempt, "status", status)
				outcome = "error"
				continue
			default:
				e, ierr := f.local.Import(key, raw)
				if ierr != nil {
					// The peer served bytes that don't verify — treat the
					// peer as broken for this key, try the next one.
					f.peerErr.Add(1)
					br.onFailure()
					obs.L(ctx).Warn("peer payload failed verification", "peer", peer, "error", ierr.Error())
					outcome = "error"
				} else {
					br.onSuccess()
					f.peerHits.Add(1)
					span.SetAttr("outcome", "hit")
					span.End()
					return e, true
				}
			}
			break // 404 or bad payload: next peer
		}
		span.SetAttr("outcome", outcome)
		span.End()
	}
	f.peerMiss.Add(1)
	return nil, false
}

// fetch performs one bounded GET /v1/store/{address} against one peer:
// the caller's context with the configured per-attempt timeout layered
// on. The fleet.peer.* failpoints live here, on the client side of the
// exchange, so a chaos plan can stand in for a peer that is
// unreachable, answering 5xx, slow to stream, or truncating payloads —
// without needing a broken peer on the wire.
func (f *Store) fetch(ctx context.Context, peer, addr string) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(ctx, f.client.Timeout)
	defer cancel()
	if err := fault.PointCtx(ctx, "fleet.peer.dial"); err != nil {
		return nil, 0, err
	}
	if err := fault.PointCtx(ctx, "fleet.peer.status"); err != nil {
		// Synthetic upstream 5xx: exercises the same degradation path as
		// a peer answering 502.
		return nil, http.StatusBadGateway, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/store/"+addr, nil)
	if err != nil {
		return nil, 0, err
	}
	// Carry the originating request's trace across the node boundary so
	// the peer's spans and logs share its trace ID.
	obs.InjectTraceparent(ctx, req.Header)
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain a little so the connection can be reused, then report.
		io.CopyN(io.Discard, resp.Body, 1024)
		return nil, resp.StatusCode, nil
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxFillBytes))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if err := fault.PointCtx(ctx, "fleet.peer.body"); err != nil { // slow body
		return nil, resp.StatusCode, err
	}
	raw = fault.Mutate("fleet.peer.body", raw) // truncated payload
	return raw, resp.StatusCode, nil
}
