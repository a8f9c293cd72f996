package service

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// routeRE matches anything in the docs that looks like a route spec:
// an HTTP method followed by a /v1 path. The reverse direction of the
// sync check — the docs may not name a route that isn't registered.
var routeRE = regexp.MustCompile(`(GET|POST|PUT|DELETE|PATCH) /v1/[A-Za-z0-9/{}_.-]*`)

// TestDocsMatchRoutes holds docs/api.md to the daemon's registered
// route table in both directions: every registered route pattern must
// appear literally in the docs, and every route-shaped string in the
// docs must be a registered pattern. Renaming, adding, or removing an
// endpoint without updating the reference fails the build.
func TestDocsMatchRoutes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "api.md"))
	if err != nil {
		t.Fatalf("docs/api.md unreadable: %v", err)
	}
	docs := string(raw)

	registered := make(map[string]bool)
	for _, pattern := range Routes() {
		registered[pattern] = true
		if !strings.Contains(docs, pattern) {
			t.Errorf("registered route %q is not documented in docs/api.md", pattern)
		}
	}

	for _, m := range routeRE.FindAllString(docs, -1) {
		if !registered[m] {
			t.Errorf("docs/api.md documents %q, which is not a registered route", m)
		}
	}
}

// TestRoutesAreWellFormed pins the shape doc tooling relies on: every
// pattern is "METHOD /v1/..." with no duplicates.
func TestRoutesAreWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, pattern := range Routes() {
		if seen[pattern] {
			t.Errorf("duplicate route pattern %q", pattern)
		}
		seen[pattern] = true
		if !routeRE.MatchString(pattern) {
			t.Errorf("route %q does not match the documented METHOD /v1/path shape", pattern)
		}
	}
	if len(seen) == 0 {
		t.Fatal("Routes() returned nothing")
	}
}

// metricRE matches anything in the docs that looks like a metric name.
// Histogram series suffixes are normalized away before comparison.
var metricRE = regexp.MustCompile(`hatt_[a-z][a-z0-9_]*`)

// TestDocsMatchMetrics holds docs/observability.md's metric inventory
// to the registry in both directions, the same way TestDocsMatchRoutes
// holds docs/api.md to the route table: every family a fully-wired API
// registers must be documented, and every metric-shaped name in the
// docs must resolve to a registered family (allowing the standard
// _bucket/_sum/_count histogram series suffixes).
func TestDocsMatchMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "observability.md"))
	if err != nil {
		t.Fatalf("docs/observability.md unreadable: %v", err)
	}
	docs := string(raw)

	// An API over a manager and a store registers the full inventory
	// (store and jobs families included).
	st, err := store.Open(4, "")
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(Config{Workers: 1, QueueDepth: 1, Store: st})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	api := NewAPI(mgr, st)

	registered := make(map[string]bool)
	for _, fam := range api.Registry().Families() {
		registered[fam.Name] = true
		if !strings.Contains(docs, fam.Name) {
			t.Errorf("registered metric %q is not documented in docs/observability.md", fam.Name)
		}
	}
	if len(registered) == 0 {
		t.Fatal("Families() returned nothing")
	}

	for _, m := range metricRE.FindAllString(docs, -1) {
		base := m
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if s, ok := strings.CutSuffix(m, suffix); ok && registered[s] {
				base = s
				break
			}
		}
		if !registered[base] {
			t.Errorf("docs/observability.md names %q, which is not a registered metric", m)
		}
	}
}
