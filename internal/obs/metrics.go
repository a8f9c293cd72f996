package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a metric family's type in the Prometheus sense.
type Kind string

// Metric family kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Sample is one labeled value produced by a func-backed family.
type Sample struct {
	Labels []string // one value per registered label name, in order
	Value  float64
}

// FamilyInfo describes one registered metric family — the unit the
// docs/observability.md inventory is held to by the docsync test.
type FamilyInfo struct {
	Name   string
	Kind   Kind
	Labels []string
	Help   string
}

// family is one registered metric family: either a histogram with live
// children or a collector function evaluated at gather time (the bridge
// to counters that already live elsewhere — store, fault, manager — so
// /metrics and /v1/stats read the same underlying state and cannot
// drift).
type family struct {
	info    FamilyInfo
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
	order    []string // child keys, first-seen order (sorted at render)

	collect func() []Sample // func-backed families; nil for histograms
}

// child is one label combination's histogram state.
type child struct {
	labels []string
	mu     sync.Mutex
	counts []uint64 // per-bucket counts (len(buckets)+1, last is +Inf)
	sum    float64
	count  uint64
}

// Registry holds metric families and renders them as Prometheus text.
// Families are registered once at wiring time (duplicate names panic —
// a programmer error, not a runtime condition) and scraped concurrently
// with updates.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	name := f.info.Name
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.families[name] = f
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Histogram registers a fixed-bucket histogram family. buckets are the
// inclusive upper bounds of each bucket, strictly increasing; a final
// +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	f := &family{
		info:     FamilyInfo{Name: name, Kind: KindHistogram, Labels: labels, Help: help},
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.register(f)
	return &Histogram{f: f}
}

// CounterFunc registers a counter family whose samples are produced by
// fn at gather time — the bridge for counters owned elsewhere (store
// hits, fault injections) so the one underlying
// atomic feeds /v1/stats and /metrics alike.
func (r *Registry) CounterFunc(name, help string, labels []string, fn func() []Sample) {
	r.register(&family{
		info:    FamilyInfo{Name: name, Kind: KindCounter, Labels: labels, Help: help},
		collect: fn,
	})
}

// GaugeFunc is CounterFunc for gauges.
func (r *Registry) GaugeFunc(name, help string, labels []string, fn func() []Sample) {
	r.register(&family{
		info:    FamilyInfo{Name: name, Kind: KindGauge, Labels: labels, Help: help},
		collect: fn,
	})
}

// Families lists every registered family, sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DefLatencyBuckets is the default latency histogram layout, in
// seconds: half a millisecond through ten seconds in a 1-2.5-5-ish
// progression, which brackets everything from a cache hit to a worst-
// case routed compile.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// child returns the histogram state for one label combination, creating
// it on first use. The lookup key is built in a stack buffer and the map
// is indexed with string(key), which Go does without copying, so
// observing an existing child allocates nothing.
func (f *family) child(labelValues []string) *child {
	if len(labelValues) != len(f.info.Labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.info.Name, len(f.info.Labels), len(labelValues)))
	}
	var buf [128]byte
	key := appendLabelKey(buf[:0], labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[string(key)]
	if !ok {
		c = &child{
			labels: append([]string(nil), labelValues...),
			counts: make([]uint64, len(f.buckets)+1),
		}
		k := string(key)
		f.children[k] = c
		f.order = append(f.order, k)
	}
	return c
}

// Histogram is a fixed-bucket distribution metric.
type Histogram struct{ f *family }

// Observe records one sample for one label combination.
func (h *Histogram) Observe(v float64, labelValues ...string) {
	ch := h.f.child(labelValues)
	i := bucketIndex(h.f.buckets, v)
	ch.mu.Lock()
	ch.counts[i]++
	ch.sum += v
	ch.count++
	ch.mu.Unlock()
}

// bucketIndex finds the first bucket whose upper bound holds v (the
// +Inf bucket is index len(buckets)). Buckets are few and fixed, so a
// linear scan beats a binary search's branch misses at this size.
func bucketIndex(buckets []float64, v float64) int {
	for i, ub := range buckets {
		if v <= ub {
			return i
		}
	}
	return len(buckets)
}

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, children sorted by
// label values, histograms expanded into _bucket/_sum/_count series.
// The output is deterministic for a fixed registry state.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.info.Name, escapeHelp(f.info.Help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.info.Name, f.info.Kind)
		if f.collect != nil {
			samples := f.collect()
			sort.Slice(samples, func(i, j int) bool {
				return labelKey(samples[i].Labels) < labelKey(samples[j].Labels)
			})
			for _, s := range samples {
				writeSample(&b, f.info.Name, f.info.Labels, s.Labels, "", "", s.Value)
			}
		} else {
			f.writeChildren(&b)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeChildren(b *strings.Builder) {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	for _, ch := range children {
		ch.mu.Lock()
		var cum uint64
		for i, n := range ch.counts {
			cum += n
			le := "+Inf"
			if i < len(f.buckets) {
				le = formatFloat(f.buckets[i])
			}
			writeSample(b, f.info.Name+"_bucket", f.info.Labels, ch.labels, "le", le, float64(cum))
		}
		writeSample(b, f.info.Name+"_sum", f.info.Labels, ch.labels, "", "", ch.sum)
		writeSample(b, f.info.Name+"_count", f.info.Labels, ch.labels, "", "", float64(ch.count))
		ch.mu.Unlock()
	}
}

// writeSample renders one series line, with an optional extra label
// (the histogram "le").
func writeSample(b *strings.Builder, name string, labelNames, labelValues []string, extraName, extraValue string, v float64) {
	b.WriteString(name)
	if len(labelNames) > 0 || extraName != "" {
		b.WriteByte('{')
		for i, ln := range labelNames {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ln)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labelValues[i]))
			b.WriteByte('"')
		}
		if extraName != "" {
			if len(labelNames) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraName)
			b.WriteString(`="`)
			b.WriteString(extraValue)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// appendLabelKey appends the key of one label combination, its values
// joined by NUL, to dst.
func appendLabelKey(dst []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = append(dst, v...)
	}
	return dst
}

func labelKey(values []string) string { return string(appendLabelKey(nil, values)) }

// Handler serves the registry as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
