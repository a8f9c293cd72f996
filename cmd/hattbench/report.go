package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; a test holds the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a caller of hattd sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"server_cpu_ms_per_req", "ms", "lower"},
	{"server_peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"pauli_weight_sum", "weight", "lower"},
	{"routed_cnots_sum", "gates", "lower"},
}

// perLayer are the metrics a traced run reports: three per layer span,
// then the window's counters and ratios.
func perLayer() []metricDef {
	var out []metricDef
	for _, s := range layerSpans {
		out = append(out,
			metricDef{s + ".calls", "count", "lower"},
			metricDef{s + ".self_us_p50", "us", "lower"},
			metricDef{s + ".share", "ratio", "lower"})
	}
	return append(out,
		metricDef{"store.hit_ratio", "ratio", "higher"},
		metricDef{"store.puts", "count", "lower"},
		metricDef{"store.disk_writes", "count", "lower"},
		metricDef{"service.shed_429", "count", "lower"},
		metricDef{"input.unique_structure_share", "ratio", "higher"},
		metricDef{"wire.request_kb", "KB", "lower"},
		metricDef{"wire.response_kb", "KB", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}

// measurement is one measured value with the number of samples behind it
// (0 when it is not a statistic over samples).
type measurement struct {
	value   float64
	samples int
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line hattbench prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printMetrics writes one "workload metric value unit [n=samples]" line
// per definition that has a measurement.
func printMetrics(out io.Writer, workload string, defs []metricDef, got map[string]measurement) {
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s", workload, d.name, strconv.FormatFloat(m.value, 'g', -1, 64), d.unit)
		if m.samples > 0 {
			line += fmt.Sprintf(" n=%d", m.samples)
		}
		fmt.Fprintln(out, line)
	}
}

// resultLine renders the JSON result with the metrics in defs.
func resultLine(correct bool, attempted, failed int, defs []metricDef, got map[string]measurement) (string, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: m.value, Unit: d.unit}
	}
	raw, err := json.Marshal(r)
	return string(raw), err
}
