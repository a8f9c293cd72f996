package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank percentile of an ascending-sorted slice:
// the smallest sample such that at least p% of the samples are ≤ it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// median is the nearest-rank 50th percentile of an unsorted slice, which
// it leaves untouched.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// periodLen is the length of the periods a window is cut into.
const periodLen = time.Second

// stealLimit is the largest stolen share at which a period always counts;
// see keptPeriods.
const stealLimit = 0.02

// period is one stretch of measured time: a part of a window, about
// periodLen long, or one set-up.
type period struct {
	dur         time.Duration
	busy, steal uint64    // host CPU jiffies over the period, as hostCPU counts them
	cpu         float64   // daemon CPU seconds over the period
	latencies   []float64 // ms, requests that completed in the period and passed every check
}

// stolen is the share of the CPU time the machine asked for during the
// period that the hypervisor gave to other machines instead.
func (p *period) stolen() float64 {
	if p.busy+p.steal == 0 {
		return 0
	}
	return float64(p.steal) / float64(p.busy+p.steal)
}

// keptPeriods returns the periods the timings are taken over: every
// period in which at most stealLimit of the CPU time was stolen,
// and never fewer than the least-stolen fifth. A stolen CPU slows every
// request the same way a slower program would, so a period the host took
// from the machine measures the host, not the program; which periods
// count is decided by the hypervisor's accounting alone, never by how
// fast the program ran in them. On a 2-vCPU VM, periods with up to 3%
// stolen served within 6% of the throughput of unstolen ones, and periods
// with 20–40% stolen served 1.5–1.9× less.
func keptPeriods(all []period) []period {
	s := append([]period(nil), all...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].stolen() < s[j].stolen() })
	k := (len(s) + 4) / 5
	for k < len(s) && s[k].stolen() <= stealLimit {
		k++
	}
	return s[:k]
}

// merge adds periods up into one, with its latencies in ascending order.
func merge(ps []period) period {
	var out period
	for _, p := range ps {
		out.dur += p.dur
		out.busy += p.busy
		out.steal += p.steal
		out.cpu += p.cpu
		out.latencies = append(out.latencies, p.latencies...)
	}
	sort.Float64s(out.latencies)
	return out
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the length of span minus the part of it covered by the
// union of children, each clipped to span. Children may overlap each
// other (parallel work under one parent); the overlap counts once.
func selfTime(span interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, span.start), min(c.end, span.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, reach int64
	reach = span.start
	for _, c := range clipped {
		if c.end <= reach {
			continue
		}
		covered += c.end - max(c.start, reach)
		reach = c.end
	}
	return span.end - span.start - covered
}
