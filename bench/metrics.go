package main

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"time"
)

// metricDef names one metric. Bound applies to end-to-end metrics only:
// the share of the parent's median by which the metric may get worse
// before a change counts as a regression. BENCHMARK.json mirrors these
// definitions; a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the daemon sees, reported by every
// workload. Failed requests are not among them: they are counted apart
// (the result's "failed"), and each enters the latency sample as +Inf.
//
// The 99th percentile is reported with every run but carries no bound,
// so it is a per-layer metric of the client (client.lat_p99_ms): on a
// shared VM it follows the hypervisor's steal, from 1.2 ms with none to
// 10 ms at 45%, and steal holds its level for minutes, longer than any
// run the time cap allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.2},
	{"lat_p50_ms", "ms", "lower", 0.24},
	{"cpu_us_per_req", "us", "lower", 0.24},
	{"rss_mb", "MiB", "lower", 0.15},
}

// tracedLayers are the layers whose spans the traced run records; each
// reports calls, self-time p50 and p99, and its share of request time.
var tracedLayers = []string{
	"dag.decode", "dag.fingerprint", "service.lookup", "service.batch",
	"dag.reduce", "transform", "rta.bounds", "sched.simulate", "exact",
	"report.marshal", "store.append", "store.get",
	"taskset.decode", "taskset.fingerprint", "taskset.admit", "taskset.marshal",
}

// layerExtras are the per-layer metrics beyond the span statistics:
// counters from /statsz over the timed phase, generator-side waits, and
// the traced run's own counts.
var layerExtras = []metricDef{
	{"dagrtad.http.mean_us", "us", "lower", 0},
	{"dagrtad.http.share", "ratio", "lower", 0},
	{"service.lookup.hit_ratio", "ratio", "higher", 0},
	{"service.lookup.coalesced", "count", "higher", 0},
	{"service.executions", "count", "lower", 0},
	{"service.batch.dedup", "count", "higher", 0},
	{"exact.expansions_mean", "count", "lower", 0},
	{"exact.capped_frac", "ratio", "lower", 0},
	{"store.append.flush_ms", "ms", "lower", 0},
	{"store.append.dropped", "count", "lower", 0},
	{"store.get.warm_hits", "count", "higher", 0},
	{"store.get.hit_frac", "ratio", "higher", 0},
	{"store.get.evictions", "count", "lower", 0},
	{"store.open.ms", "ms", "lower", 0},
	{"service.warmstart.ms", "ms", "lower", 0},
	{"taskset.admit.eval_hit_ratio", "ratio", "higher", 0},
	{"taskset.admit.step_hit_ratio", "ratio", "higher", 0},
	{"client.lat_p99_ms", "ms", "lower", 0},
	{"client.lat_samples", "count", "higher", 0},
	{"client.wait_p99_ms", "ms", "lower", 0},
	{"client.lag_p99_ms", "ms", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
}

// perLayer lists every per-layer metric, in the order printed.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range tracedLayers {
		defs = append(defs,
			metricDef{l + ".calls", "count", "lower", 0},
			metricDef{l + ".p50_us", "us", "lower", 0},
			metricDef{l + ".p99_us", "us", "lower", 0},
			metricDef{l + ".share", "ratio", "lower", 0},
		)
	}
	return append(defs, layerExtras...)
}

// latencies returns the timed phase's latency sample in milliseconds, +Inf
// for a failure. A request is timed from its send, in both loops. Timing
// an open loop's requests from their release would count the wait a stall
// imposes on later requests, but on two shared vCPUs that wait is mostly
// the host's and the generator's: the pacer wakes about once a millisecond
// and releases a burst onto two connections, and the hypervisor stalls
// both processes at once. In the same runs, release-timed medians moved
// with steal about twice as far as send-timed ones. The wait is
// reported on its own, as client.wait_p99_ms, and a daemon that falls
// behind an open loop's rate shows in throughput_rps.
func latencies(rs []response) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		if r.failed {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = ms(r.end - r.send)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Window sizing: each window holds at least minWindowSamples completions,
// so that its p99 has minBeyond samples beyond it, and a phase has at most
// maxWindows windows.
const (
	minWindowSamples = 100 * minBeyond
	maxWindows       = 20
)

// phase is a timed phase as the generator saw it: the responses, the
// daemon's CPU time and the machine's speed sampled along it.
type phase struct {
	timed  []response
	start  time.Time
	wall   time.Duration
	cpu    []cpuSample
	speed  []speedSample
	closed bool
}

// phaseStats are a timed phase's numbers, each the median over the calm
// windows (see windowed), at reference speed (see probe.go).
type phaseStats struct {
	thr, p50, p99, cpu float64
	windows            int
	slow, steal        float64 // the phase's slowdown and share of vCPU time stolen
}

// windowed computes the timed phase's throughput, latency percentiles and
// daemon CPU per request in equal windows of the phase (by completion
// time) and returns the median of each over the calmer half of the
// windows.
//
// The hypervisor of a shared VM takes its vCPUs away in bursts: the share
// of vCPU time stolen ranged from under 1% to 45% between runs on one
// machine, and within a run from window to window. A window with heavy
// steal shows the host's load, not the daemon's speed, so only the half
// of the windows with the least steal count. An open loop's throughput is
// the offered rate whatever the machine's speed, so it is not scaled. A
// closed loop keeps the daemon busy, so its rate and latencies also
// scale with the vCPU time left to it: each window's are reported as if
// none had been stolen. The daemon's CPU time excludes stolen time and
// needs no such correction.
func windowed(ph phase) phaseStats {
	ok := 0
	for _, r := range ph.timed {
		if !r.failed {
			ok++
		}
	}
	windows := max(1, min(maxWindows, ok/minWindowSamples))
	width := ph.wall / time.Duration(windows)
	lat := make([][]float64, windows)
	done := make([]int, windows)
	all := latencies(ph.timed)
	for i, r := range ph.timed {
		w := min(windows-1, int(r.end/width))
		lat[w] = append(lat[w], all[i])
		if !r.failed {
			done[w]++
		}
	}
	type window struct{ thr, p50, p99, cpu, steal float64 }
	ws := make([]window, windows)
	for w := range ws {
		lo, hi := time.Duration(w)*width, time.Duration(w+1)*width
		s := sortedCopy(lat[w])
		v50, _ := percentile(s, 50)
		v99, _ := percentile(s, 99)
		ws[w] = window{
			thr:   float64(done[w]) / width.Seconds(),
			p50:   v50,
			p99:   v99,
			cpu:   (sampledAt(ph.cpu, hi, daemonCPU) - sampledAt(ph.cpu, lo, daemonCPU)) * 1e6 / float64(max(done[w], 1)),
			steal: (sampledAt(ph.cpu, hi, machineStole) - sampledAt(ph.cpu, lo, machineStole)) / (width.Seconds() * float64(runtime.NumCPU())),
		}
		if ph.closed {
			left := unstolen(ws[w].steal)
			ws[w].thr /= left
			ws[w].p50 *= left
			ws[w].p99 *= left
		}
	}
	first, last := ph.cpu[0], ph.cpu[len(ph.cpu)-1]
	st := phaseStats{windows: windows}
	st.steal = (last.steal - first.steal) / ((last.at - first.at).Seconds() * float64(runtime.NumCPU()))
	slices.SortStableFunc(ws, func(a, b window) int { return cmp.Compare(a.steal, b.steal) })
	calm := ws[:(windows+1)/2]
	pick := func(of func(window) float64) float64 {
		xs := make([]float64, len(calm))
		for i, w := range calm {
			xs[i] = of(w)
		}
		return median(xs)
	}
	// One factor for the whole phase: the probe runs beside a loaded
	// daemon, so its median over a window of a second is noisier than the
	// drift it would correct.
	st.slow = slowdown(ph.speed, ph.start, ph.start.Add(ph.wall))
	st.thr = pick(func(w window) float64 { return w.thr })
	if ph.closed {
		st.thr *= st.slow
	}
	st.p50 = pick(func(w window) float64 { return w.p50 }) / st.slow
	st.p99 = pick(func(w window) float64 { return w.p99 }) / st.slow
	st.cpu = pick(func(w window) float64 { return w.cpu }) / st.slow
	return st
}

// unstolen is the share of vCPU time the hypervisor left to the VM, given
// the share it stole; at least a tenth, so that a correction stays finite.
func unstolen(steal float64) float64 { return max(0.1, 1-steal) }

// p99Of returns the 99th percentile of xs in the unit of xs.
func p99Of(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 99)
	return v
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics assembles the per-layer metrics of a traced run.
// timed are the end-to-end responses, st their statistics, d0 and d1 the
// daemon's counters around the timed phase.
func layerMetrics(tr *traceOut, timed []response, st phaseStats, d0, d1 statsz) map[string]float64 {
	m := make(map[string]float64)
	layers, coverage, meanReqUS := analyzeSpans(tr.spans)
	for _, l := range tracedLayers {
		ls := layers[l]
		m[l+".calls"] = float64(ls.calls)
		m[l+".p50_us"] = ls.p50
		m[l+".p99_us"] = ls.p99
		m[l+".share"] = ls.share
	}
	var service, wait, lag []float64
	for _, r := range timed {
		wait = append(wait, ms(r.send-r.release))
		lag = append(lag, ms(r.release-r.due))
		if !r.failed {
			service = append(service, ms(r.end-r.send)*1e3)
		}
	}
	clientUS := mean(service)
	m["dagrtad.http.mean_us"] = clientUS - meanReqUS
	m["dagrtad.http.share"] = ratio(clientUS-meanReqUS, clientUS)

	delta := func(a, b uint64) float64 { return float64(b - a) }
	hits, misses := delta(d0.Hits, d1.Hits), delta(d0.Misses, d1.Misses)
	m["service.lookup.hit_ratio"] = ratio(hits, hits+misses)
	m["service.lookup.coalesced"] = delta(d0.Coalesced, d1.Coalesced)
	m["service.executions"] = delta(d0.Executions, d1.Executions)
	m["service.batch.dedup"] = float64(tr.dedup)
	m["exact.expansions_mean"] = ratio(float64(tr.expansions), float64(tr.solves))
	m["exact.capped_frac"] = ratio(float64(tr.capped), float64(tr.solves))
	m["store.append.flush_ms"] = tr.flushMS
	m["store.append.dropped"], m["store.get.warm_hits"], m["store.get.hit_frac"] = 0, 0, 0
	if d0.Store != nil && d1.Store != nil {
		m["store.append.dropped"] = delta(d0.Store.Dropped, d1.Store.Dropped)
		m["store.get.warm_hits"] = delta(d0.Store.WarmHits, d1.Store.WarmHits)
		m["store.get.hit_frac"] = ratio(m["store.get.warm_hits"], delta(d0.Requests, d1.Requests))
	}
	m["store.get.evictions"] = delta(d0.Evictions, d1.Evictions)
	m["store.open.ms"] = tr.openMS
	m["service.warmstart.ms"] = tr.warmMS
	eh, em := delta(d0.EvalHits, d1.EvalHits), delta(d0.EvalMisses, d1.EvalMisses)
	m["taskset.admit.eval_hit_ratio"] = ratio(eh, eh+em)
	sh, sm := delta(d0.StepHits, d1.StepHits), delta(d0.StepMisses, d1.StepMisses)
	m["taskset.admit.step_hit_ratio"] = ratio(sh, sh+sm)
	m["client.lat_p99_ms"] = st.p99
	m["client.lat_samples"] = float64(len(timed))
	m["client.wait_p99_ms"] = p99Of(wait)
	m["client.lag_p99_ms"] = p99Of(lag)
	m["trace.coverage"] = coverage
	return m
}
