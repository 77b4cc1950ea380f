// Command servebench is the serving benchmark of the dagrtad daemon: four
// seeded workloads against a non-race daemon, measured end to end from
// outside, plus a separate in-process traced replay that splits request
// time by layer. See README.md for the workloads, the metrics and how to
// read them.
//
// Usage (from the repository root; run.sh builds, then passes flags on):
//
//	bash bench/run.sh [-workload all|NAME] [-seed 1] [-seconds 20] [-trace 1] [-repeat N] [-out FILE]
//	bash bench/run.sh -compare OLD.json NEW.json
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}, holding
// the end-to-end metrics with -trace 0 and the per-layer ones with
// -trace 1. A run that receives a wrong response byte exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() {
	// The generator allocates a response body per request and holds the
	// whole plan; collecting a quarter as often keeps its pauses off the
	// pacer (store-spill's pacer lag p99 went from 2.1 to 1.5 ms) for a
	// heap of about 150 MB. The daemon keeps the default.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// Each run starts its daemon at least minSetups times, and keeps starting
// it until the setups span setupShare of the timed phase's length; setup_s
// is their median, and the last daemon serves the timed phase. A cheap
// setup (20 to 70 ms) repeated only nine times spans under a second, and
// the machine's speed over so short a span, which setup_s is corrected by,
// is noisy: with 3 s of setups instead, analyze-hit's setup_s at one seed
// spread ±8% over six runs rather than ±13%.
const (
	minSetups  = 9
	setupShare = 0.15
)

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all: "+workloadNames())
		seed    = fs.Int64("seed", 1, "seed every request of the plan derives from")
		seconds = fs.Float64("seconds", defaultSeconds, "length of each timed phase in seconds")
		trace   = fs.Int("trace", 1, "1: after the end-to-end run, replay the plan in-process with per-layer spans; 0: end to end only")
		repeat  = fs.Int("repeat", 1, "runs per workload; with more than one, print each metric's median and IQR")
		out     = fs.String("out", "", "write the result file (config record, every run, summaries) here")
		compare = fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "servebench: -compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 2
		}
		return 0
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "servebench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "servebench: -seconds must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}

	e, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	defer os.RemoveAll(e.tmp)
	res := &resultFile{Schema: resultSchema, Config: e.config(selected), Seed: *seed, Seconds: *seconds}
	fmt.Fprintf(stdout, "daemon %s %s/%s race=%t cgo=%s commit=%s; nproc %d, GOMAXPROCS bench %d daemon %d; %s\n",
		res.Config.Daemon.GoVersion, res.Config.Daemon.GOOS, res.Config.Daemon.GOARCH, res.Config.Daemon.Race,
		res.Config.Daemon.CGO, res.Config.Daemon.Commit, res.Config.NProc, res.Config.GOMAXPROCSBench,
		res.Config.GOMAXPROCSDaemon, res.Config.CPUModel)

	correct := true
	for _, w := range selected {
		wr := workloadResult{Name: w.name}
		for k := range *repeat {
			fmt.Fprintf(stdout, "\n== %s seed %d run %d/%d\n", w.name, *seed, k+1, *repeat)
			r, err := e.runWorkload(ctx, w, *seed, *seconds, *trace == 1)
			if err != nil {
				fmt.Fprintf(stderr, "servebench: %s: %v\n", w.name, err)
				return 1
			}
			printRun(stdout, r)
			correct = correct && r.Correct
			wr.Runs = append(wr.Runs, *r)
		}
		wr.summarize()
		if *repeat > 1 {
			printSummary(stdout, &wr)
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 1
		}
	}
	if len(res.Workloads) == 1 {
		if err := printResultLine(stdout, &res.Workloads[0], *trace == 1); err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 1
		}
	}
	if !correct {
		fmt.Fprintln(stderr, "servebench: the daemon returned wrong bytes (see above)")
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// env is what every run shares: the daemon binary and its build record.
type env struct {
	tmp   string
	bin   string
	build daemonBuild
	conns int
	spans string // directory the traced runs write their spans to
}

func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "servebench-")
	if err != nil {
		return nil, err
	}
	e := &env{
		tmp:   tmp,
		bin:   filepath.Join(tmp, "dagrtad"),
		conns: runtime.NumCPU(),
		spans: filepath.Join(root, ".bench_build", "spans"),
	}
	if e.build, err = buildDaemon(ctx, root, e.bin); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	return e, nil
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Error     string             `json:"error,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	ErrFrac   float64            `json:"err_frac"`
	Samples   int                `json:"lat_samples"`
	P99Beyond int                `json:"lat_p99_beyond"`
	LatP99    float64            `json:"lat_p99_ms"` // see endToEnd
	Windows   int                `json:"windows"`
	Slowdown  float64            `json:"slowdown"` // the machine's, see probe.go
	Steal     float64            `json:"steal"`    // share of vCPU time the hypervisor took
	WallS     float64            `json:"timed_wall_s"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
}

// runWorkload runs w once: plan, optional prepare, the setups, the timed
// phase, the oracle, and with traced the in-process replay.
func (e *env) runWorkload(ctx context.Context, w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	p, err := w.plan(w.cfg, seed, w.requests(seconds))
	if err != nil {
		return nil, fmt.Errorf("generating the plan: %w", err)
	}
	dir, err := os.MkdirTemp(e.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storePath := filepath.Join(dir, "store.log")
	args := w.cfg.args(storePath)
	client := newClient(e.conns)
	defer client.CloseIdleConnections()

	var prepare []response
	liveKeys := 0
	if len(p.prepare) > 0 {
		if prepare, liveKeys, err = e.prepare(ctx, args, p.prepare); err != nil {
			return nil, err
		}
	}

	// Each setup starts a daemon on the same flags (with a fresh log when
	// the log is not prepared) and sends the preload; the last one stays
	// up for the timed phase.
	stopProbe := startProbe()
	defer stopProbe()
	var d *daemon
	var preload []response
	var setup []float64
	var stolen, busy float64 // vCPU seconds stolen during the setups, and spanned by them
	setupSpan := time.Duration(setupShare * seconds * float64(time.Second))
	setupFrom := time.Now()
	for len(setup) < minSetups || time.Since(setupFrom) < setupSpan {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			client.CloseIdleConnections()
		}
		if w.cfg.store && len(p.prepare) == 0 {
			if err := os.Remove(storePath); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
		}
		s0, err := machineSteal()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if d, err = startDaemon(ctx, client, e.bin, args); err != nil {
			return nil, err
		}
		preload, _ = closedLoop(ctx, client, d.base, p.preload, e.conns, t0, 0)
		took := time.Since(t0).Seconds()
		s1, err := machineSteal()
		if err != nil {
			return nil, err
		}
		setup = append(setup, took)
		stolen += s1 - s0
		busy += took * float64(runtime.NumCPU())
	}
	setupTo := time.Now()
	defer d.kill()

	d0, err := d.stats(ctx, client)
	if err != nil {
		return nil, err
	}
	if liveKeys > 0 && (d0.Store == nil || d0.Store.LiveKeys != liveKeys || d0.Store.RecordsLoaded != uint64(liveKeys)) {
		return nil, fmt.Errorf("restart on the prepared log: store stats %+v, want %d live keys", d0.Store, liveKeys)
	}
	start := time.Now()
	stopCPU := sampleCPU(d.pid(), start, 100*time.Millisecond)
	var timed []response
	var wall time.Duration
	if w.rate > 0 {
		timed, wall = openLoop(ctx, client, d.base, p.timed, w.rate, e.conns, start)
	} else {
		// One client waiting for each answer. With two, both vCPUs run a
		// request each beside the generator, so any stolen vCPU time
		// stalls a request: medians then moved 2.5 times as far as the
		// share stolen, against barely at all with one.
		timed, wall = closedLoop(ctx, client, d.base, p.timed, 1, start, time.Duration(seconds*float64(time.Second)))
		p.timed = p.timed[:len(timed)]
	}
	cpu, err := stopCPU()
	if err != nil {
		return nil, err
	}
	speed := stopProbe()
	rss, err := procHWM(d.pid())
	if err != nil {
		return nil, err
	}
	d1, err := d.stats(ctx, client)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	r := &runResult{Workload: w.name, Seed: seed, Correct: true, Attempted: len(timed), WallS: wall.Seconds()}
	if err := p.verify(prepare, preload, timed); err != nil {
		r.Correct, r.Error = false, err.Error()
	}
	for _, t := range timed {
		if t.failed {
			r.Failed++
		}
	}
	r.ErrFrac = ratio(float64(r.Failed), float64(r.Attempted))
	lat := sortedCopy(latencies(timed))
	r.Samples = len(lat)
	_, r.P99Beyond = percentile(lat, 99)
	st := windowed(phase{timed, start, wall, cpu, speed, w.rate == 0})
	r.Windows, r.Slowdown, r.Steal, r.LatP99 = st.windows, st.slow, st.steal, st.p99
	r.EndToEnd = map[string]float64{
		// Setting up is CPU-bound (process start, warm start, preload), so
		// like a closed loop it is reported as if no vCPU time was stolen.
		"setup_s":        median(setup) * unstolen(ratio(stolen, busy)) / slowdown(speed, setupFrom, setupTo),
		"throughput_rps": st.thr,
		"lat_p50_ms":     st.p50,
		"cpu_us_per_req": st.cpu,
		"rss_mb":         rss,
	}
	if !traced {
		return r, nil
	}
	tr, err := traceRun(ctx, w, p, storePath)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	r.Layers = layerMetrics(tr, timed, st, d0, d1)
	spans := filepath.Join(e.spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(spans, tr.spans); err != nil {
		return nil, err
	}
	return r, nil
}

// prepare analyzes reqs on a daemon of its own over the run's store log,
// checks that nothing was dropped on the way to disk, and returns the
// responses and the number of distinct graphs (the log's live keys).
func (e *env) prepare(ctx context.Context, args []string, reqs []request) ([]response, int, error) {
	hc := newClient(e.conns)
	defer hc.CloseIdleConnections()
	d, err := startDaemon(ctx, hc, e.bin, args)
	if err != nil {
		return nil, 0, err
	}
	defer d.kill()
	rs, _ := closedLoop(ctx, hc, d.base, reqs, e.conns, time.Now(), 0)
	st, err := d.stats(ctx, hc)
	if err != nil {
		return nil, 0, err
	}
	if err := d.stop(); err != nil {
		return nil, 0, err
	}
	if st.Store == nil || st.Store.Dropped != 0 || st.Failures != 0 {
		return nil, 0, fmt.Errorf("prepare: store stats %+v, %d failures; want no drops or failures", st.Store, st.Failures)
	}
	fps := make(map[string]bool)
	for _, r := range rs {
		fps[r.fp] = true
	}
	return rs, len(fps), nil
}

func printRun(w io.Writer, r *runResult) {
	verdict := "correct"
	if !r.Correct {
		verdict = "WRONG BYTES: " + r.Error
	}
	fmt.Fprintf(w, "%d requests in %.2fs, %d failed (err_frac %.4g), %d latency samples (%d beyond p99, p99 %.4g ms) in %d windows, machine slowdown %.3g, steal %.3g; %s\n",
		r.Attempted, r.WallS, r.Failed, r.ErrFrac, r.Samples, r.P99Beyond, r.LatP99, r.Windows, r.Slowdown, r.Steal, verdict)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.Name, r.EndToEnd[m.Name], m.Unit)
	}
	if r.Layers == nil {
		return
	}
	fmt.Fprintln(w, "  per layer (traced in-process replay):")
	for _, m := range perLayer() {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.Name, r.Layers[m.Name], m.Unit)
	}
}

// printResultLine prints the machine-readable last line: the workload's
// end-to-end metrics (per-layer with traced), medians over its runs.
func printResultLine(w io.Writer, wr *workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, pick := endToEnd, func(r runResult) map[string]float64 { return r.EndToEnd }
	if traced {
		defs, pick = perLayer(), func(r runResult) map[string]float64 { return r.Layers }
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, r := range wr.Runs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	for _, m := range defs {
		var xs []float64
		for _, r := range wr.Runs {
			xs = append(xs, pick(r)[m.Name])
		}
		line.Metrics[m.Name] = value{median(xs), m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
