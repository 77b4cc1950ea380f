package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"

	hetrta "repro"
	"repro/internal/service"
	"repro/internal/taskset"
)

// Every workload runs the daemon on the paper's evaluation midpoint with
// all three safe bounds and the breadth-first simulation.
const (
	platformSpec = "4+1"
	boundsSpec   = "rhom,rhet,typed-rhom"
)

// daemonConfig is one workload's daemon configuration. The daemon's flags
// and the in-process service of the traced run both derive from it, so
// the two cannot drift apart.
type daemonConfig struct {
	exact   bool
	budget  int64 // exact-search expansion budget; searches run serially
	breaker int   // -breaker-threshold; 0 keeps the daemon default
	cache   int   // -cache entries; 0 keeps the daemon default
	store   bool  // -store <file in the run directory>
}

func (c daemonConfig) args(storePath string) []string {
	a := []string{"-platform", platformSpec, "-bounds", boundsSpec, "-sim"}
	if c.exact {
		a = append(a, "-exact", "-exact-parallel", "1", "-budget", strconv.FormatInt(c.budget, 10))
	}
	if c.breaker > 0 {
		a = append(a, "-breaker-threshold", strconv.Itoa(c.breaker))
	}
	if c.cache > 0 {
		a = append(a, "-cache", strconv.Itoa(c.cache))
	}
	if c.store {
		a = append(a, "-store", storePath)
	}
	return a
}

func bounds() []hetrta.Bound {
	return []hetrta.Bound{hetrta.RhomBound(), hetrta.RhetBound(), hetrta.TypedRhomBound()}
}

// exactOptions are the exact-oracle options the daemon derives from
// -exact-parallel 1 -budget N.
func (c daemonConfig) exactOptions() hetrta.ExactOptions {
	return hetrta.ExactOptions{MaxExpansions: c.budget, Parallelism: 1}
}

// analyzer builds the Analyzer the daemon builds from args; extra options
// come last.
func (c daemonConfig) analyzer(extra ...hetrta.Option) (*hetrta.Analyzer, error) {
	plat, err := hetrta.ParsePlatform(platformSpec)
	if err != nil {
		return nil, err
	}
	opts := []hetrta.Option{hetrta.WithPlatform(plat), hetrta.WithBounds(bounds()...), hetrta.WithPolicy(hetrta.BreadthFirst)}
	if c.exact {
		opts = append(opts, hetrta.WithExactOptions(c.exactOptions()), hetrta.WithDegradation(hetrta.DegradeOptions{}))
	}
	return hetrta.NewAnalyzer(append(opts, extra...)...)
}

// service wraps an in c's serving layer, as the daemon does (the
// overload-protection layer is always on there).
func (c daemonConfig) service(an *hetrta.Analyzer) (*service.Service, error) {
	opts := service.Options{CacheEntries: c.cache, Resilience: &service.ResilienceOptions{}}
	opts.Resilience.Breaker.FailureThreshold = c.breaker
	return service.New(an, opts)
}

// workload is one traffic mix: the daemon configuration, how traffic is
// offered, and how its plan is generated from a seed.
type workload struct {
	name string
	why  string
	cfg  daemonConfig
	// rate is the open-loop offered rate in requests per second; 0 makes
	// the workload a closed loop, each connection waiting for its reply.
	rate float64
	// plan generates n timed requests and everything sent before them.
	plan func(cfg daemonConfig, seed int64, n int) (*plan, error)
}

// requests is how many timed requests a phase of the given length sends:
// the open loop's rate times its length, or for the closed loop a plan
// longer than the phase, whose time limit ends it.
func (w workload) requests(seconds float64) int {
	rate := w.rate
	if rate == 0 {
		rate = missPerSecond
	}
	return max(1, int(rate*seconds))
}

// plan is everything a workload sends, generated from the seed before the
// daemon starts, plus the oracle that checks what came back.
type plan struct {
	// prepare is analyzed once by a separate daemon that shares the run's
	// store log, before any setup; it is neither timed nor part of
	// setup_s.
	prepare []request
	// preload is sent after every setup's /readyz answers; it counts
	// toward setup_s.
	preload []request
	timed   []request
	// verify checks every successful response of the run; a wrong byte is
	// an error, a failed request is not (it is counted as failed).
	verify func(prepare, preload, timed []response) error
}

// digest hashes every request of the plan, in order.
func (p *plan) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, part := range [][]request{p.prepare, p.preload, p.timed} {
		fmt.Fprintf(h, "%d\n", len(part))
		for _, r := range part {
			fmt.Fprintf(h, "%s %d\n", r.path, len(r.body))
			h.Write(r.body)
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// workloads lists the benchmark's traffic mixes; README.md gives the
// reasons behind each in full.
//
// The open-loop rates keep the daemon and the load generator together
// at about a third of two vCPUs. The generator costs about as much CPU per
// request as the daemon (160 µs on a hit, 390 µs on an admission), and the
// hypervisor of a shared VM takes up to 45% of the vCPUs' time for minutes
// at a time; at higher rates the pair then falls behind the schedule and
// the run measures a growing backlog.
var workloads = []workload{
	{
		name: "analyze-hit",
		why:  "cache-hit path: 256 resident graphs, 70% byte-identical repeats, 30% isomorphic relabelings, open loop 1500 req/s",
		cfg:  daemonConfig{},
		rate: 1500,
		plan: planAnalyzeHit,
	},
	{
		name: "analyze-miss",
		why:  "compute path: every graph new (transform, bounds, sim, exact oracle, store append), 1 in 5 a batch of 8, closed loop",
		// The 10k budget caps about 7% of searches at ~10 ms each; larger
		// budgets let the few capped graphs a seed happens to draw decide
		// the run's cost. The breaker would open by chance on five capped
		// searches in a row, turning full reports into bounds-only ones.
		cfg:  daemonConfig{exact: true, budget: 10_000, breaker: 1_000_000, store: true},
		plan: planAnalyzeMiss,
	},
	{
		name: "admit-churn",
		why:  "taskset layer: delta arrivals and departures against four resident 32-task sets plus relabeled full re-admits, open loop 400 req/s",
		cfg:  daemonConfig{},
		rate: 400,
		plan: planAdmitChurn,
	},
	{
		name: "store-spill",
		why:  "disk tier: 16384 graphs uniformly over an LRU of 2048, so most hits come from the store log; also restart cost, open loop 1000 req/s",
		cfg:  daemonConfig{cache: 2048, store: true},
		rate: 1000,
		plan: planStoreSpill,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Paths of the daemon's endpoints.
const (
	pathAnalyze = "/v1/analyze"
	pathBatch   = "/v1/analyze/batch"
	pathAdmit   = "/v1/admit"
	pathDelta   = "/v1/admit/delta"
)

// graphGen generates heterogeneous task graphs as wire bytes.
type graphGen struct {
	gen  *hetrta.Generator
	cOff float64
}

func newGraphGen(seed int64, nMin, nMax int, cOff float64) (*graphGen, error) {
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(nMin, nMax), seed)
	if err != nil {
		return nil, err
	}
	return &graphGen{gen: gen, cOff: cOff}, nil
}

func (g *graphGen) next() ([]byte, error) {
	dg, _, _, err := g.gen.HetTask(g.cOff)
	if err != nil {
		return nil, err
	}
	return json.Marshal(dg)
}

// wireGraph mirrors the graph JSON schema structurally; nodes stay raw so
// a relabeling cannot drift from the real node schema.
type wireGraph struct {
	Nodes []json.RawMessage `json:"nodes"`
	Edges [][2]int          `json:"edges"`
}

// permuteGraph re-serializes a graph with its nodes shuffled and edge
// endpoints remapped: different bytes, the same graph up to isomorphism,
// hence the same canonical fingerprint.
func permuteGraph(r *rand.Rand, data []byte) ([]byte, error) {
	var wg wireGraph
	if err := json.Unmarshal(data, &wg); err != nil {
		return nil, fmt.Errorf("permute: %w", err)
	}
	perm := r.Perm(len(wg.Nodes)) // perm[old] = new position
	nodes := make([]json.RawMessage, len(wg.Nodes))
	for old, pos := range perm {
		nodes[pos] = wg.Nodes[old]
	}
	edges := make([][2]int, len(wg.Edges))
	for i, e := range wg.Edges {
		edges[i] = [2]int{perm[e[0]], perm[e[1]]}
	}
	return json.Marshal(wireGraph{Nodes: nodes, Edges: edges})
}

// mix returns request kinds in shuffled blocks holding exactly counts[k]
// of kind k, so that every seed's plan has the same proportions.
func mix(r *rand.Rand, counts ...int) func() int {
	var block []int
	for k, c := range counts {
		for range c {
			block = append(block, k)
		}
	}
	next := len(block)
	return func() int {
		if next == len(block) {
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			next = 0
		}
		next++
		return block[next-1]
	}
}

// decodeGraph decodes wire bytes the way the daemon does.
func decodeGraph(data []byte) (*hetrta.Graph, error) {
	g := hetrta.NewGraph()
	if err := json.Unmarshal(data, g); err != nil {
		return nil, err
	}
	return g, nil
}

// analyzeBytes is the reference for one /v1/analyze body: a fresh
// in-process analysis, marshaled as the daemon marshals it.
func analyzeBytes(an *hetrta.Analyzer, graph []byte) ([]byte, error) {
	g, err := decodeGraph(graph)
	if err != nil {
		return nil, err
	}
	rep, err := an.Analyze(context.Background(), g)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// mismatch reports wrong response bytes.
func mismatch(what string, i int, got, want []byte) error {
	return fmt.Errorf("wrong response for %s %d:\n got  %.200s\n want %.200s", what, i, got, want)
}

// planAnalyzeHit: a hot set of 256 graphs is analyzed during setup; timed
// traffic picks hot graphs Zipf-skewed and sends 70% of them byte-identical
// and 30% as fresh isomorphic relabelings.
func planAnalyzeHit(cfg daemonConfig, seed int64, n int) (*plan, error) {
	const hotN = 256
	r := rand.New(rand.NewSource(seed))
	gg, err := newGraphGen(r.Int63(), 8, 24, 0.15)
	if err != nil {
		return nil, err
	}
	p := &plan{}
	hot := make([][]byte, hotN)
	for k := range hot {
		if hot[k], err = gg.next(); err != nil {
			return nil, err
		}
		p.preload = append(p.preload, request{pathAnalyze, hot[k]})
	}
	// Zipf rank k goes to the k-th graph closest in size to the hot set's
	// median: the few hottest graphs carry a fifth of the traffic, and
	// were their sizes left to the seed, so would be the cost of a request.
	byRank := make([]int, hotN)
	for k := range byRank {
		byRank[k] = k
	}
	sizes := make([]int, hotN)
	for k, b := range hot {
		sizes[k] = len(b)
	}
	slices.Sort(sizes)
	med := sizes[hotN/2]
	dist := func(k int) int { return max(len(hot[k])-med, med-len(hot[k])) }
	slices.SortStableFunc(byRank, func(a, b int) int { return dist(a) - dist(b) })

	ref := make([]int, n) // hot graph each request shows
	relabeled := make([]bool, n)
	zipf := rand.NewZipf(r, 1.1, 1, hotN-1)
	kind := mix(r, 7, 3)
	for i := range n {
		k := byRank[zipf.Uint64()]
		ref[i] = k
		body := hot[k]
		if kind() == 1 {
			relabeled[i] = true
			if body, err = permuteGraph(r, hot[k]); err != nil {
				return nil, err
			}
		}
		p.timed = append(p.timed, request{pathAnalyze, body})
	}
	p.verify = func(_, preload, timed []response) error {
		an, err := cfg.analyzer()
		if err != nil {
			return err
		}
		want := make([]*invariantReport, hotN)
		for k, rs := range preload {
			if rs.failed {
				return fmt.Errorf("preload %d failed with status %d", k, rs.status)
			}
			body, err := analyzeBytes(an, hot[k])
			if err != nil {
				return err
			}
			if !bytes.Equal(rs.body, body) {
				return mismatch("preload graph", k, rs.body, body)
			}
			if want[k], err = invariantOf(body); err != nil {
				return err
			}
		}
		for i, rs := range timed {
			k := ref[i]
			switch {
			case rs.failed:
			case !relabeled[i]:
				if !bytes.Equal(rs.body, preload[k].body) {
					return mismatch("repeat", i, rs.body, preload[k].body)
				}
			case rs.fp != preload[k].fp:
				return fmt.Errorf("relabeling %d: X-Fingerprint %s, want %s", i, rs.fp, preload[k].fp)
			default:
				got, err := invariantOf(rs.body)
				if err != nil {
					return fmt.Errorf("relabeling %d: %w", i, err)
				}
				if !reflect.DeepEqual(got, want[k]) {
					return mismatch("relabeling", i, rs.body, preload[k].body)
				}
			}
		}
		return nil
	}
	return p, nil
}

// invariantReport is the part of a Report that no relabeling of the input
// graph can change: graph counts, bounds and simulated makespans.
type invariantReport struct {
	Graph struct {
		Nodes        int   `json:"nodes"`
		Edges        int   `json:"edges"`
		ReducedEdges int   `json:"reducedEdges"`
		Volume       int64 `json:"volume"`
		CriticalPath int64 `json:"criticalPath"`
		Offloads     int   `json:"offloads"`
	} `json:"graph"`
	Bounds     []hetrta.BoundResult     `json:"bounds"`
	Simulation *hetrta.SimulationReport `json:"simulation"`
}

func invariantOf(body []byte) (*invariantReport, error) {
	var inv invariantReport
	if err := json.Unmarshal(body, &inv); err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	return &inv, nil
}

// planAnalyzeMiss: every request carries graphs never seen before. Four in
// five are single analyses; one in five is a batch of 8: six new graphs,
// one in-batch duplicate of them and one repeat of a recently sent graph.
// Setup ends with a warm-up of fresh graphs, so that setup_s times the
// compute path's start: process start alone takes about 5 ms, and on a
// shared VM its median moved by 40% between runs minutes apart. The
// warm-up is the same for every seed: a few budget-capped searches more
// or less would move its cost by a fifth.
func planAnalyzeMiss(cfg daemonConfig, seed int64, n int) (*plan, error) {
	// Repeats draw from the most recent graphs so they are still resident
	// in the daemon's memory tier: an evicted budget-capped report is
	// answered by the bounds-only hard-instance route, other bytes.
	const (
		recent = 64
		warmup = 64
	)
	var graphs [][]byte
	p := &plan{}
	warm := make([][]int, warmup) // graph index of each warm-up request
	wg, err := newGraphGen(0, 8, 24, 0.15)
	if err != nil {
		return nil, err
	}
	for i := range warm {
		b, err := wg.next()
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, b)
		warm[i] = []int{i}
		p.preload = append(p.preload, request{pathAnalyze, b})
	}
	r := rand.New(rand.NewSource(seed))
	gg, err := newGraphGen(r.Int63(), 8, 24, 0.15)
	if err != nil {
		return nil, err
	}
	newGraph := func() (int, error) {
		b, err := gg.next()
		if err != nil {
			return 0, err
		}
		graphs = append(graphs, b)
		return len(graphs) - 1, nil
	}
	items := make([][]int, n) // graph indexes of each timed request's items
	kind := mix(r, 4, 1)
	for i := range n {
		if kind() == 0 || len(graphs) == 0 {
			gi, err := newGraph()
			if err != nil {
				return nil, err
			}
			items[i] = []int{gi}
			p.timed = append(p.timed, request{pathAnalyze, graphs[gi]})
			continue
		}
		old := len(graphs) - 1 - r.Intn(min(recent, len(graphs)))
		batch := make([]int, 0, 8)
		for range 6 {
			gi, err := newGraph()
			if err != nil {
				return nil, err
			}
			batch = append(batch, gi)
		}
		batch = append(batch, batch[r.Intn(6)], old)
		r.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
		raws := make([]json.RawMessage, len(batch))
		for j, gi := range batch {
			raws[j] = graphs[gi]
		}
		body, err := json.Marshal(struct {
			Graphs []json.RawMessage `json:"graphs"`
		}{raws})
		if err != nil {
			return nil, err
		}
		items[i] = batch
		p.timed = append(p.timed, request{pathBatch, body})
	}
	p.verify = func(_, preload, timed []response) error {
		an, err := cfg.analyzer()
		if err != nil {
			return err
		}
		for k, rs := range preload {
			if rs.failed {
				return fmt.Errorf("warm-up %d failed with status %d", k, rs.status)
			}
		}
		// Every answer for a graph must equal its first, and every 16th
		// graph's first must equal an in-process analysis.
		first := make([][]byte, len(graphs))
		check := func(items [][]int, rss []response) error {
			for i, rs := range rss {
				if rs.failed {
					continue
				}
				bodies := [][]byte{rs.body}
				if len(items[i]) > 1 {
					var br struct {
						Reports []json.RawMessage `json:"reports"`
					}
					if err := json.Unmarshal(rs.body, &br); err != nil {
						return fmt.Errorf("batch %d: %w", i, err)
					}
					if len(br.Reports) != len(items[i]) {
						return fmt.Errorf("batch %d: %d reports for %d graphs", i, len(br.Reports), len(items[i]))
					}
					bodies = bodies[:0]
					for _, rep := range br.Reports {
						bodies = append(bodies, rep)
					}
				}
				for j, gi := range items[i] {
					got := bodies[j]
					if first[gi] != nil {
						if !bytes.Equal(got, first[gi]) {
							return mismatch("graph", gi, got, first[gi])
						}
						continue
					}
					first[gi] = got
					if gi%16 != 0 {
						continue
					}
					want, err := analyzeBytes(an, graphs[gi])
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						return mismatch("graph", gi, got, want)
					}
				}
			}
			return nil
		}
		if err := check(warm, preload); err != nil {
			return err
		}
		return check(items, timed)
	}
	return p, nil
}

// missPerSecond sizes the analyze-miss plan: requests per second of
// -seconds, above the closed loop's rate on a 2-vCPU machine, whose time
// limit ends the phase.
const missPerSecond = 1000

// wireTask is one /v1/admit task in the daemon's wire shape.
type wireTask struct {
	Graph    json.RawMessage `json:"graph"`
	Period   int64           `json:"period"`
	Deadline int64           `json:"deadline"`
	Jitter   int64           `json:"jitter,omitempty"`
}

func toWire(t hetrta.SporadicTask) (wireTask, error) {
	g, err := json.Marshal(t.G)
	if err != nil {
		return wireTask{}, err
	}
	return wireTask{Graph: g, Period: t.Period, Deadline: t.Deadline, Jitter: t.Jitter}, nil
}

// churnSet draws sporadic tasks as the delta-admission benchmark does:
// Small(10,30) DAGs, a quarter of them offloading 30% of their volume,
// about 1/32 utilization each.
func churnSet(n int, seed int64) (hetrta.Taskset, error) {
	return taskset.Generate(taskset.TasksetParams{
		N: n, Util: float64(n) / 32, OffloadShare: 0.25, COffFrac: 0.3,
		Params: hetrta.SmallTasks(10, 30),
	}, seed)
}

// admitBytes is the reference for an admission: a from-scratch whole-set
// Admit, marshaled as the daemon marshals it.
func admitBytes(ta *hetrta.TasksetAnalyzer, tasks []hetrta.SporadicTask) ([]byte, error) {
	rep, err := ta.Admit(context.Background(), hetrta.Taskset{Tasks: tasks})
	if err != nil {
		return nil, err
	}
	return rep.MarshalJSON()
}

// Admission request kinds of admit-churn.
const (
	opArrival = iota
	opDeparture
	opRepeat
	opFull
)

// planAdmitChurn: setup admits four resident 32-task bases; timed traffic
// is 50% delta arrivals (one new task), 20% delta departures (one resident
// task), 15% repeats of an earlier delta and 15% full re-admissions of a
// base with its tasks shuffled and graphs relabeled.
func planAdmitChurn(cfg daemonConfig, seed int64, n int) (*plan, error) {
	const nBases = 4
	r := rand.New(rand.NewSource(seed))
	p := &plan{}
	bases := make([]hetrta.Taskset, nBases)
	wires := make([][]wireTask, nBases)
	fps := make([]string, nBases)
	for b := range bases {
		ts, err := churnSet(32, r.Int63())
		if err != nil {
			return nil, err
		}
		bases[b], fps[b] = ts, ts.Fingerprint().String()
		for _, t := range ts.Tasks {
			w, err := toWire(t)
			if err != nil {
				return nil, err
			}
			wires[b] = append(wires[b], w)
		}
		body, err := json.Marshal(map[string]any{"tasks": wires[b]})
		if err != nil {
			return nil, err
		}
		p.preload = append(p.preload, request{pathAdmit, body})
	}
	// Arrivals come from blocks of four generated tasks, one of which
	// offloads, so a quarter of the newcomers are heterogeneous.
	var pool []hetrta.SporadicTask
	newcomer := func() (hetrta.SporadicTask, error) {
		if len(pool) == 0 {
			ts, err := churnSet(4, r.Int63())
			if err != nil {
				return hetrta.SporadicTask{}, err
			}
			pool = ts.Tasks
		}
		t := pool[0]
		pool = pool[1:]
		return t, nil
	}

	type op struct {
		kind, base int
		task       hetrta.SporadicTask // arrival: the newcomer
		victim     int                 // departure: index into the base
		orig       int                 // repeat: the request repeated
	}
	ops := make([]op, n)
	var deltas []int            // indexes of arrivals and departures so far
	kind := mix(r, 10, 4, 3, 3) // opArrival, opDeparture, opRepeat, opFull
	for i := range n {
		o := op{base: r.Intn(nBases), kind: kind()}
		var body any
		switch {
		case o.kind == opRepeat && len(deltas) > 0:
			o.orig = deltas[r.Intn(len(deltas))]
			ops[i] = o
			p.timed = append(p.timed, p.timed[o.orig])
			continue
		case o.kind == opFull:
			tasks := append([]wireTask(nil), wires[o.base]...)
			r.Shuffle(len(tasks), func(a, b int) { tasks[a], tasks[b] = tasks[b], tasks[a] })
			for j := range tasks {
				g, err := permuteGraph(r, tasks[j].Graph)
				if err != nil {
					return nil, err
				}
				tasks[j].Graph = g
			}
			body = map[string]any{"tasks": tasks}
		case o.kind == opDeparture:
			o.victim = r.Intn(len(bases[o.base].Tasks))
			body = map[string]any{"base": fps[o.base], "remove": []string{bases[o.base].Tasks[o.victim].Digest().String()}}
		default:
			t, err := newcomer()
			if err != nil {
				return nil, err
			}
			w, err := toWire(t)
			if err != nil {
				return nil, err
			}
			o.kind, o.task = opArrival, t
			body = map[string]any{"base": fps[o.base], "add": []wireTask{w}}
		}
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		path := pathDelta
		if o.kind == opFull {
			path = pathAdmit
		} else {
			deltas = append(deltas, i)
		}
		ops[i] = o
		p.timed = append(p.timed, request{path, data})
	}

	p.verify = func(_, preload, timed []response) error {
		an, err := cfg.analyzer()
		if err != nil {
			return err
		}
		ta, err := hetrta.NewTasksetAnalyzer(an)
		if err != nil {
			return err
		}
		for b, rs := range preload {
			if rs.failed {
				return fmt.Errorf("base admission %d failed with status %d", b, rs.status)
			}
			want, err := admitBytes(ta, bases[b].Tasks)
			if err != nil {
				return err
			}
			if !bytes.Equal(rs.body, want) {
				return mismatch("base admission", b, rs.body, want)
			}
			if rs.fp != fps[b] {
				return fmt.Errorf("base admission %d: X-Taskset-Fingerprint %s, want %s", b, rs.fp, fps[b])
			}
		}
		// Identical request bodies must get identical bytes; every 8th
		// delta is also checked against a whole-set admission of the set
		// it produces.
		seen := make(map[[sha256.Size]byte][]byte)
		nDelta := 0
		for i, rs := range timed {
			o := ops[i]
			isDelta := o.kind == opArrival || o.kind == opDeparture
			if isDelta {
				nDelta++
			}
			if rs.failed {
				continue
			}
			key := sha256.Sum256(append([]byte(p.timed[i].path), p.timed[i].body...))
			if prev, ok := seen[key]; ok && !bytes.Equal(rs.body, prev) {
				return mismatch("repeated admission", i, rs.body, prev)
			}
			seen[key] = rs.body
			var want []byte
			switch {
			case o.kind == opFull:
				want = preload[o.base].body
			case isDelta && (nDelta-1)%8 == 0:
				tasks := append([]hetrta.SporadicTask(nil), bases[o.base].Tasks...)
				if o.kind == opArrival {
					tasks = append(tasks, o.task)
				} else {
					tasks = append(tasks[:o.victim], tasks[o.victim+1:]...)
				}
				if want, err = admitBytes(ta, tasks); err != nil {
					return err
				}
			default:
				continue
			}
			if !bytes.Equal(rs.body, want) {
				return mismatch("admission", i, rs.body, want)
			}
		}
		return nil
	}
	return p, nil
}

// spillFactor is the store-spill working set over the daemon's memory
// cache: 16,384 graphs for the workload's 2,048 entries.
const spillFactor = 8

// planStoreSpill: a prepare daemon analyzes spillFactor times as many
// graphs as the memory cache holds into the store log; timed traffic
// requests them uniformly, byte-identical.
func planStoreSpill(cfg daemonConfig, seed int64, n int) (*plan, error) {
	r := rand.New(rand.NewSource(seed))
	gg, err := newGraphGen(r.Int63(), 8, 24, 0.15)
	if err != nil {
		return nil, err
	}
	p := &plan{}
	spillGraphs := spillFactor * cfg.cache
	for range spillGraphs {
		b, err := gg.next()
		if err != nil {
			return nil, err
		}
		p.prepare = append(p.prepare, request{pathAnalyze, b})
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = r.Intn(spillGraphs)
		p.timed = append(p.timed, p.prepare[idx[i]])
	}
	p.verify = func(prepare, _, timed []response) error {
		for k, rs := range prepare {
			if rs.failed {
				return fmt.Errorf("prepare %d failed with status %d", k, rs.status)
			}
		}
		for i, rs := range timed {
			if want := prepare[idx[i]].body; !rs.failed && !bytes.Equal(rs.body, want) {
				return mismatch("graph", idx[i], rs.body, want)
			}
		}
		return nil
	}
	return p, nil
}
