package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	hetrta "repro"
	"repro/internal/exact"
	"repro/internal/service"
	"repro/internal/store"
)

// The traced run replays a workload's plan in-process, against a
// service.Service, hetrta.Analyzer and store.Store built with the daemon's
// options, and records a span around every call into a layer's public
// functions. Span names are layer names.
//
// Some layers run inside a call the replay cannot split: a cache miss runs
// the whole analyzer inside Service.Analyze, a store-tier hit reads and
// decodes a record inside it, an admission miss marshals its report
// inside Service.Admit. After such a call returns (and after its request
// span ends) the replay calls those stages itself, as "shadow" children of
// the service span: an explain span holding the analysis stages, a
// store.get span, a taskset.marshal span. A shadow's duration is taken out
// of its parent's self time, so the stages stand in for the work they
// repeat, and the request span, which ended before them, does not count
// them twice.

// span is one timed call. Start and End are nanoseconds since the traced
// run began; Parent indexes the run's span list, -1 for a root.
type span struct {
	Req    int32  `json:"req"` // plan index of the request, -1 outside requests
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
}

// Span names that are not layers.
const (
	spanRequest = "request"
	spanExplain = "explain"
)

// tracer keeps spans in memory; off makes begin and end free, for the
// untraced preload.
type tracer struct {
	t0    time.Time
	off   bool
	spans []span
}

func (t *tracer) begin(req, parent int32, name string) int32 {
	if t.off {
		return -1
	}
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) beginShadow(req, parent int32, name string) int32 {
	i := t.begin(req, parent, name)
	if i >= 0 {
		t.spans[i].Shadow = true
	}
	return i
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = time.Since(t.t0).Nanoseconds()
	}
}

// timeCall runs fn under a span of its own.
func (t *tracer) timeCall(req, parent int32, name string, fn func() error) error {
	s := t.begin(req, parent, name)
	err := fn()
	t.end(s)
	return err
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer executes plan requests in-process, mirroring the daemon's
// handlers.
type replayer struct {
	ctx     context.Context
	tr      *tracer
	cfg     daemonConfig
	plat    hetrta.Platform
	bounds  []hetrta.Bound
	svc     *service.Service
	st      *store.Store // the service's store tier; nil without one
	scratch *store.Store // target of explain's store.append; nil without a store

	exactSolves, exactCapped, exactExpansions int64
	batchDedup                                uint64
}

// traceOut is what a traced run measures beyond its spans.
type traceOut struct {
	spans      []span
	openMS     float64 // store.Open
	warmMS     float64 // Service.AttachStore
	flushMS    float64 // one Store.Flush after the replay
	solves     int64
	capped     int64
	expansions int64
	dedup      uint64
}

// traceMax caps the replayed requests. The closed-loop workload
// (analyze-miss) replays every 8th request, since each replayed miss runs
// the analyzer twice; the open-loop ones replay a prefix.
const traceMax = 20000

// traceRun replays p's preload untraced, then the selected timed requests
// traced. storePath is the store log the end-to-end run used: the traced
// run opens it when it holds the prepared working set, and starts a fresh
// log beside it otherwise.
func traceRun(ctx context.Context, w workload, p *plan, storePath string) (*traceOut, error) {
	// The daemon spreads a batch's misses over every CPU; the replay runs
	// them one after another so that the stages re-run one by one under
	// explain add up to the batch call they stand in for.
	an, err := w.cfg.analyzer(hetrta.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	svc, err := w.cfg.service(an)
	if err != nil {
		return nil, err
	}
	rp := &replayer{ctx: ctx, tr: &tracer{t0: time.Now()}, cfg: w.cfg, plat: an.Platform(), bounds: bounds(), svc: svc}
	out := &traceOut{}
	if w.cfg.store {
		path := storePath
		if len(p.prepare) == 0 {
			path = storePath + ".trace"
		}
		t0 := time.Now()
		if rp.st, err = store.Open(store.Options{Path: path, Generation: svc.Generation()}); err != nil {
			return nil, err
		}
		defer rp.st.Close()
		out.openMS = msSince(t0)
		t0 = time.Now()
		if err := svc.AttachStore(rp.st); err != nil {
			return nil, err
		}
		out.warmMS = msSince(t0)
		if rp.scratch, err = store.Open(store.Options{Path: storePath + ".explain", Generation: svc.Generation()}); err != nil {
			return nil, err
		}
		defer rp.scratch.Close()
	}
	rp.tr.off = true
	for _, rq := range p.preload {
		if err := rp.replay(-1, rq); err != nil {
			return nil, fmt.Errorf("replaying preload: %w", err)
		}
	}
	rp.tr.off = false
	stride := 1
	if w.rate == 0 {
		stride = 8
	}
	for i := 0; i < len(p.timed) && i/stride < traceMax; i += stride {
		if err := rp.replay(int32(i), p.timed[i]); err != nil {
			return nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
	}
	if rp.st != nil {
		t0 := time.Now()
		rp.st.Flush()
		out.flushMS = msSince(t0)
	}
	out.spans = rp.tr.spans
	out.solves, out.capped, out.expansions = rp.exactSolves, rp.exactCapped, rp.exactExpansions
	out.dedup = rp.batchDedup
	return out, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func (rp *replayer) replay(req int32, rq request) error {
	switch rq.path {
	case pathAnalyze:
		return rp.analyze(req, rq.body)
	case pathBatch:
		return rp.batch(req, rq.body)
	case pathAdmit:
		return rp.admit(req, rq.body)
	case pathDelta:
		return rp.delta(req, rq.body)
	}
	return fmt.Errorf("no replay for %s", rq.path)
}

// warmHits reads the service's store-tier hit counter, to tell a store
// hit from a memory hit. Called outside every span.
func (rp *replayer) warmHits() uint64 {
	if rp.st == nil {
		return 0
	}
	return rp.svc.Stats().Store.WarmHits
}

func (rp *replayer) analyze(req int32, body []byte) error {
	t := rp.tr
	warm := rp.warmHits()
	root := t.begin(req, -1, spanRequest)
	var g *hetrta.Graph
	err := t.timeCall(req, root, "dag.decode", func() (err error) {
		g, err = decodeGraph(body)
		return err
	})
	if err != nil {
		return err
	}
	t.timeCall(req, root, "dag.fingerprint", func() error { g.Fingerprint(); return nil })
	s := t.begin(req, root, "service.lookup")
	res, err := rp.svc.Analyze(rp.ctx, g)
	t.end(s)
	t.end(root)
	if err != nil {
		return err
	}
	return rp.shadows(req, s, []*hetrta.Graph{g}, []*service.Result{res}, rp.warmHits()-warm)
}

func (rp *replayer) batch(req int32, body []byte) error {
	t := rp.tr
	warm, coalesced := rp.warmHits(), rp.svc.Stats().Coalesced
	root := t.begin(req, -1, spanRequest)
	var gs []*hetrta.Graph
	err := t.timeCall(req, root, "dag.decode", func() error {
		var br struct {
			Graphs []json.RawMessage `json:"graphs"`
		}
		if err := json.Unmarshal(body, &br); err != nil {
			return err
		}
		for _, raw := range br.Graphs {
			g, err := decodeGraph(raw)
			if err != nil {
				return err
			}
			gs = append(gs, g)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, g := range gs {
		t.timeCall(req, root, "dag.fingerprint", func() error { g.Fingerprint(); return nil })
	}
	s := t.begin(req, root, "service.batch")
	rs, err := rp.svc.AnalyzeBatch(rp.ctx, gs)
	t.end(s)
	t.end(root)
	if err != nil {
		return err
	}
	rp.batchDedup += rp.svc.Stats().Coalesced - coalesced
	return rp.shadows(req, s, gs, rs, rp.warmHits()-warm)
}

// shadows re-executes, under parent, the stages a service call ran
// opaquely: the analysis of every graph it executed, and the store read of
// each of its storeHits store-tier hits.
func (rp *replayer) shadows(req, parent int32, gs []*hetrta.Graph, rs []*service.Result, storeHits uint64) error {
	if rp.tr.off {
		return nil
	}
	for i, r := range rs {
		switch {
		case r.Err != nil:
			return r.Err
		case !r.Hit && !r.Shared:
			if err := rp.explain(req, parent, gs[i], r); err != nil {
				return err
			}
		case r.Hit && storeHits > 0:
			storeHits--
			if err := rp.storeGet(req, parent, r.Fingerprint); err != nil {
				return err
			}
		}
	}
	return nil
}

// explain calls the analysis stages one by one, as Analyzer.Analyze runs
// them, then marshals the served report and appends it to a scratch store
// as the service's write-behind tier would.
func (rp *replayer) explain(req, parent int32, g *hetrta.Graph, res *service.Result) error {
	t := rp.tr
	e := t.beginShadow(req, parent, spanExplain)
	defer t.end(e)
	var work *hetrta.Graph
	err := t.timeCall(req, e, "dag.reduce", func() error {
		work = g.Clone()
		_, err := work.TransitiveReduction()
		return err
	})
	if err != nil {
		return err
	}
	in := hetrta.BoundInput{Graph: work, Platform: rp.plat}
	if len(work.OffloadNodes()) > 0 {
		err := t.timeCall(req, e, "transform", func() (err error) {
			in.Multi, err = hetrta.TransformAll(work)
			return err
		})
		if err != nil {
			return err
		}
		if len(in.Multi.Steps) == 1 {
			in.Transform = in.Multi.Steps[0]
		}
	}
	err = t.timeCall(req, e, "rta.bounds", func() error {
		for _, b := range rp.bounds {
			if _, err := b.Compute(rp.ctx, in); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = t.timeCall(req, e, "sched.simulate", func() error {
		if _, err := hetrta.Simulate(work, rp.plat, hetrta.BreadthFirst()); err != nil {
			return err
		}
		if in.Multi != nil {
			_, err := hetrta.Simulate(in.Multi.Transformed, rp.plat, hetrta.BreadthFirst())
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	if rp.cfg.exact {
		var x *hetrta.ExactResult
		err := t.timeCall(req, e, "exact", func() (err error) {
			x, err = hetrta.MinMakespanContext(rp.ctx, work, rp.plat, rp.cfg.exactOptions())
			return err
		})
		if err != nil {
			return err
		}
		rp.exactSolves++
		rp.exactExpansions += x.Expansions
		if x.Status != exact.Optimal {
			rp.exactCapped++
		}
	}
	var body []byte
	err = t.timeCall(req, e, "report.marshal", func() (err error) {
		body, err = json.Marshal(res.Report)
		return err
	})
	if err != nil {
		return err
	}
	if rp.scratch != nil && !res.Report.Degraded {
		key := res.Fingerprint.String() + "|" + rp.svc.Signature()
		t.timeCall(req, e, "store.append", func() error { rp.scratch.Append(1, key, body); return nil })
	}
	return nil
}

// storeGet reads and decodes fp's record from the store tier, as a
// store-tier hit does inside the service.
func (rp *replayer) storeGet(req, parent int32, fp hetrta.Fingerprint) error {
	s := rp.tr.beginShadow(req, parent, "store.get")
	defer rp.tr.end(s)
	_, val, ok := rp.st.Get(fp.String() + "|" + rp.svc.Signature())
	if !ok {
		return fmt.Errorf("store-tier hit for %s not in the store", fp)
	}
	return json.Unmarshal(val, new(hetrta.Report))
}

// deltaRequest is the daemon's wire shape of an /v1/admit/delta body.
type deltaRequest struct {
	Base   string     `json:"base"`
	Add    []wireTask `json:"add,omitempty"`
	Remove []string   `json:"remove,omitempty"`
}

func decodeTask(w wireTask) (hetrta.SporadicTask, error) {
	g, err := decodeGraph(w.Graph)
	if err != nil {
		return hetrta.SporadicTask{}, err
	}
	return hetrta.SporadicTask{G: g, Period: w.Period, Deadline: w.Deadline, Jitter: w.Jitter}, nil
}

func (rp *replayer) admit(req int32, body []byte) error {
	t := rp.tr
	root := t.begin(req, -1, spanRequest)
	var ts hetrta.Taskset
	err := t.timeCall(req, root, "taskset.decode", func() error {
		var ar struct {
			Tasks []wireTask `json:"tasks"`
		}
		if err := json.Unmarshal(body, &ar); err != nil {
			return err
		}
		for _, w := range ar.Tasks {
			tk, err := decodeTask(w)
			if err != nil {
				return err
			}
			ts.Tasks = append(ts.Tasks, tk)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.timeCall(req, root, "taskset.fingerprint", func() error { ts.Fingerprint(); return nil })
	s := t.begin(req, root, "taskset.admit")
	res, err := rp.svc.Admit(rp.ctx, ts)
	t.end(s)
	t.end(root)
	if err != nil {
		return err
	}
	return rp.admitShadow(req, s, res)
}

func (rp *replayer) delta(req int32, body []byte) error {
	t := rp.tr
	root := t.begin(req, -1, spanRequest)
	var base hetrta.TasksetFingerprint
	var d hetrta.TasksetDelta
	err := t.timeCall(req, root, "taskset.decode", func() error {
		var dr deltaRequest
		if err := json.Unmarshal(body, &dr); err != nil {
			return err
		}
		var err error
		if base, err = hetrta.ParseTasksetFingerprint(dr.Base); err != nil {
			return err
		}
		for _, w := range dr.Add {
			tk, err := decodeTask(w)
			if err != nil {
				return err
			}
			d.Add = append(d.Add, tk)
		}
		for _, s := range dr.Remove {
			dg, err := hetrta.ParseTaskDigest(s)
			if err != nil {
				return err
			}
			d.Remove = append(d.Remove, dg)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.timeCall(req, root, "taskset.fingerprint", func() error {
		for _, tk := range d.Add {
			tk.Digest()
		}
		return nil
	})
	s := t.begin(req, root, "taskset.admit")
	res, err := rp.svc.AdmitDelta(rp.ctx, base, d)
	t.end(s)
	t.end(root)
	if err != nil {
		return err
	}
	return rp.admitShadow(req, s, res)
}

// admitShadow re-marshals the report of an admission the service executed.
func (rp *replayer) admitShadow(req, parent int32, res *service.AdmitResult) error {
	if rp.tr.off || res.Hit || res.Shared {
		return nil
	}
	s := rp.tr.beginShadow(req, parent, "taskset.marshal")
	defer rp.tr.end(s)
	_, err := res.Report.MarshalJSON()
	return err
}

// layerStats are one layer's numbers over a traced run.
type layerStats struct {
	calls    int
	p50, p99 float64 // self time per call, µs
	share    float64 // total self time over total request time
}

// analyzeSpans computes per-layer self-time statistics. A span's self
// time is its duration minus its children's (shadows included); a
// layer's share is its total self time over the total duration of the
// request spans, and coverage is the layers' combined share.
func analyzeSpans(spans []span) (layers map[string]layerStats, coverage, meanRequestUS float64) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string][]float64)
	total := make(map[string]float64)
	var reqTotal, covered float64
	var requests int
	for i, s := range spans {
		if s.Req < 0 {
			continue
		}
		dur := float64(s.End - s.Start)
		if s.Name == spanRequest {
			reqTotal += dur
			requests++
			continue
		}
		st := max(0, dur-float64(child[i]))
		if s.Name == spanExplain {
			continue
		}
		self[s.Name] = append(self[s.Name], st/1e3)
		total[s.Name] += st
		covered += st
	}
	layers = make(map[string]layerStats, len(self))
	for name, xs := range self {
		s := sortedCopy(xs)
		p50, _ := percentile(s, 50)
		p99, _ := percentile(s, 99)
		ls := layerStats{calls: len(xs), p50: p50, p99: p99}
		if reqTotal > 0 {
			ls.share = total[name] / reqTotal
		}
		layers[name] = ls
	}
	if reqTotal > 0 {
		coverage = covered / reqTotal
		meanRequestUS = reqTotal / float64(requests) / 1e3
	}
	return layers, coverage, meanRequestUS
}
