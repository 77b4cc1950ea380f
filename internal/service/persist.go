package service

// Disk-backed second tier: the service-side wiring of internal/store.
//
// The store holds marshaled cache entries under the SAME replica-portable
// keys the in-memory LRU uses ("<fp>|<sig>", "admit|…", "eval|…" — the
// "deg|" namespace is deliberately never persisted: degraded results are
// transient fallbacks, and serving one after a restart would hide a
// recovered oracle). Writes are behind the request path: cacheAdd
// enqueues an encoded record and returns; reads happen on an LRU miss
// (lookup), at boot (AttachStore warm start), and on POST /v1/warmup
// (Warmup, a peer replica's log streamed in).
//
// Record kinds and their values:
//
//	recReport — the analysis Report's canonical JSON (the cached body)
//	recAdmit  — {body, per-task digests, task list with graphs}, in
//	            canonical order: everything needed to re-anchor delta
//	            admission. A reference anchor is written flattened, and
//	            every record decodes to a full anchor. The eval handles
//	            are not stored, but reconnected to resident eval entries
//	            by digest
//	recEval   — the ORIGINAL task graph JSON. A TaskEvalHandle retains
//	            only the reduced work graph, so persisting that would
//	            re-transform an already-transformed DAG on decode;
//	            re-preparing from the source graph is the only loss-free
//	            round trip.
//
// Everything decoded from the store is re-validated by construction:
// bodies re-unmarshal into reports, digests re-parse, graphs re-prepare;
// any failure skips the record (counted) instead of serving it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	hetrta "repro"
	"repro/internal/store"
	"repro/internal/taskset"
)

// Store record kinds (the store treats them as opaque).
const (
	recReport byte = 1
	recAdmit  byte = 2
	recEval   byte = 3
)

// persistedTask is the durable form of one hetrta.SporadicTask.
type persistedTask struct {
	Graph    *hetrta.Graph `json:"graph"`
	Period   int64         `json:"period"`
	Deadline int64         `json:"deadline"`
	Jitter   int64         `json:"jitter,omitempty"`
}

// persistedAdmit is the durable form of an "admit|" entry: the served
// body plus the delta-admission anchor (digests parallel to tasks).
type persistedAdmit struct {
	Body    json.RawMessage `json:"body"`
	Digests []string        `json:"digests"`
	Tasks   []persistedTask `json:"tasks"`
}

// Generation returns the configuration stamp a store log must carry to
// be loadable by this service: the taskset-analyzer signature, which
// embeds the full per-DAG analyzer signature plus the policy list — any
// configuration change that could alter served bytes changes it.
func (s *Service) Generation() string { return s.tsig }

// AttachStore wires st as the disk-backed second tier and warm-starts
// the LRU with the newest surviving records each cache shard can hold
// (see warmStart); older records stay on disk and are served through
// lookup. It must be called before the service starts serving (the store
// field is not synchronized against concurrent requests); typically
// immediately after New. The store must have been opened with
// Generation().
func (s *Service) AttachStore(st *store.Store) error {
	if st == nil {
		return nil
	}
	if st.Generation() != s.Generation() {
		return fmt.Errorf("service: store generation %q does not match service generation %q", st.Generation(), s.Generation())
	}
	s.store = st
	s.warmStart()
	return nil
}

// warmStart fills the LRU from the store, reading and decoding only
// records that stay resident: the cache ends exactly as a forward load
// of every live record would leave it — eval records first, then the
// rest, each kind in log order — but its work follows the cache size,
// not the log size. The log is walked newest first against one
// free-slot count per shard, in two passes: non-eval records claim
// slots first (they would be inserted last, so they survive), then
// eval records fill what is left. A record that fails to decode is
// counted and takes no slot, so the next-older record of its shard gets
// it, as in a forward load. The kept entries are inserted oldest first,
// which reproduces the forward load's recency order. Admit entries are
// decoded with nil handle slots, which are filled from the kept eval
// entries before anything is inserted, so no entry changes after it is
// published. Undecodable records are never fatal — the log is a cache,
// not a source of truth.
func (s *Service) warmStart() {
	free := make([]int, len(s.cache.shards))
	room := 0
	for i, sh := range s.cache.shards {
		free[i] = sh.capacity
		room += sh.capacity
	}
	type kept struct {
		key string
		ent *entry
	}
	// fill walks one pass, returning the kept entries newest first.
	fill := func(evals bool) []kept {
		if room == 0 {
			return nil
		}
		var out []kept
		s.store.WalkNewest(func(hash uint64, kind byte) bool {
			return (kind == recEval) == evals && free[s.cache.shardOf(hash)] > 0
		}, func(rec store.Record) bool {
			ent, err := s.decodeRecord(rec.Kind, rec.Value)
			if err != nil {
				s.storeDecodeErrors.Add(1)
				return true
			}
			free[s.cache.shardIndex(rec.Key)]--
			room--
			out = append(out, kept{rec.Key, ent})
			return room > 0
		})
		return out
	}
	rest := fill(false)
	evals := fill(true)

	byKey := make(map[string]*entry, len(evals))
	for _, k := range evals {
		byKey[k.key] = k.ent
	}
	find := func(key string) (*entry, bool) {
		ent, ok := byKey[key]
		return ent, ok
	}
	for _, k := range rest {
		s.anchorEvals(k.ent, find)
	}
	for _, pass := range [][]kept{evals, rest} {
		for i := len(pass) - 1; i >= 0; i-- {
			s.cache.add(pass[i].key, pass[i].ent)
			s.warmLoaded.Add(1)
		}
	}
}

// anchorEvals fills the handle slots of a decoded admit entry's (full)
// anchor from the eval entries find resolves, and lets each member whose
// handle's work graph equals its graph keep the work graph; for any other
// entry it does nothing. A slot left nil is fine: the delta path
// re-prepares that task through taskEval.
func (s *Service) anchorEvals(ent *entry, find func(key string) (*entry, bool)) {
	if ent.anchor == nil {
		return
	}
	for i, dg := range ent.anchor.digests {
		if ev, ok := find(s.evalKeyOf(dg)); ok && ev.eval != nil {
			ent.anchor.handles[i] = ev.eval
		}
	}
	ent.anchor.shareGraphs()
}

// lookup is the two-tier cache read: the in-memory LRU first, then the
// store. Callers treat a lookup hit exactly like a cacheGet hit.
func (s *Service) lookup(key string) (*entry, bool) {
	if ent, ok := s.cacheGet(key); ok {
		return ent, true
	}
	return s.storeLookup(key)
}

// storeLookup is lookup's second tier. A store hit is decoded, promoted
// into the LRU (directly — the store already holds the record, so
// promotion must not re-persist), and counted as a warm hit; a record
// that fails to decode is a miss, never an error.
func (s *Service) storeLookup(key string) (*entry, bool) {
	if s.store == nil {
		return nil, false
	}
	kind, val, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	ent, err := s.decodeRecord(kind, val)
	if err != nil {
		s.storeDecodeErrors.Add(1)
		return nil, false
	}
	s.anchorEvals(ent, s.cache.get)
	s.cache.add(key, ent)
	s.warmHits.Add(1)
	return ent, true
}

// persist enqueues ent's durable form on the write-behind queue. Called
// under the entry's final cache key from cacheAdd; the "deg|" namespace
// and entries with nothing durable to say are skipped. Encoding is
// synchronous (the buffers handed to the store must be immutable) but
// cheap relative to the analysis that produced the entry; the disk
// write is not on the request path.
func (s *Service) persist(key string, ent *entry) {
	if s.store == nil || strings.HasPrefix(key, "deg|") {
		return
	}
	switch {
	case strings.HasPrefix(key, "admit|"):
		a := ent.anchor
		if a == nil || len(ent.body) == 0 {
			return // no anchor; do not make it durable
		}
		// A record holds the full member list: a reference anchor is
		// flattened here, into a fresh list.
		pa := persistedAdmit{Body: ent.body}
		a.walk(taskset.Edit{}, func(t *hetrta.SporadicTask, dg hetrta.TaskDigest, _ *hetrta.TaskEvalHandle) bool {
			pa.Digests = append(pa.Digests, dg.String())
			pa.Tasks = append(pa.Tasks, persistedTask{Graph: t.G, Period: t.Period, Deadline: t.Deadline, Jitter: t.Jitter})
			return true
		})
		val, err := json.Marshal(pa)
		if err != nil {
			return
		}
		s.store.Append(recAdmit, key, val)
	case strings.HasPrefix(key, "eval|"):
		if ent.eval == nil || ent.evalGraph == nil {
			return
		}
		val, err := json.Marshal(ent.evalGraph)
		if err != nil {
			return
		}
		s.store.Append(recEval, key, val)
	default:
		if len(ent.body) == 0 || ent.degraded != "" {
			return
		}
		s.store.Append(recReport, key, ent.body)
	}
}

// decodeRecord rebuilds a cache entry from its durable form, the
// inverse of persist. Every field is re-validated on the way in: a
// report record must decode as a Report and an admit record's body as an
// AdmitReport, though each entry keeps only the body (and a report's
// degraded reason). An admit entry comes back with every handle slot
// nil; callers fill them with anchorEvals before publishing the entry.
func (s *Service) decodeRecord(kind byte, value []byte) (*entry, error) {
	switch kind {
	case recReport:
		rep, err := hetrta.DecodeReport(value)
		if err != nil {
			return nil, fmt.Errorf("service: decoding report record: %w", err)
		}
		return &entry{body: value, degraded: rep.DegradedReason}, nil
	case recAdmit:
		var pa persistedAdmit
		if err := json.Unmarshal(value, &pa); err != nil {
			return nil, fmt.Errorf("service: decoding admit record: %w", err)
		}
		if len(pa.Digests) != len(pa.Tasks) {
			return nil, errors.New("service: admit record digests/tasks length mismatch")
		}
		if err := json.Unmarshal(pa.Body, new(hetrta.AdmitReport)); err != nil {
			return nil, fmt.Errorf("service: decoding admit record body: %w", err)
		}
		ts := hetrta.Taskset{Tasks: make([]hetrta.SporadicTask, len(pa.Tasks))}
		ds := make([]hetrta.TaskDigest, len(pa.Digests))
		for i, pt := range pa.Tasks {
			if pt.Graph == nil {
				return nil, errors.New("service: admit record task without graph")
			}
			ts.Tasks[i] = hetrta.SporadicTask{G: pt.Graph, Period: pt.Period, Deadline: pt.Deadline, Jitter: pt.Jitter}
			dg, err := hetrta.ParseTaskDigest(pa.Digests[i])
			if err != nil {
				return nil, fmt.Errorf("service: decoding admit record digest: %w", err)
			}
			ds[i] = dg
		}
		// Records are written in canonical order; one written in another
		// order (an older writer's) is sorted here.
		ts, ds = ts.CanonicalWithGivenDigests(ds)
		a := &admitAnchor{tasks: ts.Tasks, digests: ds, handles: make([]*hetrta.TaskEvalHandle, len(ds))}
		return &entry{body: pa.Body, anchor: a}, nil
	case recEval:
		g := new(hetrta.Graph)
		if err := json.Unmarshal(value, g); err != nil {
			return nil, fmt.Errorf("service: decoding eval record graph: %w", err)
		}
		ent, err := s.prepareEval(g)
		if err != nil {
			return nil, fmt.Errorf("service: re-preparing eval record: %w", err)
		}
		return ent, nil
	default:
		return nil, fmt.Errorf("service: unknown store record kind %d", kind)
	}
}

// WarmupSummary reports what a Warmup call consumed and loaded.
type WarmupSummary struct {
	store.ScanSummary
	// Loaded counts records decoded into the cache; Skipped records
	// that scanned cleanly but failed service-level decoding.
	Loaded  int `json:"loaded"`
	Skipped int `json:"skipped"`
}

// Warmup bulk-loads a store log streamed from r — typically another
// replica's log file — into the cache, and (when a store is attached)
// re-appends the raw records so the warmed state is also durable here.
// The stream's generation header must match Generation(); on mismatch
// nothing is loaded and the error satisfies
// errors.Is(err, store.ErrGenerationMismatch). Safe to call while
// serving.
func (s *Service) Warmup(r io.Reader) (WarmupSummary, error) {
	var ws WarmupSummary
	sum, err := store.ScanStream(r, s.Generation(), func(rec store.Record) error {
		if strings.HasPrefix(rec.Key, "deg|") {
			ws.Skipped++
			return nil
		}
		ent, derr := s.decodeRecord(rec.Kind, rec.Value)
		if derr != nil {
			s.storeDecodeErrors.Add(1)
			ws.Skipped++
			return nil
		}
		s.anchorEvals(ent, s.cache.get)
		s.cache.add(rec.Key, ent)
		if s.store != nil {
			s.store.Append(rec.Kind, rec.Key, rec.Value)
		}
		ws.Loaded++
		return nil
	})
	ws.ScanSummary = sum
	return ws, err
}
