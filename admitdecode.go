package hetrta

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/dag"
)

// Request decoding for the serving daemon's admission and batch
// endpoints. The wire shapes are the structs below; the hand-written
// AdmitReport encoder in admitjson.go is the other half of the admission
// wire format.
//
// Each body has two front ends that fill the same struct. The scanner
// (dag.Scanner) reads the canonical form in one pass, graphs included:
// exact keys, each at most once, in any order; integer fields; strings
// without escapes; every graph in the canonical graph form. Any byte
// outside that form sends the whole body to encoding/json, which defines
// the semantics and the error text of every input; a graph outside the
// form cannot fall back alone, because only a full JSON parse can tell
// whether the rest of the body is valid. The scanned graphs are built only
// after the whole body has scanned, so the error order is encoding/json's:
// a syntax error anywhere, then the delta's base, then the item limit, then
// the items in input order.

// ErrRequestLimit marks the decode error of a request body that holds more
// items than the decoder's limit. Test with errors.Is.
var ErrRequestLimit = errors.New("hetrta: request over its item limit")

type limitError struct{ msg string }

func (e limitError) Error() string { return e.msg }

func (e limitError) Is(target error) bool { return target == ErrRequestLimit }

// admitRequest / admitTask are the wire shape of /v1/admit: one sporadic
// DAG task per entry, graphs in the cmd/daggen schema.
type admitRequest struct {
	Tasks []admitTask `json:"tasks"`
}

type admitTask struct {
	Graph    json.RawMessage `json:"graph"`
	Period   int64           `json:"period"`
	Deadline int64           `json:"deadline"`
	Jitter   int64           `json:"jitter,omitempty"`

	// graph is the graph when the scanner read it (scanned is true).
	graph   dag.ScannedGraph
	scanned bool
}

// admitDeltaRequest is the wire shape of /v1/admit/delta: the base
// taskset's fingerprint (as returned in X-Taskset-Fingerprint by a prior
// admit of the base), tasks to add, task digests to remove, and
// replacements. Task digests come from the taskset model (graph canonical
// fingerprint + sporadic parameters); removing a digest removes one
// instance of that task.
type admitDeltaRequest struct {
	Base   string             `json:"base"`
	Add    []admitTask        `json:"add,omitempty"`
	Remove []string           `json:"remove,omitempty"`
	Update []admitDeltaUpdate `json:"update,omitempty"`
}

type admitDeltaUpdate struct {
	Old  string    `json:"old"`
	Task admitTask `json:"task"`
}

// batchRequest is the wire shape of /v1/analyze/batch.
type batchRequest struct {
	Graphs []json.RawMessage `json:"graphs"`

	// scanned holds the graphs when the scanner read the body.
	scanned []dag.ScannedGraph
}

// DecodeAdmitRequest parses an /v1/admit body into a taskset. maxTasks
// bounds the member count. Model validation (deadlines, jitter, graph
// structure) is the analyzer's business; this only decodes.
func DecodeAdmitRequest(body []byte, maxTasks int) (Taskset, error) {
	var req admitRequest
	if !req.scan(body) {
		return decodeAdmitReference(body, maxTasks)
	}
	return req.taskset(maxTasks)
}

// decodeAdmitReference is DecodeAdmitRequest on the encoding/json path.
func decodeAdmitReference(body []byte, maxTasks int) (Taskset, error) {
	var req admitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return Taskset{}, err
	}
	return req.taskset(maxTasks)
}

func (req *admitRequest) taskset(maxTasks int) (Taskset, error) {
	if len(req.Tasks) > maxTasks {
		return Taskset{}, limitError{fmt.Sprintf("%d tasks exceed the %d per-taskset limit", len(req.Tasks), maxTasks)}
	}
	ts := Taskset{Tasks: make([]SporadicTask, len(req.Tasks))}
	for i := range req.Tasks {
		t, err := req.Tasks[i].task()
		if err != nil {
			return Taskset{}, fmt.Errorf("task %d: %v", i, err)
		}
		ts.Tasks[i] = t
	}
	return ts, nil
}

// task builds the task; an absent graph is an empty one.
func (tk *admitTask) task() (SporadicTask, error) {
	var (
		g   *Graph
		err error
	)
	switch {
	case tk.scanned:
		g, err = tk.graph.Build()
	case len(tk.Graph) == 0:
		g = NewGraph()
	default:
		g, err = dag.Decode(tk.Graph)
	}
	if err != nil {
		return SporadicTask{}, err
	}
	return SporadicTask{G: g, Period: tk.Period, Deadline: tk.Deadline, Jitter: tk.Jitter}, nil
}

// DecodeAdmitDeltaRequest parses an /v1/admit/delta body. maxEdits bounds
// the number of edits; like DecodeAdmitRequest, model validation is the
// analyzer's business.
func DecodeAdmitDeltaRequest(body []byte, maxEdits int) (TasksetFingerprint, TasksetDelta, error) {
	var req admitDeltaRequest
	if !req.scan(body) {
		return decodeAdmitDeltaReference(body, maxEdits)
	}
	return req.delta(maxEdits)
}

// decodeAdmitDeltaReference is DecodeAdmitDeltaRequest on the
// encoding/json path.
func decodeAdmitDeltaReference(body []byte, maxEdits int) (TasksetFingerprint, TasksetDelta, error) {
	var req admitDeltaRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return TasksetFingerprint{}, TasksetDelta{}, err
	}
	return req.delta(maxEdits)
}

func (req *admitDeltaRequest) delta(maxEdits int) (TasksetFingerprint, TasksetDelta, error) {
	var delta TasksetDelta
	base, err := ParseTasksetFingerprint(req.Base)
	if err != nil {
		return TasksetFingerprint{}, delta, fmt.Errorf("base: %v", err)
	}
	if edits := len(req.Add) + len(req.Remove) + len(req.Update); edits > maxEdits {
		return base, delta, limitError{fmt.Sprintf("%d delta edits exceed the %d limit", edits, maxEdits)}
	}
	for i := range req.Add {
		t, err := req.Add[i].task()
		if err != nil {
			return base, delta, fmt.Errorf("add %d: %v", i, err)
		}
		delta.Add = append(delta.Add, t)
	}
	for i, s := range req.Remove {
		dg, err := ParseTaskDigest(s)
		if err != nil {
			return base, delta, fmt.Errorf("remove %d: %v", i, err)
		}
		delta.Remove = append(delta.Remove, dg)
	}
	for i := range req.Update {
		u := &req.Update[i]
		dg, err := ParseTaskDigest(u.Old)
		if err != nil {
			return base, delta, fmt.Errorf("update %d: old: %v", i, err)
		}
		t, err := u.Task.task()
		if err != nil {
			return base, delta, fmt.Errorf("update %d: task: %v", i, err)
		}
		delta.Update = append(delta.Update, TaskDeltaUpdate{Old: dg, Task: t})
	}
	return base, delta, nil
}

// DecodeBatchRequest parses an /v1/analyze/batch body ({"graphs":[...]})
// into one graph or one decode error per element, in order: a graph that
// fails to decode fails only its own slot. err is the body's own error; it
// matches ErrRequestLimit when the body holds more than maxGraphs graphs.
func DecodeBatchRequest(body []byte, maxGraphs int) (graphs []*Graph, errs []error, err error) {
	var req batchRequest
	if !req.scan(body) {
		return decodeBatchReference(body, maxGraphs)
	}
	return req.decode(maxGraphs)
}

// decodeBatchReference is DecodeBatchRequest on the encoding/json path.
func decodeBatchReference(body []byte, maxGraphs int) ([]*Graph, []error, error) {
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	return req.decode(maxGraphs)
}

func (req *batchRequest) decode(maxGraphs int) ([]*Graph, []error, error) {
	n := max(len(req.Graphs), len(req.scanned)) // one of the two is empty
	if n > maxGraphs {
		return nil, nil, limitError{fmt.Sprintf("%d graphs exceed the %d per-batch limit", n, maxGraphs)}
	}
	graphs, errs := make([]*Graph, n), make([]error, n)
	for i := range n {
		if req.scanned != nil {
			graphs[i], errs[i] = req.scanned[i].Build()
		} else {
			graphs[i], errs[i] = dag.Decode(req.Graphs[i])
		}
	}
	return graphs, errs, nil
}

// The scanner front end. Each scan method reports whether its part of the
// body is in canonical form; on false the caller discards what was filled
// in and decodes the body with encoding/json instead.

func (req *admitRequest) scan(body []byte) bool {
	s := dag.NewScanner(body)
	return scanObject(&s, func(key []byte) (uint16, bool) {
		if string(key) != "tasks" {
			return 0, true
		}
		return 1, scanSlice(&s, &req.Tasks, func(tk *admitTask) bool { return tk.scan(&s) })
	}) && s.End()
}

func (req *admitDeltaRequest) scan(body []byte) bool {
	s := dag.NewScanner(body)
	return scanObject(&s, func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "base":
			req.Base, ok = scanString(&s)
			return 1, ok
		case "add":
			return 2, scanSlice(&s, &req.Add, func(tk *admitTask) bool { return tk.scan(&s) })
		case "remove":
			return 4, scanSlice(&s, &req.Remove, func(dg *string) bool {
				*dg, ok = scanString(&s)
				return ok
			})
		case "update":
			return 8, scanSlice(&s, &req.Update, func(u *admitDeltaUpdate) bool { return u.scan(&s) })
		}
		return 0, true
	}) && s.End()
}

func (req *batchRequest) scan(body []byte) bool {
	s := dag.NewScanner(body)
	return scanObject(&s, func(key []byte) (bit uint16, ok bool) {
		if string(key) != "graphs" {
			return 0, true
		}
		return 1, scanSlice(&s, &req.scanned, func(g *dag.ScannedGraph) bool {
			*g, ok = s.Graph()
			return ok
		})
	}) && s.End()
}

func (tk *admitTask) scan(s *dag.Scanner) bool {
	return scanObject(s, func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "graph":
			tk.graph, ok = s.Graph()
			tk.scanned = true
			return 1, ok
		case "period":
			tk.Period, ok = s.Int64()
			return 2, ok
		case "deadline":
			tk.Deadline, ok = s.Int64()
			return 4, ok
		case "jitter":
			tk.Jitter, ok = s.Int64()
			return 8, ok
		}
		return 0, true
	})
}

func (u *admitDeltaUpdate) scan(s *dag.Scanner) bool {
	return scanObject(s, func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "old":
			u.Old, ok = scanString(s)
			return 1, ok
		case "task":
			return 2, u.Task.scan(s)
		}
		return 0, true
	})
}

// scanObject scans an object, calling field with each key to scan its
// value. field returns the key's bit, distinct for each key of the form
// and 0 for any other key; an unknown or repeated key is outside the form.
func scanObject(s *dag.Scanner, field func(key []byte) (bit uint16, ok bool)) bool {
	if !s.Consume('{') {
		return false
	}
	if s.Consume('}') {
		return true
	}
	var seen uint16
	for {
		key, ok := s.Str()
		if !ok || !s.Consume(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !s.Consume(',') {
			return s.Consume('}')
		}
	}
}

// scanSlice scans an array into *out, calling elem on each new element.
// An empty array leaves a non-nil empty slice, as encoding/json does.
func scanSlice[T any](s *dag.Scanner, out *[]T, elem func(*T) bool) bool {
	if !s.Consume('[') {
		return false
	}
	*out = []T{}
	if s.Consume(']') {
		return true
	}
	for {
		*out = append(*out, *new(T))
		if !elem(&(*out)[len(*out)-1]) {
			return false
		}
		if !s.Consume(',') {
			return s.Consume(']')
		}
	}
}

func scanString(s *dag.Scanner) (string, bool) {
	b, ok := s.Str()
	return string(b), ok
}
