package hetrta

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// One seed per way a body leaves the canonical form, for every envelope:
// a graph outside the graph form, null, a float, a case-folded, unknown
// or duplicate key, an escaped string, invalid UTF-8, a leading zero, -0,
// trailing bytes, and a key without a value.
var envelopeFallbackSeeds = []string{
	`{"tasks":[{"graph":{"Nodes":[{"wcet":1}]},"period":10,"deadline":10}]}`,
	`{"tasks":[{"graph":null,"period":10,"deadline":10}]}`,
	`{"tasks":null}`,
	`{"tasks":[{"period":1.5,"deadline":10}]}`,
	`{"Tasks":[{"period":10,"deadline":10}]}`,
	`{"tasks":[{"Period":10,"deadline":10}]}`,
	`{"tasks":[{"period":10,"deadline":10,"extra":1}]}`,
	`{"tasks":[],"tasks":[{"period":10,"deadline":10}]}`,
	`{"tasks":[{"period":10,"period":20,"deadline":10}]}`,
	`{"tasks":[{"period":010,"deadline":10}]}`,
	`{"tasks":[{"period":-0,"deadline":10}]}`,
	`{"tasks":[]} {}`,
	`{"tasks":[],"x":}`,
	`{"base":"0\u0030","add":[]}`,
	"{\"base\":\"\xff\",\"remove\":[]}",
	`{"base":null,"update":[{"old":null,"task":null}]}`,
	`{"base":"00","base":"11"}`,
	`{"base":"00","update":[{"Old":"00"}]}`,
	`{"graphs":[{"nodes":[{"wcet":1}]},{"nodes":[{"wcet":1.0}]}]}`,
	`{"graphs":[null]}`,
	`{"graphs":[],"graphs":[{}]}`,
	`{"GRAPHS":[{}]}`,
}

// canonicalSeeds are bodies the scanner reads itself, errors included.
var canonicalSeeds = []string{
	`{}`,
	`{"tasks":[]}`,
	`{"tasks":[{"graph":{"nodes":[],"edges":[]},"period":10,"deadline":10}]}`,
	`{"tasks":[{"graph":{"nodes":[{"wcet":2},{"wcet":8,"kind":"offload"}],"edges":[[0,1]]},"period":60,"deadline":50,"jitter":3}]}`,
	`{"tasks":[{"period":-1,"deadline":9223372036854775807}]}`,
	`{"tasks":[{"deadline":5,"graph":{"edges":[[0,0]],"nodes":[{"wcet":1}]},"period":5},{"graph":{"nodes":[{"kind":"gpu"}]}}]}`,
	` { "tasks" : [ { "graph" : { } } ] } `,
	`{"base":"` + strings.Repeat("ab", 32) + `","add":[{"graph":{"nodes":[{"wcet":1}]},"period":9,"deadline":9}],"remove":["` + strings.Repeat("cd", 32) + `"]}`,
	`{"update":[{"task":{"period":4,"deadline":4},"old":"` + strings.Repeat("0", 64) + `"}],"base":"` + strings.Repeat("0", 64) + `"}`,
	`{"base":"zz","add":[{"graph":{"nodes":[{"kind":"gpu"}]}}]}`,
	`{"graphs":[{"nodes":[{"wcet":1}]},{"nodes":[{"wcet":1,"kind":"gpu"}]},{}]}`,
	`{"graphs":[]}`,
	`{not json`,
	``,
}

func addSeeds(f *testing.F) {
	for _, s := range append(slices.Clone(canonicalSeeds), envelopeFallbackSeeds...) {
		f.Add([]byte(s))
	}
}

// sameError reports whether two decode errors are both nil or carry the
// same text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

func sameTask(a, b SporadicTask) bool {
	return a.Period == b.Period && a.Deadline == b.Deadline && a.Jitter == b.Jitter && a.G.Equal(b.G)
}

// FuzzAdmitRequest runs both /v1/admit decoders on every body: they must
// return the same error text, or tasks with Equal graphs and equal sporadic
// parameters. Every decoded taskset must fingerprint deterministically,
// across its own permutation-canonical form too (the property the
// admission cache keys on), and its graphs must marshal. (Model validation
// is the analyzer's job and deliberately not part of decoding.)
func FuzzAdmitRequest(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		ts, err := DecodeAdmitRequest(body, 64)
		ref, refErr := decodeAdmitReference(body, 64)
		if !sameError(err, refErr) {
			t.Fatalf("error %v, reference error %v\nbody: %s", err, refErr, body)
		}
		if err != nil {
			return
		}
		if !slices.EqualFunc(ts.Tasks, ref.Tasks, sameTask) {
			t.Fatalf("tasks differ from the reference decoder's\nbody: %s", body)
		}
		fp1 := ts.Fingerprint()
		if fp2 := ts.Fingerprint(); fp1 != fp2 {
			t.Fatalf("fingerprint not deterministic: %s vs %s", fp1, fp2)
		}
		canon, _ := ts.CanonicalWithDigests()
		if got := canon.Fingerprint(); got != fp1 {
			t.Fatalf("canonical form fingerprints differently: %s vs %s", got, fp1)
		}
		for i, tk := range ts.Tasks {
			if _, err := json.Marshal(tk.G); err != nil {
				t.Fatalf("task %d graph does not marshal: %v", i, err)
			}
		}
	})
}

// FuzzAdmitDeltaRequest runs both /v1/admit/delta decoders on every body:
// the same error text, or the same base, the same added tasks, removed
// digests and updates.
func FuzzAdmitDeltaRequest(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		base, delta, err := DecodeAdmitDeltaRequest(body, 64)
		refBase, ref, refErr := decodeAdmitDeltaReference(body, 64)
		if !sameError(err, refErr) {
			t.Fatalf("error %v, reference error %v\nbody: %s", err, refErr, body)
		}
		if err != nil {
			return
		}
		sameUpdate := func(a, b TaskDeltaUpdate) bool { return a.Old == b.Old && sameTask(a.Task, b.Task) }
		if base != refBase || !slices.EqualFunc(delta.Add, ref.Add, sameTask) ||
			!slices.Equal(delta.Remove, ref.Remove) || !slices.EqualFunc(delta.Update, ref.Update, sameUpdate) {
			t.Fatalf("delta differs from the reference decoder's\nbody: %s", body)
		}
	})
}

// FuzzBatchRequest runs both /v1/analyze/batch decoders on every body: the
// same body error, or per slot the same decode error or Equal graphs.
func FuzzBatchRequest(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		graphs, errs, err := DecodeBatchRequest(body, 64)
		refGraphs, refErrs, refErr := decodeBatchReference(body, 64)
		if !sameError(err, refErr) {
			t.Fatalf("error %v, reference error %v\nbody: %s", err, refErr, body)
		}
		if len(graphs) != len(refGraphs) || len(errs) != len(refErrs) || len(errs) != len(graphs) {
			t.Fatalf("%d graphs and %d errors, reference %d and %d\nbody: %s", len(graphs), len(errs), len(refGraphs), len(refErrs), body)
		}
		for i := range graphs {
			if !sameError(errs[i], refErrs[i]) || (errs[i] == nil && !graphs[i].Equal(refGraphs[i])) {
				t.Fatalf("slot %d: error %v, reference %v\nbody: %s", i, errs[i], refErrs[i], body)
			}
		}
	})
}

// TestEnvelopeScanCoverage checks which bodies take the one-pass path: the
// canonical seeds and the bodies json.Marshal makes of the wire structs
// scan; every fallback seed leaves the form at some point and goes to
// encoding/json.
func TestEnvelopeScanCoverage(t *testing.T) {
	scans := func(body string) bool {
		return new(admitRequest).scan([]byte(body)) ||
			new(admitDeltaRequest).scan([]byte(body)) ||
			new(batchRequest).scan([]byte(body))
	}
	g := NewGraph()
	a := g.AddNode("load", 2, Host)
	k := g.AddNode("kernel", 8, Offload)
	g.MustAddEdge(a, k)
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	task := admitTask{Graph: raw, Period: 60, Deadline: 50, Jitter: 3}
	marshaled := []any{
		admitRequest{Tasks: []admitTask{task, task}},
		admitDeltaRequest{Base: strings.Repeat("0", 64), Add: []admitTask{task}, Remove: []string{strings.Repeat("1", 64)},
			Update: []admitDeltaUpdate{{Old: strings.Repeat("2", 64), Task: task}}},
		batchRequest{Graphs: []json.RawMessage{raw, raw}},
	}
	bodies := slices.Clone(canonicalSeeds[:len(canonicalSeeds)-2]) // the last two are not JSON
	for _, v := range marshaled {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(b))
	}
	for _, body := range bodies {
		if !scans(body) {
			t.Errorf("canonical body went to encoding/json: %s", body)
		}
	}
	for _, body := range envelopeFallbackSeeds {
		if scans(body) {
			t.Errorf("body outside the canonical form scanned: %s", body)
		}
	}
}
