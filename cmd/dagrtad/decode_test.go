package main

import (
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"

	hetrta "repro"
)

// TestDecodeErrorParity sends malformed graphs to all four graph-bearing
// endpoints. Each must answer with exactly the error text of
// json.Unmarshal into a Graph, which the want column pins: the daemon's
// single-pass decoder must not change a byte of any 400 body, whether the
// input is one the scanner handles itself or one it leaves to
// encoding/json.
func TestDecodeErrorParity(t *testing.T) {
	cases := []struct{ graph, want string }{
		// Not JSON: only /v1/analyze can carry these.
		{``, `unexpected end of JSON input`},
		{`{not json`, `invalid character 'n' looking for beginning of object key string`},
		{`{"nodes":[{"wcet":1}]} x`, `invalid character 'x' after top-level value`},
		{`{"nodes":[{"wcet":1,"kind":"gpu"}]} x`, `invalid character 'x' after top-level value`},
		{`{"nodes":[{"wcet":01}]}`, `invalid character '1' after object key:value pair`},
		// Model-rule errors in the canonical form the scanner decodes.
		{`{"nodes":[{"wcet":1},{"wcet":2,"kind":"gpu"}],"edges":[[0,1]]}`, `dag: node 1: unknown kind "gpu"`},
		{`{"nodes":[{"wcet":1,"class":2}]}`, `dag: node 0: class 2 on host node (only offload nodes carry a device class)`},
		{`{"nodes":[{"wcet":1,"kind":"sync","class":3}]}`, `dag: node 0: class 3 on sync node (only offload nodes carry a device class)`},
		{`{"nodes":[{"wcet":1,"kind":"offload","class":-1}]}`, `dag: node 0: invalid class -1`},
		{`{"nodes":[{"wcet":1},{"wcet":1}],"edges":[[0,1],[0,5]]}`, `dag: edge (0,5) out of range [0,2)`},
		{`{"nodes":[{"wcet":1},{"wcet":1}],"edges":[[-1,0]]}`, `dag: edge (-1,0) out of range [0,2)`},
		{`{"nodes":[{"wcet":1},{"wcet":1}],"edges":[[1,1]]}`, `dag: self-loop on node 1`},
		{`{"edges":[[0,5],[0,0]],"nodes":[{"wcet":1},{"wcet":1,"kind":"gpu"}]}`, `dag: node 1: unknown kind "gpu"`},
		{`{"edges":[[1,0],[0,0]],"nodes":[{"wcet":1},{"wcet":1}]}`, `dag: self-loop on node 0`},
		// Outside the canonical form: encoding/json decodes these.
		{`{"Nodes":[{"wcet":1,"kind":"gpu"}]}`, `dag: node 0: unknown kind "gpu"`},
		{`{"nodes":[{"wcet":1,"kind":"gp\u0075"}]}`, `dag: node 0: unknown kind "gpu"`},
		{`{"nodes":[{"wcet":1.5}]}`, `dag: decoding graph: json: cannot unmarshal number 1.5 into Go struct field jsonNode.nodes.wcet of type int64`},
		{`{"nodes":[{"wcet":9223372036854775808}]}`, `dag: decoding graph: json: cannot unmarshal number 9223372036854775808 into Go struct field jsonNode.nodes.wcet of type int64`},
		{`{"nodes":{}}`, `dag: decoding graph: json: cannot unmarshal object into Go struct field jsonGraph.nodes of type []dag.jsonNode`},
		{`{"nodes":[{"wcet":1}],"edges":[[0]]}`, `dag: self-loop on node 0`},
		{`{"nodes":[{"wcet":1},{"wcet":1}],"edges":[[1,1,0]]}`, `dag: self-loop on node 1`},
		{`[1,2]`, `dag: decoding graph: json: cannot unmarshal array into Go value of type dag.jsonGraph`},
		{`"graph"`, `dag: decoding graph: json: cannot unmarshal string into Go value of type dag.jsonGraph`},
	}
	base := startDaemon(t)
	errorText := func(t *testing.T, endpoint string, body []byte, wantCode int) string {
		t.Helper()
		resp, data := post(t, base+endpoint, body)
		if resp.StatusCode != wantCode {
			t.Fatalf("%s: status %d, want %d: %s", endpoint, resp.StatusCode, wantCode, data)
		}
		var out struct {
			Error   string            `json:"error"`
			Reports []json.RawMessage `json:"reports"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s: %v: %s", endpoint, err, data)
		}
		if len(out.Reports) == 1 {
			if err := json.Unmarshal(out.Reports[0], &out); err != nil {
				t.Fatal(err)
			}
		}
		return out.Error
	}
	envelope := func(t *testing.T, v any) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range cases {
		t.Run(tc.graph, func(t *testing.T) {
			err := json.Unmarshal([]byte(tc.graph), hetrta.NewGraph())
			if err == nil || err.Error() != tc.want {
				t.Fatalf("json.Unmarshal error %v, want %s", err, tc.want)
			}
			if got := errorText(t, "/v1/analyze", []byte(tc.graph), http.StatusBadRequest); got != tc.want {
				t.Errorf("/v1/analyze: error %q, want %q", got, tc.want)
			}
			if !json.Valid([]byte(tc.graph)) {
				return
			}
			raw := json.RawMessage(tc.graph)
			batch := envelope(t, map[string]any{"graphs": []json.RawMessage{raw}})
			if got := errorText(t, "/v1/analyze/batch", batch, http.StatusOK); got != tc.want {
				t.Errorf("/v1/analyze/batch: error %q, want %q", got, tc.want)
			}
			task := map[string]any{"graph": raw, "period": 10, "deadline": 10}
			admit := envelope(t, map[string]any{"tasks": []any{task}})
			if got, want := errorText(t, "/v1/admit", admit, http.StatusBadRequest), "task 0: "+tc.want; got != want {
				t.Errorf("/v1/admit: error %q, want %q", got, want)
			}
			zero := strings.Repeat("0", 64)
			delta := envelope(t, map[string]any{"base": zero, "add": []any{task}})
			if got, want := errorText(t, "/v1/admit/delta", delta, http.StatusBadRequest), "add 0: "+tc.want; got != want {
				t.Errorf("/v1/admit/delta: error %q, want %q", got, want)
			}
			update := envelope(t, map[string]any{"base": zero, "update": []any{map[string]any{"old": zero, "task": task}}})
			if got, want := errorText(t, "/v1/admit/delta", update, http.StatusBadRequest), "update 0: task: "+tc.want; got != want {
				t.Errorf("/v1/admit/delta update: error %q, want %q", got, want)
			}
		})
	}
}

// TestDecodeEnvelopeErrors pins how the admission and batch endpoints
// decode whole request bodies: a syntax error anywhere in the body comes
// before the item limit; the delta's base comes before its edit limit; the
// per-item errors follow in input order (every add, then every remove, then
// every update), whatever order the keys come in; a graph outside the
// canonical form, a case-folded key or a duplicate key decodes as
// encoding/json decodes it.
func TestDecodeEnvelopeErrors(t *testing.T) {
	const (
		ok    = `{"nodes":[{"wcet":1}]}`
		gpu   = `{"nodes":[{"wcet":1,"kind":"gpu"}]}`
		upper = `{"Nodes":[{"wcet":1,"kind":"gpu"}]}` // outside the canonical form
		gpuE  = `dag: node 0: unknown kind "gpu"`
		badZ  = `"zz": encoding/hex: invalid byte: U+007A 'z'`
	)
	task := func(g string) string { return `{"graph":` + g + `,"period":10,"deadline":10}` }
	zero := `"` + strings.Repeat("0", 64) + `"`
	cases := []struct {
		name, endpoint, body string
		code                 int
		want                 string
	}{
		{"admit limit then syntax", "/v1/admit",
			`{"tasks":[` + task(ok) + `,` + task(ok) + `,` + task(ok) + `,` + task(ok) + `],}`,
			http.StatusBadRequest, `invalid character '}' looking for beginning of object key string`},
		{"admit task error then syntax", "/v1/admit",
			`{"tasks":[` + task(gpu) + `],}`,
			http.StatusBadRequest, `invalid character '}' looking for beginning of object key string`},
		{"admit limit before tasks", "/v1/admit",
			`{"tasks":[` + task(gpu) + `,` + task(ok) + `,` + task(ok) + `,` + task(ok) + `]}`,
			http.StatusBadRequest, `4 tasks exceed the 3 per-taskset limit`},
		{"admit non-canonical task 2", "/v1/admit",
			`{"tasks":[` + task(ok) + `,` + task(ok) + `,` + task(upper) + `]}`,
			http.StatusBadRequest, `task 2: ` + gpuE},
		{"admit task 0 before non-canonical task 2", "/v1/admit",
			`{"tasks":[` + task(gpu) + `,` + task(ok) + `,` + task(upper) + `]}`,
			http.StatusBadRequest, `task 0: ` + gpuE},
		{"admit duplicate tasks key", "/v1/admit",
			`{"tasks":[` + task(upper) + `],"tasks":[` + task(ok) + `,` + task(gpu) + `]}`,
			http.StatusBadRequest, `task 1: ` + gpuE},
		{"admit case-folded key", "/v1/admit",
			`{"Tasks":[` + task(ok) + `,{"GRAPH":` + gpu + `,"period":10,"deadline":10}]}`,
			http.StatusBadRequest, `task 1: ` + gpuE},
		{"admit float period", "/v1/admit",
			`{"tasks":[{"graph":` + ok + `,"period":1.5,"deadline":10}]}`,
			http.StatusBadRequest, `json: cannot unmarshal number 1.5 into Go struct field admitTask.tasks.period of type int64`},
		{"delta limit then syntax", "/v1/admit/delta",
			`{"base":` + zero + `,"add":[` + task(ok) + `,` + task(ok) + `],"remove":[` + zero + `,` + zero + `],}`,
			http.StatusBadRequest, `invalid character '}' looking for beginning of object key string`},
		{"delta base before limit", "/v1/admit/delta",
			`{"add":[` + task(ok) + `,` + task(ok) + `],"remove":[` + zero + `,` + zero + `],"base":"zz"}`,
			http.StatusBadRequest, `base: taskset: bad fingerprint ` + badZ},
		{"delta limit before edits", "/v1/admit/delta",
			`{"base":` + zero + `,"add":[` + task(gpu) + `,` + task(ok) + `],"remove":[` + zero + `,` + zero + `]}`,
			http.StatusBadRequest, `4 delta edits exceed the 3 limit`},
		{"delta add before remove and update", "/v1/admit/delta",
			`{"update":[{"old":"zz","task":` + task(ok) + `}],"remove":["zz"],"add":[` + task(gpu) + `],"base":` + zero + `}`,
			http.StatusBadRequest, `add 0: ` + gpuE},
		{"delta remove before update", "/v1/admit/delta",
			`{"update":[{"old":"zz","task":` + task(ok) + `}],"remove":["zz"],"base":` + zero + `}`,
			http.StatusBadRequest, `remove 0: taskset: bad task digest ` + badZ},
		{"delta update old before task", "/v1/admit/delta",
			`{"base":` + zero + `,"update":[{"task":` + task(gpu) + `,"old":"zz"}]}`,
			http.StatusBadRequest, `update 0: old: taskset: bad task digest ` + badZ},
		{"delta update 0 before update 1", "/v1/admit/delta",
			`{"base":` + zero + `,"update":[{"old":` + zero + `,"task":` + task(gpu) + `},{"old":"zz"}]}`,
			http.StatusBadRequest, `update 0: task: ` + gpuE},
		{"delta non-canonical add 1 before update", "/v1/admit/delta",
			`{"base":` + zero + `,"update":[{"old":` + zero + `,"task":` + task(gpu) + `}],"add":[` + task(ok) + `,` + task(upper) + `]}`,
			http.StatusBadRequest, `add 1: ` + gpuE},
		{"delta duplicate base key", "/v1/admit/delta",
			`{"base":"zz","add":[` + task(gpu) + `],"base":` + zero + `}`,
			http.StatusBadRequest, `add 0: ` + gpuE},
		{"batch limit then syntax", "/v1/analyze/batch",
			`{"graphs":[` + ok + `,` + ok + `,` + ok + `,` + ok + `],}`,
			http.StatusBadRequest, `invalid character '}' looking for beginning of object key string`},
		{"batch limit", "/v1/analyze/batch",
			`{"graphs":[` + gpu + `,` + ok + `,` + ok + `,` + ok + `]}`,
			http.StatusRequestEntityTooLarge, `4 graphs exceed the 3 per-batch limit`},
	}
	base := startDaemon(t, "-max-batch", "3")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(tc.name, "syntax") && !json.Valid([]byte(tc.body)) {
				t.Fatalf("body is not JSON: %s", tc.body)
			}
			resp, data := post(t, base+tc.endpoint, []byte(tc.body))
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.code, data)
			}
			var out struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatalf("%v: %s", err, data)
			}
			if out.Error != tc.want {
				t.Errorf("error %q, want %q", out.Error, tc.want)
			}
		})
	}

	// Per-graph decode errors inside a batch are per-item reports, in
	// order, whichever decoder read the body.
	for _, body := range []string{
		`{"graphs":[` + gpu + `,` + ok + `,` + upper + `]}`,
		`{"graphs":[` + ok + `],"graphs":[` + gpu + `,` + ok + `,` + upper + `]}`,
	} {
		resp, data := post(t, base+"/v1/analyze/batch", []byte(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, resp.StatusCode, data)
		}
		var out struct {
			Reports []struct {
				Error string `json:"error"`
			} `json:"reports"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range out.Reports {
			got = append(got, r.Error)
		}
		if want := []string{gpuE, "", gpuE}; !slices.Equal(got, want) {
			t.Errorf("%s: report errors %q, want %q", body, got, want)
		}
	}
}
