package main

import (
	"encoding/json"
	"net/http"
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
			delta := envelope(t, map[string]any{"base": strings.Repeat("0", 64), "add": []any{task}})
			if got, want := errorText(t, "/v1/admit/delta", delta, http.StatusBadRequest), "add 0: "+tc.want; got != want {
				t.Errorf("/v1/admit/delta: error %q, want %q", got, want)
			}
		})
	}
}
