package dag

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzGraphJSON drives arbitrary bytes through the JSON interchange layer
// and checks the serving-layer invariants the daemon relies on:
//
//   - the canonical scanner and the encoding/json reference path agree:
//     on every input the scanner accepts, both succeed or both fail with
//     the same error text, with Equal graphs and the same Fingerprint;
//     a declined input leaves the target graph untouched;
//   - Decode, the daemon's entry point, agrees with json.Unmarshal into a
//     Graph on every input, accepted by the scanner or not;
//   - the decoded graph equals the one AddNode/AddEdge build from the same
//     nodes and edges in input order, predecessor rows included;
//   - decode → encode → decode is lossless (the re-decoded graph equals
//     the first decode) and the encoding is a fixed point (second encode is
//     byte-identical);
//   - Fingerprint is stable across the round trip and never panics, even
//     on inputs Validate would reject (cyclic graphs, zero WCETs, ...).
func FuzzGraphJSON(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"nodes":[],"edges":[]}`),
		[]byte(`{"nodes":[{"name":"v1","wcet":3,"kind":"host"},{"name":"k","wcet":8,"kind":"offload"},{"wcet":2}],"edges":[[0,1],[1,2]]}`),
		[]byte(`{"nodes":[{"wcet":1},{"wcet":8,"kind":"offload","class":2},{"wcet":5,"kind":"offload","class":3},{"wcet":2}],"edges":[[0,1],[0,2],[1,3],[2,3]]}`),
		[]byte(`{"nodes":[{"wcet":0,"kind":"sync"},{"wcet":4}],"edges":[[0,1]]}`),
		[]byte(`{"nodes":[{"wcet":1},{"wcet":2}],"edges":[[0,1],[1,0]]}`),
		[]byte(`{"nodes":[{"wcet":1},{"wcet":2},{"wcet":3}],"edges":[[0,1],[0,1],[0,2]]}`),
		[]byte(`{"nodes":[{"name":"a","wcet":-1}],"edges":[]}`),
		[]byte(`{"edges":[[0,0]]}`),
		// Model-rule errors inside the canonical form.
		[]byte(`{"edges":[[2,0],[0,1]],"nodes":[{"wcet":1},{"wcet":1,"kind":"gpu"},{"wcet":1,"class":2}]}`),
		[]byte(`{"nodes":[{"wcet":1,"kind":"sync","class":3},{"kind":"offload","class":-1}]}`),
		[]byte(" \t\r\n{ \"nodes\" : [ { \"wcet\" : 1 } , {} ] , \"edges\" : [ [ 1 , 0 ] ] } \n"),
		// One seed per fallback trigger.
		[]byte(`{"nodes":[{"name":"v\u00e9","wcet":1,"kind":"offl\u006fad"}]}`),
		[]byte(`{"nodes":[{"name":"v1","wcet":1}]}`),
		[]byte(`{"Nodes":[{"wcet":1}]}`),
		[]byte(`{"nodes":[{"WCET":1}]}`),
		[]byte(`{"nodes":[{"wcet":1,"wcet":2}]}`),
		[]byte(`{"nodes":[{"wcet":1}],"nodes":[]}`),
		[]byte(`{"nodes":[{"wcet":1,"deadline":4}],"period":9}`),
		[]byte(`null`),
		[]byte(`{"nodes":null,"edges":null}`),
		[]byte(`{"nodes":[{"wcet":1.0}]}`),
		[]byte(`{"nodes":[{"wcet":1e3}]}`),
		[]byte(`{"nodes":[{"wcet":9223372036854775808}]}`),
		[]byte(`{"nodes":[{"wcet":-9223372036854775808}]}`),
		[]byte(`{"nodes":[{"wcet":1},{"wcet":1}],"edges":[[0]]}`),
		[]byte(`{"nodes":[{"wcet":1},{"wcet":1}],"edges":[[0,1,2]]}`),
		[]byte(`{"nodes":[{"wcet":1}]} x`),
		[]byte(`{"nodes":[{"wcet":1}]}{}`),
		[]byte("{\"nodes\":[{\"name\":\"\xff\",\"wcet\":1}]}"),
		[]byte(`{"nodes":[{"wcet":01}]}`),
		[]byte(`{"nodes":[{"wcet":-0}]}`),
		[]byte(`{"nodes":[{"name":"&0"}]}`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The scanner against the reference path.
		var scanned, ref Graph
		ok, scanErr := scanCanonical(data, &scanned)
		refErr := ref.unmarshalReference(data)
		switch {
		case (!ok || scanErr != nil) && scanned.version != 0:
			t.Fatalf("declined or rejected input modified the graph: %s", data)
		case !ok:
		case (scanErr == nil) != (refErr == nil):
			t.Fatalf("scanner error %v, reference error %v\ninput: %s", scanErr, refErr, data)
		case scanErr != nil && scanErr.Error() != refErr.Error():
			t.Fatalf("error text differs\nscanner:   %v\nreference: %v\ninput: %s", scanErr, refErr, data)
		case scanErr == nil && !scanned.Equal(&ref):
			t.Fatalf("scanner and reference graphs differ\ninput: %s", data)
		case scanErr == nil && scanned.Fingerprint() != ref.Fingerprint():
			t.Fatalf("scanner and reference fingerprints differ\ninput: %s", data)
		}

		// The daemon's entry point against json.Unmarshal.
		var g Graph
		err := json.Unmarshal(data, &g)
		dec, decErr := Decode(data)
		switch {
		case (err == nil) != (decErr == nil):
			t.Fatalf("json.Unmarshal error %v, Decode error %v\ninput: %s", err, decErr, data)
		case err != nil && err.Error() != decErr.Error():
			t.Fatalf("error text differs\njson.Unmarshal: %v\nDecode:         %v\ninput: %s", err, decErr, data)
		case err != nil:
			return // invalid input must error, not panic
		case !g.Equal(dec):
			t.Fatalf("json.Unmarshal and Decode graphs differ\ninput: %s", data)
		}
		fp := g.Fingerprint()
		if got := dec.Fingerprint(); got != fp {
			t.Fatalf("json.Unmarshal and Decode fingerprints differ: %s vs %s", fp, got)
		}

		// The bulk builder against edge-by-edge construction.
		var jg jsonGraph
		if err := json.Unmarshal(data, &jg); err != nil {
			t.Fatalf("graph decoded but its wire form did not: %v", err)
		}
		kinds := map[string]NodeKind{"": Host, "host": Host, "offload": Offload, "sync": Sync}
		built := New()
		for _, n := range jg.Nodes {
			id := built.AddNode(n.Name, n.WCET, kinds[n.Kind])
			if n.Class != 0 {
				built.SetClass(id, n.Class)
			}
		}
		for _, e := range jg.Edges {
			if err := built.AddEdge(e[0], e[1]); err != nil {
				t.Fatalf("AddEdge rejects an edge the decoder accepted: %v", err)
			}
		}
		if !g.Equal(built) {
			t.Fatalf("decoded graph differs from the AddEdge build\ninput: %s", data)
		}
		for id := range g.NumNodes() {
			if !slices.Equal(g.Preds(id), built.Preds(id)) {
				t.Fatalf("node %d: preds %v, AddEdge build has %v", id, g.Preds(id), built.Preds(id))
			}
		}

		// The round trip.
		enc, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("marshal of decoded graph failed: %v", err)
		}
		var g2 Graph
		if err := json.Unmarshal(enc, &g2); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\nencoding: %s", err, enc)
		}
		if !g.Equal(&g2) {
			t.Fatalf("decode→encode→decode changed the graph\nin:  %s\nout: %s", data, enc)
		}
		if got := g2.Fingerprint(); got != fp {
			t.Fatalf("fingerprint unstable across round trip: %s vs %s", fp, got)
		}
		enc2, err := json.Marshal(&g2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not a fixed point:\n%s\n%s", enc, enc2)
		}
		// encoding/json escapes <, >, & and U+2028/9 in names; any other
		// encoding is canonical.
		if ok, err := scanCanonical(enc, &g2); (!ok && !bytes.ContainsRune(enc, '\\')) || err != nil {
			t.Fatalf("scanner declined the canonical encoding (ok=%v, err=%v): %s", ok, err, enc)
		}
	})
}
