package hetrta

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/taskgen"
)

// canonicalReportSeeds are report bodies the scanner reads itself.
var canonicalReportSeeds = []string{
	`{}`,
	` { "platform" : { } , "graph" : { } } `,
	`{"platform":{"classes":[]},"bounds":[],"transforms":[]}`,
	`{"transform":{"parNodes":[]},"graph":{"offload":{}}}`,
	`{"bounds":[{"name":"x","value":-0,"detail":{}}]}`,
	`{"bounds":[{"value":1E+2},{"value":0.5e-3},{"value":-12.25}]}`,
	`{"bounds":[{"value":1e-400}]}`,
	`{"bounds":[{"value":1,"unsafe":false,"detail":{"b":2.5,"a":1}}]}`,
	`{"degraded":false,"error":"boom","degradedReason":""}`,
	`{"graph":{"volume":-9223372036854775808,"criticalPath":9223372036854775807}}`,
	`{"exact":{"makespan":6,"status":"feasible","lowerBound":5,"expansions":2},"degraded":true}`,
	`{"simulation":{"policy":"breadth-first","makespan":13,"makespanTransformed":13}}`,
	`{"error":"ü ok"}`,
}

// reportFallbackSeeds hold one body per way a report leaves the canonical
// form: an escape, null, an unknown or case-folded key, a duplicate key
// (object, struct field, detail), a float in an int field, an
// out-of-range number, a leading zero, an int -0, invalid UTF-8, trailing
// bytes, a key without a value, type errors and syntax errors. The type
// errors scan canonically up to the wrong token.
var reportFallbackSeeds = []string{
	`{"bounds":[{"name":"rh\u006fm","value":1}]}`,
	`{"transform":null}`,
	`{"bounds":null}`,
	`{"bounds":[{"value":null}]}`,
	`{"graph":{"nodes":1,"extra":2}}`,
	`{"Platform":{"classes":[]}}`,
	`{"graph":{"Nodes":1}}`,
	`{"graph":{},"graph":{"nodes":2}}`,
	`{"bounds":[{"name":"a","name":"b"}]}`,
	`{"bounds":[{"detail":{"x":1,"x":2}}]}`,
	`{"graph":{"nodes":1.5}}`,
	`{"graph":{"volume":1e3}}`,
	`{"bounds":[{"value":1e400}]}`,
	`{"graph":{"volume":9223372036854775808}}`,
	`{"graph":{"nodes":01}}`,
	`{"bounds":[{"value":-01.5}]}`,
	`{"graph":{"nodes":-0}}`,
	"{\"error\":\"\xff\"}",
	`{} {}`,
	`{"error":}`,
	`{"graph":{"nodes":"x"}}`,
	`{"degraded":"yes"}`,
	`{"degraded":1}`,
	`{"bounds":{}}`,
	`{"bounds":`,
	`[]`,
	``,
}

// goldenReports returns the report goldens, indented as recorded and
// compact as the serving cache stores them.
func goldenReports(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, p := range paths {
		name := filepath.Base(p)
		if !strings.HasPrefix(name, "admit_") {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, data); err != nil {
				t.Fatal(err)
			}
			out[name] = data
			out[name+"/compact"] = compact.Bytes()
		}
	}
	if len(out) == 0 {
		t.Fatal("no report goldens found")
	}
	return out
}

// FuzzReportDecode runs both report decoders on every body: they must
// fail with the same error text, or return deeply equal reports.
func FuzzReportDecode(f *testing.F) {
	for _, body := range goldenReports(f) {
		f.Add(body)
	}
	for _, s := range canonicalReportSeeds {
		f.Add([]byte(s))
	}
	for _, s := range reportFallbackSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rep, err := DecodeReport(body)
		ref, refErr := decodeReportReference(body)
		if !sameError(err, refErr) {
			t.Fatalf("error %v, reference error %v\nbody: %s", err, refErr, body)
		}
		if err == nil && !reflect.DeepEqual(rep, ref) {
			t.Fatalf("report differs from the reference decoder's\ngot  %+v\nwant %+v\nbody: %s", rep, ref, body)
		}
	})
}

// TestReportDecodeSeeds pins which path each seed takes: the canonical
// seeds scan, to the reference decoder's report, and every fallback seed
// leaves the form.
func TestReportDecodeSeeds(t *testing.T) {
	for _, s := range canonicalReportSeeds {
		rep, ok := scanReport([]byte(s))
		if !ok {
			t.Errorf("canonical body fell back: %s", s)
			continue
		}
		ref, err := decodeReportReference([]byte(s))
		if err != nil || !reflect.DeepEqual(rep, ref) {
			t.Errorf("scanned %+v, reference %+v (%v)\nbody: %s", rep, ref, err, s)
		}
	}
	for _, s := range reportFallbackSeeds {
		if _, ok := scanReport([]byte(s)); ok {
			t.Errorf("fallback body scanned: %s", s)
		}
	}
	// encoding/json makes an empty array a non-nil empty slice.
	rep, ok := scanReport([]byte(`{"bounds":[],"transform":{"parNodes":[]}}`))
	if !ok || rep.Bounds == nil || rep.Transform.ParNodes == nil {
		t.Fatalf("empty arrays scanned to %+v (ok %v), want non-nil empty slices", rep, ok)
	}
}

// TestReportScanCoverage checks that every report the Analyzer emits
// takes the scan path, so the one-pass decode cannot silently stop
// applying: a Small(8,24) population analyzed as the serving benchmark's
// store-spill daemon does (4+1, three safe bounds, simulation), with the
// exact stage off and on (budget-capped searches make degraded reports),
// plus the report goldens.
func TestReportScanCoverage(t *testing.T) {
	plat, err := ParsePlatform("4+1")
	if err != nil {
		t.Fatal(err)
	}
	base := []Option{
		WithPlatform(plat),
		WithBounds(RhomBound(), RhetBound(), TypedRhomBound(), NaiveBound()),
		WithPolicy(BreadthFirst),
	}
	configs := map[string][]Option{
		"exact-off": base,
		"exact-on": append(base[:len(base):len(base)],
			WithExactOptions(ExactOptions{MaxExpansions: 500}),
			WithDegradation(DegradeOptions{})),
	}
	check := func(t *testing.T, body []byte) {
		t.Helper()
		rep, ok := scanReport(body)
		if !ok {
			t.Fatalf("report fell back to encoding/json:\n%s", body)
		}
		ref, err := decodeReportReference(body)
		if err != nil || !reflect.DeepEqual(rep, ref) {
			t.Fatalf("scanned %+v, reference %+v (%v)", rep, ref, err)
		}
	}
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			an, err := NewAnalyzer(opts...)
			if err != nil {
				t.Fatal(err)
			}
			gen := taskgen.MustNew(taskgen.Small(8, 24), 2018)
			var offloads, exacts, degraded int
			for range 150 {
				g, _, _, err := gen.HetTask(0.15)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := an.Analyze(context.Background(), g)
				if err != nil {
					t.Fatal(err)
				}
				body, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				check(t, body)
				if rep.Transform != nil {
					offloads++
				}
				if rep.Exact != nil {
					exacts++
				}
				if rep.Degraded {
					degraded++
				}
			}
			if offloads == 0 || (name == "exact-on") != (exacts > 0 && degraded > 0) {
				t.Fatalf("population misses a report shape: %d with a transform, %d exact, %d degraded", offloads, exacts, degraded)
			}
		})
	}
	for name, body := range goldenReports(t) {
		t.Run(name, func(t *testing.T) { check(t, body) })
	}
}
