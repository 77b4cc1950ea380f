package hetrta

import (
	"encoding/json"

	"repro/internal/dag"
)

// Report decoding for the serving cache's durable tier, which stores each
// report as the bytes json.Marshal wrote for it and rebuilds the Report on
// every warm-start record, store hit and warmup record.
//
// As for the request bodies in admitdecode.go there are two front ends
// that fill the same struct. The scanner (dag.Scanner) reads the canonical
// form in one pass: the Report's own keys, spelled exactly so, each at
// most once, in any order; integer fields as integers; float fields as
// JSON numbers, converted as encoding/json converts them; strings without
// escapes; no null; bound details with distinct keys. Any byte outside
// that form sends the whole body to encoding/json, which defines the
// result and the error text of every input. A report has no model rules
// to check, so the scanner has no error of its own: a body it reads in
// full decodes without error on both paths, and every error comes from
// encoding/json.

// DecodeReport parses a Report from its JSON form: the report, or the
// error, json.Unmarshal into a new Report gives.
func DecodeReport(data []byte) (*Report, error) {
	if rep, ok := scanReport(data); ok {
		return rep, nil
	}
	return decodeReportReference(data)
}

// decodeReportReference is DecodeReport on the encoding/json path.
func decodeReportReference(data []byte) (*Report, error) {
	rep := new(Report)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// scanReport reads data in one pass; ok is false when data is outside the
// canonical form.
func scanReport(data []byte) (rep *Report, ok bool) {
	rep = new(Report)
	s := dag.NewScanner(data)
	return rep, rep.scan(&s) && s.End()
}

func (r *Report) scan(s *dag.Scanner) bool {
	return scanObject(s, func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "platform":
			return 1, scanPlatform(s, &r.Platform)
		case "graph":
			return 2, r.Graph.scan(s)
		case "bounds":
			return 4, scanSlice(s, &r.Bounds, func(b *BoundResult) bool { return scanBound(s, b) })
		case "transform":
			r.Transform = new(TransformSummary)
			return 8, r.Transform.scan(s)
		case "transforms":
			return 16, scanSlice(s, &r.Transforms, func(t *TransformStepSummary) bool { return t.scan(s) })
		case "simulation":
			r.Simulation = new(SimulationReport)
			return 32, r.Simulation.scan(s)
		case "exact":
			r.Exact = new(ExactReport)
			return 64, r.Exact.scan(s)
		case "degraded":
			r.Degraded, ok = s.Bool()
			return 128, ok
		case "degradedReason":
			r.DegradedReason, ok = scanString(s)
			return 256, ok
		case "error":
			r.Err, ok = scanString(s)
			return 512, ok
		}
		return 0, true
	})
}

func scanPlatform(s *dag.Scanner, p *Platform) bool {
	return scanObject(s, func(key []byte) (uint16, bool) {
		if string(key) != "classes" {
			return 0, true
		}
		return 1, scanSlice(s, &p.Classes, func(c *ResourceClass) bool {
			return scanObject(s, func(key []byte) (bit uint16, ok bool) {
				switch string(key) {
				case "name":
					c.Name, ok = scanString(s)
					return 1, ok
				case "count":
					c.Count, ok = s.Int()
					return 2, ok
				}
				return 0, true
			})
		})
	})
}

func (g *GraphSummary) scan(s *dag.Scanner) bool {
	return scanObject(s, func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "nodes":
			g.Nodes, ok = s.Int()
			return 1, ok
		case "edges":
			g.Edges, ok = s.Int()
			return 2, ok
		case "reducedEdges":
			g.ReducedEdges, ok = s.Int()
			return 4, ok
		case "volume":
			g.Volume, ok = s.Int64()
			return 8, ok
		case "criticalPath":
			g.CriticalPath, ok = s.Int64()
			return 16, ok
		case "offload":
			g.Offload = new(OffloadSummary)
			return 32, g.Offload.scan(s)
		case "offloads":
			g.Offloads, ok = s.Int()
			return 64, ok
		}
		return 0, true
	})
}

func (o *OffloadSummary) scan(s *dag.Scanner) bool {
	return scanObject(s, func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "node":
			o.Node, ok = s.Int()
			return 1, ok
		case "name":
			o.Name, ok = scanString(s)
			return 2, ok
		case "cOff":
			o.COff, ok = s.Int64()
			return 4, ok
		case "frac":
			o.Frac, ok = s.Float64()
			return 8, ok
		}
		return 0, true
	})
}

// scanBound is the BoundResult scanner (the type lives in internal/rta).
func scanBound(s *dag.Scanner, b *BoundResult) bool {
	return scanObject(s, func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "name":
			b.Name, ok = scanString(s)
			return 1, ok
		case "value":
			b.Value, ok = s.Float64()
			return 2, ok
		case "scenario":
			b.Scenario, ok = scanString(s)
			return 4, ok
		case "unsafe":
			b.Unsafe, ok = s.Bool()
			return 8, ok
		case "skipped":
			b.Skipped, ok = scanString(s)
			return 16, ok
		case "detail":
			return 32, scanDetail(s, &b.Detail)
		}
		return 0, true
	})
}

// scanDetail scans a bound's detail object. A repeated key is outside the
// form.
func scanDetail(s *dag.Scanner, detail *map[string]float64) bool {
	if !s.Consume('{') {
		return false
	}
	m := make(map[string]float64)
	*detail = m
	if s.Consume('}') {
		return true
	}
	for {
		key, ok := s.Str()
		if !ok || !s.Consume(':') {
			return false
		}
		v, ok := s.Float64()
		if _, dup := m[string(key)]; !ok || dup {
			return false
		}
		m[string(key)] = v
		if !s.Consume(',') {
			return s.Consume('}')
		}
	}
}

func (t *TransformSummary) scan(s *dag.Scanner) bool {
	return scanObject(s, func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "sync":
			t.Sync, ok = s.Int()
			return 1, ok
		case "lenPrime":
			t.LenPrime, ok = s.Int64()
			return 2, ok
		case "volPrime":
			t.VolPrime, ok = s.Int64()
			return 4, ok
		case "parNodes":
			return 8, scanSlice(s, &t.ParNodes, func(v *int) bool {
				*v, ok = s.Int()
				return ok
			})
		case "lenPar":
			t.LenPar, ok = s.Int64()
			return 16, ok
		case "volPar":
			t.VolPar, ok = s.Int64()
			return 32, ok
		}
		return 0, true
	})
}

func (t *TransformStepSummary) scan(s *dag.Scanner) bool {
	return scanObject(s, func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "offload":
			t.Offload, ok = s.Int()
			return 1, ok
		case "name":
			t.Name, ok = scanString(s)
			return 2, ok
		case "class":
			t.Class, ok = s.Int()
			return 4, ok
		case "cOff":
			t.COff, ok = s.Int64()
			return 8, ok
		case "sync":
			t.Sync, ok = s.Int()
			return 16, ok
		case "gate":
			t.Gate, ok = s.Int()
			return 32, ok
		case "lenPar":
			t.LenPar, ok = s.Int64()
			return 64, ok
		case "volPar":
			t.VolPar, ok = s.Int64()
			return 128, ok
		}
		return 0, true
	})
}

func (sim *SimulationReport) scan(s *dag.Scanner) bool {
	return scanObject(s, func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "policy":
			sim.Policy, ok = scanString(s)
			return 1, ok
		case "makespan":
			sim.Makespan, ok = s.Int64()
			return 2, ok
		case "makespanTransformed":
			sim.MakespanTransformed, ok = s.Int64()
			return 4, ok
		}
		return 0, true
	})
}

func (e *ExactReport) scan(s *dag.Scanner) bool {
	return scanObject(s, func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "makespan":
			e.Makespan, ok = s.Int64()
			return 1, ok
		case "status":
			e.Status, ok = scanString(s)
			return 2, ok
		case "lowerBound":
			e.LowerBound, ok = s.Int64()
			return 4, ok
		case "expansions":
			e.Expansions, ok = s.Int64()
			return 8, ok
		}
		return 0, true
	})
}
