package hetrta

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/taskset"
)

// Hand-written JSON encoder for AdmitReport. Admission reports are
// marshaled once per cache-missing request on the serving hot path, and
// the reflection-driven encoder dominated the cost of a fully warm delta
// admission. The encoding below is byte-for-byte what encoding/json
// produces for these structs — field order, omitempty decisions, float
// formatting, and string escaping included — which the golden tests and
// the equivalence test in admitjson_test.go pin down. Any field change in
// AdmitReport, TasksetSummary, AdmitTaskSummary, taskset.PolicyResult, or
// taskset.TaskDecision must be mirrored here.

const jsonHex = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with encoding/json's
// default escaping: HTML-sensitive characters (<, >, &) and the JS line
// separators U+2028/U+2029 escape to \u form, control characters likewise
// (with the \n, \r, \t shorthands), and invalid UTF-8 becomes U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, "\ufffd"...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// floatFmt memoizes float renderings across reports. A churn stream
// re-marshals mostly-recurring values every event — response bounds of the
// unchanged priority prefix, per-task utilizations — and the shortest-float
// search is the single hottest piece of report serialization. Rendering is
// a pure function of the bit pattern (±0 included), so a hit returns
// exactly the bytes a fresh format would. Generationally cleared at
// capacity, like every other memo in the serving path.
var floatFmt = struct {
	sync.Mutex
	m map[uint64]string
}{m: make(map[uint64]string, floatFmtCap)}

const floatFmtCap = 4096

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, 'f' form except for magnitudes outside
// [1e-6, 1e21), with the exponent's leading zero trimmed.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("json: unsupported value: %v", f)
	}
	bits := math.Float64bits(f)
	floatFmt.Lock()
	s, ok := floatFmt.m[bits]
	floatFmt.Unlock()
	if ok {
		return append(b, s...), nil
	}
	n0 := len(b)
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	rendered := string(b[n0:])
	floatFmt.Lock()
	if len(floatFmt.m) >= floatFmtCap {
		floatFmt.m = make(map[uint64]string, floatFmtCap)
	}
	floatFmt.m[bits] = rendered
	floatFmt.Unlock()
	return b, nil
}

func appendPlatformJSON(b []byte, p Platform) []byte {
	b = append(b, `{"classes":`...)
	if p.Classes == nil {
		return append(b, `null}`...)
	}
	b = append(b, '[')
	for i, c := range p.Classes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = appendJSONString(b, c.Name)
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, int64(c.Count), 10)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, `true`...)
	}
	return append(b, `false`...)
}

// utilMemo holds each task summary's already-formatted utilization value:
// spans[i] slices raw. A policy decision for task i carries the same
// utilization float (vol_i/T_i both times), so its rendering is reused on
// an exact bit match instead of re-running the shortest-float search —
// the single most repeated formatting work in a report.
type utilMemo struct {
	raw   []byte
	spans [][2]int32
	vals  []float64
}

func (m *utilMemo) lookup(task int, v float64) []byte {
	if m == nil || task < 0 || task >= len(m.vals) {
		return nil
	}
	// Bit equality, not ==: distinguishes -0 from 0, so the reused bytes
	// are exactly what formatting v fresh would produce.
	if math.Float64bits(m.vals[task]) != math.Float64bits(v) {
		return nil
	}
	s := m.spans[task]
	return m.raw[s[0]:s[1]]
}

func appendTaskDecisionJSON(b []byte, d *taskset.TaskDecision, utils *utilMemo) ([]byte, error) {
	var err error
	b = append(b, `{"task":`...)
	b = strconv.AppendInt(b, int64(d.Task), 10)
	b = append(b, `,"admitted":`...)
	b = appendBool(b, d.Admitted)
	if d.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, d.Reason)
	}
	if d.R != 0 {
		b = append(b, `,"r":`...)
		if b, err = appendJSONFloat(b, d.R); err != nil {
			return nil, err
		}
	}
	b = append(b, `,"utilization":`...)
	if u := utils.lookup(d.Task, d.Utilization); u != nil {
		b = append(b, u...)
	} else if b, err = appendJSONFloat(b, d.Utilization); err != nil {
		return nil, err
	}
	if d.Cores != 0 {
		b = append(b, `,"cores":`...)
		b = strconv.AppendInt(b, int64(d.Cores), 10)
	}
	if d.Heavy {
		b = append(b, `,"heavy":true`...)
	}
	if d.UsesDevice {
		b = append(b, `,"usesDevice":true`...)
	}
	if len(d.DeviceClasses) > 0 {
		b = append(b, `,"deviceClasses":[`...)
		for i, c := range d.DeviceClasses {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

func appendPolicyResultJSON(b []byte, r *taskset.PolicyResult, utils *utilMemo) ([]byte, error) {
	var err error
	b = append(b, `{"policy":`...)
	b = appendJSONString(b, r.Policy)
	b = append(b, `,"admitted":`...)
	b = appendBool(b, r.Admitted)
	if r.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, r.Reason)
	}
	if len(r.Tasks) > 0 {
		b = append(b, `,"tasks":[`...)
		for i := range r.Tasks {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendTaskDecisionJSON(b, &r.Tasks[i], utils); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	if r.DedicatedCores != 0 {
		b = append(b, `,"dedicatedCores":`...)
		b = strconv.AppendInt(b, int64(r.DedicatedCores), 10)
	}
	if r.SharedCores != 0 {
		b = append(b, `,"sharedCores":`...)
		b = strconv.AppendInt(b, int64(r.SharedCores), 10)
	}
	if r.Iterations != 0 {
		b = append(b, `,"iterations":`...)
		b = strconv.AppendInt(b, int64(r.Iterations), 10)
	}
	return append(b, '}'), nil
}

// marshalBufs recycles MarshalJSON's scratch buffers (*[]byte).
var marshalBufs sync.Pool

// MarshalJSON implements json.Marshaler, producing exactly the bytes the
// reflection-based encoder would — repeat admissions must stay
// byte-identical across releases, so the wire format is pinned by golden
// tests rather than derived per call. The body is built in a pooled
// scratch buffer and returned as an exact-size copy (capacity equals
// length): the serving cache keeps it for the entry's lifetime, so it
// must carry no headroom.
func (r *AdmitReport) MarshalJSON() ([]byte, error) {
	bp, _ := marshalBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	b, err := r.appendJSON((*bp)[:0])
	if err == nil {
		*bp = b
		b = append(make([]byte, 0, len(b)), b...)
	}
	marshalBufs.Put(bp)
	return b, err
}

// appendJSON appends the report's JSON to b.
func (r *AdmitReport) appendJSON(b []byte) ([]byte, error) {
	var err error
	// Typical report: ~190 bytes fixed + ~315 per task across the summary
	// and two policy decision lists; the headroom keeps the buffer from
	// regrowing (one regrowth copies the whole nearly-finished body).
	if n := 320 + 368*len(r.Tasks); cap(b) < n {
		b = make([]byte, 0, n)
	}
	b = append(b, `{"platform":`...)
	b = appendPlatformJSON(b, r.Platform)
	if r.Fingerprint != "" {
		b = append(b, `,"fingerprint":`...)
		b = appendJSONString(b, r.Fingerprint)
	}
	b = append(b, `,"taskset":{"tasks":`...)
	b = strconv.AppendInt(b, int64(r.Taskset.Tasks), 10)
	b = append(b, `,"offloading":`...)
	b = strconv.AppendInt(b, int64(r.Taskset.Offloading), 10)
	b = append(b, `,"utilization":`...)
	if b, err = appendJSONFloat(b, r.Taskset.Utilization); err != nil {
		return nil, err
	}
	b = append(b, '}')
	var utils *utilMemo
	if len(r.Tasks) > 0 {
		utils = &utilMemo{
			raw:   make([]byte, 0, 24*len(r.Tasks)),
			spans: make([][2]int32, len(r.Tasks)),
			vals:  make([]float64, len(r.Tasks)),
		}
		b = append(b, `,"tasks":[`...)
		for i := range r.Tasks {
			t := &r.Tasks[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"task":`...)
			b = strconv.AppendInt(b, int64(t.Task), 10)
			b = append(b, `,"nodes":`...)
			b = strconv.AppendInt(b, int64(t.Nodes), 10)
			b = append(b, `,"volume":`...)
			b = strconv.AppendInt(b, t.Volume, 10)
			b = append(b, `,"criticalPath":`...)
			b = strconv.AppendInt(b, t.CriticalPath, 10)
			b = append(b, `,"offloads":`...)
			b = strconv.AppendInt(b, int64(t.Offloads), 10)
			b = append(b, `,"period":`...)
			b = strconv.AppendInt(b, t.Period, 10)
			b = append(b, `,"deadline":`...)
			b = strconv.AppendInt(b, t.Deadline, 10)
			if t.Jitter != 0 {
				b = append(b, `,"jitter":`...)
				b = strconv.AppendInt(b, t.Jitter, 10)
			}
			b = append(b, `,"utilization":`...)
			n0 := len(utils.raw)
			if utils.raw, err = appendJSONFloat(utils.raw, t.Utilization); err != nil {
				return nil, err
			}
			utils.spans[i] = [2]int32{int32(n0), int32(len(utils.raw))}
			utils.vals[i] = t.Utilization
			b = append(b, utils.raw[n0:]...)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(r.Policies) > 0 {
		b = append(b, `,"policies":[`...)
		for i := range r.Policies {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendPolicyResultJSON(b, &r.Policies[i], utils); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"admitted":`...)
	b = appendBool(b, r.Admitted)
	if r.Err != "" {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, r.Err)
	}
	return append(b, '}'), nil
}
