package service

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/sim"
)

// The /run answer is the one response a cached hit renders on every
// request, so it is appended directly instead of going through reflection
// and a re-indent pass. The output must be exactly what json.Encoder with
// SetIndent("", "  ") writes for a RunResponse — HTML escaping, the float
// format, null for nil, {} and [] for empty, the trailing newline — and
// that equivalence is pinned by runjson_test.go: a table over every
// built-in pair, a fuzz target, and a reflection check that fails when one
// of the encoded structs gains a field this file does not write.

// jsonWriter appends indented JSON. count is the number of members written
// at the current nesting level; open returns the enclosing level's count
// for close to restore.
type jsonWriter struct {
	b     []byte
	depth int
	count int
	// bad records a value encoding/json refuses (a NaN or infinite float);
	// the caller then falls back to encoding/json for its error path.
	bad bool
}

func (e *jsonWriter) open(c byte) int {
	e.b = append(e.b, c)
	e.depth++
	outer := e.count
	e.count = 0
	return outer
}

func (e *jsonWriter) close(c byte, outer int) {
	e.depth--
	if e.count > 0 {
		e.newline()
	}
	e.b = append(e.b, c)
	e.count = outer
}

// indents is a newline followed by the indentation of the deepest level a
// RunResponse reaches (the fields of stats.Procs[i], at depth 4).
const indents = "\n        "

func (e *jsonWriter) newline() {
	e.b = append(e.b, indents[:1+2*e.depth]...)
}

// elem starts the next array element or object member.
func (e *jsonWriter) elem() {
	if e.count > 0 {
		e.b = append(e.b, ',')
	}
	e.count++
	e.newline()
}

// key starts an object member; names are the package's own ASCII field
// names, which need no escaping.
func (e *jsonWriter) key(name string) {
	e.elem()
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':', ' ')
}

func (e *jsonWriter) int(name string, v int64) {
	e.key(name)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *jsonWriter) bool(name string, v bool) {
	e.key(name)
	e.b = strconv.AppendBool(e.b, v)
}

func (e *jsonWriter) str(name, v string) {
	e.key(name)
	e.b = appendJSONString(e.b, v)
}

// float writes v the way encoding/json does: ES6 number formatting, with
// exponent form below 1e-6 and from 1e21, and single-digit negative
// exponents unpadded.
func (e *jsonWriter) float(name string, v float64) {
	e.key(name)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		e.bad = true
		return
	}
	f := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		f = 'e'
	}
	e.b = strconv.AppendFloat(e.b, v, f, -1, 64)
	if f == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s exactly as encoding/json does with HTML
// escaping on: <, > and & as \u00XX, the short escapes for \b \f \n \r \t,
// other control bytes as \u00XX, invalid UTF-8 as \ufffd, and U+2028 and
// U+2029 escaped.
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
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendRunResponse appends r as indented JSON plus the trailing newline.
// ok is false when r holds a value encoding/json refuses (a non-finite
// float); the caller must then render through encoding/json instead.
func appendRunResponse(b []byte, r *RunResponse) (out []byte, ok bool) {
	e := jsonWriter{b: b}
	top := e.open('{')
	e.str("workload", r.Workload)
	e.str("scheme", r.Scheme)
	e.str("key", r.Key)
	e.bool("cached", r.Cached)
	e.int("serialCycles", r.SerialCycles)
	e.int("cycles", r.Cycles)
	e.float("speedup", r.Speedup)
	e.float("utilization", r.Utilization)
	e.int("syncOps", r.SyncOps)
	e.int("waitSyncCycles", r.WaitSync)
	e.int("busBroadcasts", r.BusTx)
	e.int("busSaved", r.BusSaved)
	e.int("moduleAccesses", r.ModuleAcc)
	e.int("polls", r.Polls)
	e.key("footprint")
	e.footprint(&r.Foot)
	if r.Recovered {
		e.bool("recovered", true)
	}
	if r.Recovery != nil {
		e.key("recovery")
		e.recovery(r.Recovery)
	}
	e.key("stats")
	e.stats(&r.Stats)
	e.close('}', top)
	e.b = append(e.b, '\n')
	return e.b, !e.bad
}

func (e *jsonWriter) footprint(f *codegen.Footprint) {
	outer := e.open('{')
	e.int("SyncVars", int64(f.SyncVars))
	e.int("InitOps", f.InitOps)
	e.int("StorageWords", f.StorageWords)
	e.close('}', outer)
}

func (e *jsonWriter) recovery(r *sim.RecoveryReport) {
	outer := e.open('{')
	e.bool("recovered", r.Recovered)
	e.int("proc", int64(r.Proc))
	e.int("haltedAt", r.HaltedAt)
	e.int("reclaimedAt", r.ReclaimedAt)
	if r.Iteration != 0 {
		e.int("iteration", r.Iteration)
	}
	if r.ResumedOp != 0 {
		e.int("resumedOp", int64(r.ResumedOp))
	}
	if r.Reassigned != 0 {
		e.int("reassigned", r.Reassigned)
	}
	e.int("attempts", int64(r.Attempts))
	e.int("costCycles", r.CostCycles)
	e.close('}', outer)
}

func (e *jsonWriter) stats(s *sim.Stats) {
	outer := e.open('{')
	e.int("Cycles", s.Cycles)
	e.key("Procs")
	if s.Procs == nil {
		e.b = append(e.b, "null"...)
	} else {
		procs := e.open('[')
		for i := range s.Procs {
			e.elem()
			e.procStats(&s.Procs[i])
		}
		e.close(']', procs)
	}
	e.int("SyncOps", s.SyncOps)
	e.int("BusBroadcasts", s.BusBroadcasts)
	e.int("BusSaved", s.BusSaved)
	e.int("ModuleAccesses", s.ModuleAccesses)
	e.int("ModuleQueueWait", s.ModuleQueueWait)
	e.int("MaxModuleQueue", int64(s.MaxModuleQueue))
	e.int("Polls", s.Polls)
	e.int("Iterations", s.Iterations)
	e.key("Faults")
	e.faults(&s.Faults)
	e.key("Recovery")
	if s.Recovery == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.recovery(s.Recovery)
	}
	e.close('}', outer)
}

func (e *jsonWriter) procStats(p *sim.ProcStats) {
	outer := e.open('{')
	e.int("Busy", p.Busy)
	e.int("WaitSync", p.WaitSync)
	e.int("WaitMem", p.WaitMem)
	e.int("Idle", p.Idle)
	e.close('}', outer)
}

func (e *jsonWriter) faults(c *fault.Counts) {
	outer := e.open('{')
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"drops", c.Drops}, {"delays", c.Delays}, {"dups", c.Dups},
		{"staleReads", c.StaleReads}, {"torn", c.Torn}, {"moduleDelays", c.ModuleDelays},
		{"slowOps", c.SlowOps}, {"halts", c.Halts}, {"stalls", c.Stalls},
	} {
		if f.v != 0 {
			e.int(f.name, f.v)
		}
	}
	e.close('}', outer)
}

// runBufs recycles /run encode buffers; a response with a few hundred
// processors stays well under maxPooledRun.
var runBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

const maxPooledRun = 64 << 10
