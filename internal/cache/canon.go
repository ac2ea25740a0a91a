package cache

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"sync"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
)

// canonVersion prefixes every canonical encoding. Bump it whenever the
// encoding or the meaning of any encoded field changes, so stale entries
// from an older canonical form can never be served.
const canonVersion = "dsserve-canon-v1"

// canonBufs recycles the canonical-encoding buffers: a key is built on
// every request, so the stream is appended into a reused buffer and hashed
// once instead of being streamed through formatted writes.
var canonBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maxPooledCanon bounds the buffers returned to the pool, so one huge
// .do-source workload cannot pin its encoding in memory.
const maxPooledCanon = 64 << 10

func getCanon() *[]byte { return canonBufs.Get().(*[]byte) }

func putCanon(bp *[]byte, b []byte) {
	if cap(b) > maxPooledCanon {
		return
	}
	*bp = b[:0]
	canonBufs.Put(bp)
}

// RequestKey is the content address of one evaluation request: a canonical
// hash of the workload's program AST, the scheme descriptor, the simulator
// configuration, and any extra discriminators (e.g. the verification mode).
//
// Canonicalization covers everything the deterministic simulator's output
// depends on: loop index names and bounds, the body tree (statement names,
// costs, and affine read/write references; branch node names and both
// arms), the scheme's parameterized name (schemes render their parameters
// into Name(), e.g. "process(X=8,improved)"), and every Config field.
// Statement semantics are functions and cannot be hashed directly, but they
// are determined by the workload identity the AST encodes: builtin
// workloads bind semantics to their (named) statement structure, and
// .do-file workloads derive semantics from exactly the parsed AST.
func RequestKey(w *codegen.Workload, scheme string, cfg sim.Config, extra ...string) Key {
	bp := getCanon()
	b := append(*bp, canonVersion...)
	b = append(b, 0)
	b = appendWorkload(b, w)
	b = appendField(append(b, "scheme\x00"...), scheme)
	b = appendConfig(b, cfg)
	for _, e := range extra {
		b = appendField(append(b, "extra\x00"...), e)
	}
	k := Key(sha256.Sum256(b))
	putCanon(bp, b)
	return k
}

// CompileKey is the content address of one Go-source compile request (the
// /compile endpoint and the dsgo CLI). The frontend is deterministic, so
// the source bytes fully determine the lowered workloads and diagnostics;
// the key therefore hashes the raw source (length-prefixed), the labeling
// filename (it appears in diagnostic positions), the canonical
// parameterized scheme names, and the machine configuration, under its own
// "compile" section so a compile address can never collide with a run or
// verify address for related content.
func CompileKey(filename string, src []byte, schemes []string, cfg sim.Config) Key {
	bp := getCanon()
	b := append(*bp, canonVersion...)
	b = append(b, "\x00compile\x00file\x00"...)
	b = appendField(b, filename)
	b = appendCount(b, "src", len(src))
	// The source is hashed in place rather than copied into the buffer.
	h := sha256.New()
	h.Write(b)
	h.Write(src)
	b = appendCount(append(b[:0], 0), "schemes", len(schemes))
	for _, s := range schemes {
		b = appendField(b, s)
	}
	b = appendConfig(b, cfg)
	h.Write(b)
	var k Key
	h.Sum(k[:0])
	putCanon(bp, b)
	return k
}

// appendField appends s and its NUL terminator.
func appendField(b []byte, s string) []byte {
	return append(append(b, s...), 0)
}

// appendCount appends "name[n]" and a NUL: the length prefix of a list.
func appendCount(b []byte, name string, n int) []byte {
	b = append(append(b, name...), '[')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, ']', 0)
}

func appendWorkload(b []byte, w *codegen.Workload) []byte {
	b = appendField(append(b, "workload\x00"...), w.Name)
	b = strconv.AppendInt(append(b, "depth="...), int64(w.Nest.Depth()), 10)
	b = append(b, 0)
	for _, ix := range w.Nest.Indexes {
		b = appendField(append(b, "index\x00"...), ix.Name)
		b = append(strconv.AppendInt(b, ix.Lo, 10), 0)
		b = append(strconv.AppendInt(b, ix.Hi, 10), 0)
	}
	return appendBody(b, w.Nest.Body)
}

func appendBody(b []byte, body []loop.Node) []byte {
	b = appendCount(b, "body", len(body))
	for _, n := range body {
		switch v := n.(type) {
		case loop.StmtNode:
			b = appendStmt(b, v.S)
		case loop.IfNode:
			// Branch predicates are functions; the node name is their
			// canonical identity (builders name branches by condition).
			b = appendField(append(b, "if\x00"...), v.Name)
			b = appendBody(b, v.Then)
			b = append(b, "else\x00"...)
			b = appendBody(b, v.Else)
		default:
			b = appendField(append(b, "node?"...), fmt.Sprintf("%T", n))
		}
	}
	return b
}

func appendStmt(b []byte, s *deps.Stmt) []byte {
	b = appendField(append(b, "stmt\x00"...), s.Name)
	b = strconv.AppendInt(append(b, "cost="...), s.Cost, 10)
	b = append(b, 0)
	b = appendRefs(b, "w", s.Writes)
	return appendRefs(b, "r", s.Reads)
}

func appendRefs(b []byte, kind string, refs []deps.Ref) []byte {
	b = appendCount(b, kind, len(refs))
	for _, r := range refs {
		b = appendField(b, r.Array)
		for _, a := range r.Index {
			b = appendAffine(b, a)
		}
	}
	return b
}

func appendAffine(b []byte, a expr.Affine) []byte {
	b = strconv.AppendInt(append(b, "aff("...), a.Const, 10)
	for _, c := range a.Coef {
		b = strconv.AppendInt(append(b, ','), c, 10)
	}
	return append(b, ')', 0)
}

// appendConfig encodes every Config field explicitly: adding a field to
// sim.Config (or a knob to fault.Plan) without extending this encoding is
// caught by TestRequestKeyCoversConfig.
func appendConfig(b []byte, c sim.Config) []byte {
	b = strconv.AppendInt(append(b, "config\x00P="...), int64(c.Processors), 10)
	b = strconv.AppendInt(append(b, " bus="...), c.BusLatency, 10)
	b = strconv.AppendBool(append(b, " cov="...), c.BusCoverage)
	b = strconv.AppendInt(append(b, " mem="...), c.MemLatency, 10)
	b = strconv.AppendInt(append(b, " mod="...), int64(c.Modules), 10)
	b = strconv.AppendInt(append(b, " sync="...), c.SyncOpCost, 10)
	b = strconv.AppendInt(append(b, " sched="...), c.SchedOverhead, 10)
	b = strconv.AppendInt(append(b, " data="...), c.DataLatency, 10)
	b = strconv.AppendInt(append(b, " max="...), c.MaxCycles, 10)
	b = strconv.AppendInt(append(b, " disp="...), int64(c.Dispatch), 10)
	b = strconv.AppendInt(append(b, " chunk="...), c.ChunkSize, 10)
	b = append(b, 0)
	// The fault plan is appended only when armed: a disabled plan leaves
	// the encoding byte-identical to the pre-fault format, so clean runs
	// keep their established content addresses, while any armed plan gets
	// its own address and can never poison a clean entry.
	if c.FaultPlan.Enabled() {
		b = appendField(append(b, "fault\x00"...), c.FaultPlan.Canon())
	}
	// Likewise the recovery section: a recovered run schedules differently
	// from a clean run, so an armed Recover must address its own entry —
	// while a disarmed one hashes identically to the pre-recovery format.
	if c.Recover.Enabled() {
		b = appendField(append(b, "recover\x00"...), c.Recover.Canon())
	}
	return b
}
