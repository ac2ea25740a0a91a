package cache

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// The fmt-based encoder below is the canonical stream's reference form:
// the append-based encoder in canon.go must hash exactly the same bytes,
// or every address in every running cache (and every ring placement)
// would silently move.

func refRequestKey(w *codegen.Workload, scheme string, cfg sim.Config, extra ...string) Key {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00", canonVersion)
	refWorkload(h, w)
	fmt.Fprintf(h, "scheme\x00%s\x00", scheme)
	refConfig(h, cfg)
	for _, e := range extra {
		fmt.Fprintf(h, "extra\x00%s\x00", e)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

func refCompileKey(filename string, src []byte, schemes []string, cfg sim.Config) Key {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00compile\x00", canonVersion)
	fmt.Fprintf(h, "file\x00%s\x00", filename)
	fmt.Fprintf(h, "src[%d]\x00", len(src))
	h.Write(src)
	fmt.Fprintf(h, "\x00schemes[%d]\x00", len(schemes))
	for _, s := range schemes {
		fmt.Fprintf(h, "%s\x00", s)
	}
	refConfig(h, cfg)
	var k Key
	h.Sum(k[:0])
	return k
}

func refWorkload(h io.Writer, w *codegen.Workload) {
	fmt.Fprintf(h, "workload\x00%s\x00depth=%d\x00", w.Name, w.Nest.Depth())
	for _, ix := range w.Nest.Indexes {
		fmt.Fprintf(h, "index\x00%s\x00%d\x00%d\x00", ix.Name, ix.Lo, ix.Hi)
	}
	refBody(h, w.Nest.Body)
}

func refBody(h io.Writer, body []loop.Node) {
	fmt.Fprintf(h, "body[%d]\x00", len(body))
	for _, n := range body {
		switch v := n.(type) {
		case loop.StmtNode:
			refStmt(h, v.S)
		case loop.IfNode:
			fmt.Fprintf(h, "if\x00%s\x00", v.Name)
			refBody(h, v.Then)
			fmt.Fprintf(h, "else\x00")
			refBody(h, v.Else)
		default:
			fmt.Fprintf(h, "node?%T\x00", n)
		}
	}
}

func refStmt(h io.Writer, s *deps.Stmt) {
	fmt.Fprintf(h, "stmt\x00%s\x00cost=%d\x00", s.Name, s.Cost)
	refRefs(h, "w", s.Writes)
	refRefs(h, "r", s.Reads)
}

func refRefs(h io.Writer, kind string, refs []deps.Ref) {
	fmt.Fprintf(h, "%s[%d]\x00", kind, len(refs))
	for _, r := range refs {
		fmt.Fprintf(h, "%s\x00", r.Array)
		for _, a := range r.Index {
			refAffine(h, a)
		}
	}
}

func refAffine(h io.Writer, a expr.Affine) {
	fmt.Fprintf(h, "aff(%d", a.Const)
	for _, c := range a.Coef {
		fmt.Fprintf(h, ",%d", c)
	}
	fmt.Fprintf(h, ")\x00")
}

func refConfig(h io.Writer, c sim.Config) {
	fmt.Fprintf(h, "config\x00P=%d bus=%d cov=%v mem=%d mod=%d sync=%d sched=%d data=%d max=%d disp=%d chunk=%d\x00",
		c.Processors, c.BusLatency, c.BusCoverage, c.MemLatency, c.Modules,
		c.SyncOpCost, c.SchedOverhead, c.DataLatency, c.MaxCycles, int(c.Dispatch), c.ChunkSize)
	if c.FaultPlan.Enabled() {
		fmt.Fprintf(h, "fault\x00%s\x00", c.FaultPlan.Canon())
	}
	if c.Recover.Enabled() {
		fmt.Fprintf(h, "recover\x00%s\x00", c.Recover.Canon())
	}
}

// keyWorkloads is every built-in workload at a few shapes, plus every
// .do program under the parser's testdata.
func keyWorkloads(t testing.TB) []*codegen.Workload {
	var ws []*codegen.Workload
	for _, n := range []int64{3, 40, 1000} {
		for _, cost := range []int64{1, 4, 97} {
			ws = append(ws,
				workloads.Fig21(n, cost),
				workloads.Nested(n, 8, cost),
				workloads.Branchy(n, cost),
				workloads.Recurrence(n, 3, cost),
				workloads.Stencil(n, cost))
		}
	}
	files, _ := filepath.Glob("../lang/testdata/*.do")
	if len(files) == 0 {
		t.Fatal("no .do programs under ../lang/testdata")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		w, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		ws = append(ws, w)
	}
	return ws
}

// keyConfigs covers every Config field at a non-default value, negative
// values, and armed fault and recovery sections.
func keyConfigs() []sim.Config {
	cfgs := []sim.Config{canonCfg, {}}
	wide := sim.Config{Processors: 64, BusLatency: -3, BusCoverage: true, MemLatency: 7,
		Modules: 5, SyncOpCost: 2, SchedOverhead: 9, DataLatency: 11, MaxCycles: 1 << 40,
		Dispatch: sim.DispatchChunked, ChunkSize: 13}
	cfgs = append(cfgs, wide)
	armed := canonCfg
	armed.FaultPlan = fault.Plan{Seed: 7, DropProb: 0.25, DelayProb: 1e-7, DelayCycles: 8,
		TornProb: 0.5, TornOrder: fault.OwnerFirst, HaltProc: 2, HaltAtCycle: 300}
	armed.Recover = sim.Recover{AfterCycles: 50, MaxReclaims: 3}
	return append(cfgs, armed)
}

// TestRequestKeyMatchesReference: the append-based keys are byte-identical
// to the fmt-based reference over every built-in workload shape, every
// testdata program, schemes, configs (armed sections included) and extras.
func TestRequestKeyMatchesReference(t *testing.T) {
	schemes := []string{"", "ref", "process(X=8,improved)", "naïve\x00<&>"}
	extras := [][]string{nil, {"mode=verify dynamic=true maxIters=0"}, {"a", "", "b"}}
	n := 0
	for _, w := range keyWorkloads(t) {
		for _, s := range schemes {
			for _, cfg := range keyConfigs() {
				for _, ex := range extras {
					if got, want := RequestKey(w, s, cfg, ex...), refRequestKey(w, s, cfg, ex...); got != want {
						t.Fatalf("%s/%q/%+v/%q: key %s, reference %s", w.Name, s, cfg, ex, got, want)
					}
					n++
				}
			}
		}
	}
	t.Logf("%d keys match the reference encoding", n)
}

// TestCompileKeyMatchesReference is the same pin for compile addresses.
func TestCompileKeyMatchesReference(t *testing.T) {
	srcs := [][]byte{nil, []byte("package p\n"), make([]byte, 100<<10)}
	files, _ := filepath.Glob("../../testdata/go/*.go")
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	for _, src := range srcs {
		for _, fn := range []string{"input.go", "", "dir/ü.go"} {
			for _, schemes := range [][]string{nil, {"ref"}, {"process(X=8,improved)", "ref", "instance"}} {
				for _, cfg := range keyConfigs() {
					if got, want := CompileKey(fn, src, schemes, cfg), refCompileKey(fn, src, schemes, cfg); got != want {
						t.Fatalf("%q/%d bytes/%q: key %s, reference %s", fn, len(src), schemes, got, want)
					}
				}
			}
		}
	}
}

// TestRequestKeyGolden pins a few absolute addresses, so the encoder and
// its reference cannot drift together.
func TestRequestKeyGolden(t *testing.T) {
	cases := []struct {
		name string
		key  Key
		want string
	}{
		{"fig21/ref", RequestKey(workloads.Fig21(40, 4), "ref", canonCfg), goldenFig21Ref},
		{"nested/process/verify", RequestKey(workloads.Nested(40, 8, 4), "process(X=8,improved)", canonCfg,
			"mode=verify dynamic=true maxIters=0"), goldenNestedVerify},
		{"compile", CompileKey("input.go", []byte("package p\n"), []string{"ref"}, canonCfg), goldenCompile},
	}
	for _, c := range cases {
		if got := c.key.String(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

// BenchmarkRequestKey times one /run address: the append-based encoder
// against the fmt-based reference it replaced.
func BenchmarkRequestKey(b *testing.B) {
	w := workloads.Nested(40, 8, 4)
	for _, bc := range []struct {
		name string
		fn   func(*codegen.Workload, string, sim.Config, ...string) Key
	}{{"append", RequestKey}, {"fmt-reference", refRequestKey}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn(w, "process(X=8,improved)", canonCfg)
			}
		})
	}
}

// Addresses computed by the fmt-based encoder before the rewrite.
const (
	goldenFig21Ref     = "aec5741a66e7f235b91983d338dbb294e5e2a0be7aeb6d8cb45e7ccd2b034057"
	goldenNestedVerify = "a11825e62a407a1b0678d63c85f1e085b227d700ca2b41134ad3cceb7b1b91c5"
	goldenCompile      = "604891b4eb55d39828d5f4ab2cf2ed3d706c1dd8e90ea38af3812db4048a421c"
)
