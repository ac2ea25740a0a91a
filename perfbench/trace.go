package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/cluster"
	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/frontend"
	"github.com/csrd-repro/datasync/internal/service"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/verify"
)

// Tracing. A traced request is sent over HTTP under an "e2e" span; its
// stages are then replayed in-process, through the layers' public
// functions, under child spans. A span's self time is its duration minus
// its children's durations, so the e2e span's self time is the part of the
// round trip no replayed stage accounts for (HTTP, middleware, queueing).
// Spans are recorded from the benchmark's own code only; the program is
// not instrumented.

// span is one timed interval. Times are nanoseconds since the tracer base.
type span struct {
	name       string
	parent     int32 // index in the same log, -1 for a root
	req        int64
	start, end int64
}

// spanLog is one client goroutine's spans (no locking: one writer).
type spanLog struct {
	base  time.Time
	spans []span
}

func newSpanLog(base time.Time) *spanLog { return &spanLog{base: base, spans: make([]span, 0, 1<<14)} }

// begin opens a span; a nil log records nothing.
func (l *spanLog) begin(name string, parent int32, req int64) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, req: req, start: int64(time.Since(l.base))})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(id int32) {
	if l != nil {
		l.spans[id].end = int64(time.Since(l.base))
	}
}

// selfTimes returns every span's self time in nanoseconds, by name.
func selfTimes(logs []*spanLog) map[string][]float64 {
	out := make(map[string][]float64)
	for _, l := range logs {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			out[s.name] = append(out[s.name], float64(s.end-s.start-child[i]))
		}
	}
	return out
}

// writeSpans writes every span as one tab-separated line:
// client, index, parent, request, name, start_ns, end_ns.
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client\tspan\tparent\treq\tname\tstart_ns\tend_ns")
	for c, l := range logs {
		for i, s := range l.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", c, i, s.parent, s.req, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- in-process replay ----

// replayer recomputes answers in-process through the layers' public
// functions. With a span log it is the traced replay; without one it is
// the answer oracle for the cold-mix sample check. Either way it returns
// the exact bytes the service should have answered.
type replayer struct {
	cache *cache.Cache  // benchmark-owned, holding the same entries as the fleet
	ring  *cluster.Ring // the fleet's ring, for the routing stage
}

// replayStats accumulates the counts the traced run reports, per client.
type replayStats struct {
	simRuns, cycles, syncOps, iterations int64 // exact, from the warm phase
	loopNs, loopCycles                   int64 // sim.ns_per_cycle
	dynVerifies, traceEvents             int64
	compiles, loops                      int64
	warm                                 bool // inside the warm phase
}

func (st *replayStats) add(o *replayStats) {
	st.simRuns += o.simRuns
	st.cycles += o.cycles
	st.syncOps += o.syncOps
	st.iterations += o.iterations
	st.loopNs += o.loopNs
	st.loopCycles += o.loopCycles
	st.dynVerifies += o.dynVerifies
	st.traceEvents += o.traceEvents
	st.compiles += o.compiles
	st.loops += o.loops
}

// encodeIndent renders v exactly as the service's writeJSON does.
func encodeIndent(buf *bytes.Buffer, v any) error {
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// expect replays one request and returns the response body the service
// should have sent. parent is the request's e2e span (-1 when untraced).
func (rp *replayer) expect(l *spanLog, parent int32, req int64, cls class, body []byte, st *replayStats) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch cls {
	case clsRun:
		err = rp.run(l, parent, req, body, &buf, st)
	case clsVerify:
		err = rp.verify(l, parent, req, body, &buf, st)
	case clsCompile:
		err = rp.compile(l, parent, req, body, &buf, st)
	default:
		err = fmt.Errorf("no replay for %s", cls)
	}
	return buf.Bytes(), err
}

func (rp *replayer) run(l *spanLog, parent int32, req int64, body []byte, buf *bytes.Buffer, st *replayStats) error {
	var rr service.RunRequest
	s := l.begin("service.decode", parent, req)
	err := json.Unmarshal(body, &rr)
	l.end(s)
	if err != nil {
		return err
	}
	s = l.begin("workloads.build", parent, req)
	wl, err := rr.Workload.Build()
	var sch codegen.Scheme
	if err == nil {
		sch, err = rr.Scheme.Build()
	}
	l.end(s)
	if err != nil {
		return err
	}
	cfg := rr.Config.SimConfig()
	s = l.begin("cache.key", parent, req)
	key := cache.RequestKey(wl, sch.Name(), cfg)
	l.end(s)
	if err := rp.route(l, parent, req, func() (cache.Key, error) { return service.RunKey(rr) }, key); err != nil {
		return err
	}
	s = l.begin("cache.get", parent, req)
	v, hit := rp.cache.Get(key)
	l.end(s)
	var resp service.RunResponse
	if hit {
		resp = v.(service.RunResponse)
	} else {
		fresh, err := rr.Scheme.Build()
		if err != nil {
			return err
		}
		res, err := runSim(l, parent, req, wl, fresh, cfg)
		if err != nil {
			return err
		}
		if l != nil {
			if err := rp.stages(l, req, wl, rr.Scheme, cfg, res, st); err != nil {
				return err
			}
		}
		resp = runResponse(wl, res)
		rp.cache.Put(key, resp)
	}
	resp.Cached, resp.Key = hit, key.String()
	s = l.begin("service.encode", parent, req)
	err = encodeIndent(buf, resp)
	l.end(s)
	return err
}

// runSim is the codegen.Run stage.
func runSim(l *spanLog, parent int32, req int64, wl *codegen.Workload, sch codegen.Scheme, cfg sim.Config) (codegen.Result, error) {
	s := l.begin("codegen.run", parent, req)
	res, err := codegen.Run(wl, sch, cfg)
	l.end(s)
	return res, err
}

// runResponse packages a result the way the service's executeRun does.
func runResponse(wl *codegen.Workload, res codegen.Result) service.RunResponse {
	st := res.Stats
	return service.RunResponse{
		Workload:     wl.Name,
		Scheme:       res.Scheme,
		SerialCycles: res.SerialCycles,
		Cycles:       st.Cycles,
		Speedup:      res.Speedup(),
		Utilization:  st.Utilization(),
		SyncOps:      st.SyncOps,
		WaitSync:     st.WaitSyncTotal(),
		BusTx:        st.BusBroadcasts,
		BusSaved:     st.BusSaved,
		ModuleAcc:    st.ModuleAccesses,
		Polls:        st.Polls,
		Foot:         res.Foot,
		Recovered:    st.Recovery != nil && st.Recovery.Recovered,
		Recovery:     st.Recovery,
		Stats:        st,
	}
}

// route is the cluster layer's routing stage: the key recomputed from the
// request, then its owner on the ring. It must agree with the handler's key.
func (rp *replayer) route(l *spanLog, parent int32, req int64, keyOf func() (cache.Key, error), want cache.Key) error {
	s := l.begin("cluster.route", parent, req)
	k, err := keyOf()
	if err == nil && rp.ring != nil {
		rp.ring.Owner(k)
	}
	l.end(s)
	if err != nil {
		return err
	}
	if k != want {
		return fmt.Errorf("router key %s differs from handler key %s", k, want)
	}
	return nil
}

// stages replays codegen.Run step by step under a "codegen.stages" root:
// the serial oracle, instrumentation, the event loop and the
// serial-equivalence check. The replayed run must reproduce codegen.Run's
// counts exactly, or the breakdown is not a breakdown of that run.
func (rp *replayer) stages(l *spanLog, req int64, wl *codegen.Workload, sspec service.SchemeSpec, cfg sim.Config, want codegen.Result, st *replayStats) error {
	root := l.begin("codegen.stages", -1, req)
	defer l.end(root)

	s := l.begin("sim.serial", root, req)
	serialMem := sim.NewMem()
	wl.Setup(serialMem)
	serialCycles := sim.ExecSerial(wl.Nest.Iterations(), serialProgram(wl, serialMem))
	l.end(s)

	sch, err := sspec.Build()
	if err != nil {
		return err
	}
	m := sim.New(cfg)
	wl.Setup(m.Mem())
	s = l.begin("codegen.instrument", root, req)
	prog, _, err := sch.Instrument(m, wl)
	l.end(s)
	if err != nil {
		return err
	}
	iters := wl.Nest.Iterations()
	if pc, ok := sch.(interface{ Processes(*codegen.Workload) int64 }); ok {
		iters = pc.Processes(wl)
	}
	loop := l.begin("sim.loop", root, req)
	stats, err := m.RunLoop(iters, prog)
	l.end(loop)
	if err != nil {
		return err
	}
	sch.Finalize(m.Mem())
	s = l.begin("sim.check", root, req)
	diff := serialMem.Diff(m.Mem())
	l.end(s)

	if diff != "" || serialCycles != want.SerialCycles || stats.Cycles != want.Stats.Cycles || stats.SyncOps != want.Stats.SyncOps {
		return fmt.Errorf("staged replay of %s/%s diverged from codegen.Run (serial %d vs %d, cycles %d vs %d): %s",
			wl.Name, sch.Name(), serialCycles, want.SerialCycles, stats.Cycles, want.Stats.Cycles, diff)
	}
	if st != nil {
		st.loopNs += l.spans[loop].end - l.spans[loop].start
		st.loopCycles += stats.Cycles
		if st.warm {
			st.simRuns++
			st.cycles += stats.Cycles
			st.syncOps += stats.SyncOps
			st.iterations += stats.Iterations
		}
	}
	return nil
}

// serialProgram mirrors codegen's unexported serial oracle program through
// the workload's public fields: each statement as one compute op running
// its semantics in place.
func serialProgram(w *codegen.Workload, mem *sim.Mem) sim.Program {
	return func(iter int64) []sim.Op {
		idx := w.Nest.IndexOf(iter)
		locals := make(map[string]int64)
		var ops []sim.Op
		for _, s := range w.Nest.FlatBody(idx) {
			cost := s.Cost
			if w.CostOf != nil {
				cost = w.CostOf(s, idx)
			}
			ops = append(ops, sim.Compute(cost, serialExec(w, mem, idx, s, locals), s.Name))
		}
		return ops
	}
}

func serialExec(w *codegen.Workload, mem *sim.Mem, idx []int64, s *deps.Stmt, locals map[string]int64) func() {
	sem := w.Sem[s]
	if sem == nil {
		return nil
	}
	return func() {
		in := make([]int64, len(s.Reads))
		for k, r := range s.Reads {
			if len(r.Index) == 1 {
				in[k] = mem.Lookup(r.Array).Get(r.Index[0].Eval(idx))
			} else {
				in[k] = mem.LookupGrid(r.Array).Get(r.Index[0].Eval(idx), r.Index[1].Eval(idx))
			}
		}
		out := sem(idx, in, locals)
		for k, r := range s.Writes {
			if len(r.Index) == 1 {
				mem.Lookup(r.Array).Set(r.Index[0].Eval(idx), out[k])
			} else {
				mem.LookupGrid(r.Array).Set(r.Index[0].Eval(idx), r.Index[1].Eval(idx), out[k])
			}
		}
	}
}

func (rp *replayer) verify(l *spanLog, parent int32, req int64, body []byte, buf *bytes.Buffer, st *replayStats) error {
	var vr service.VerifyRequest
	s := l.begin("service.decode", parent, req)
	err := json.Unmarshal(body, &vr)
	l.end(s)
	if err != nil {
		return err
	}
	s = l.begin("workloads.build", parent, req)
	wl, err := vr.Workload.Build()
	var sch codegen.Scheme
	if err == nil {
		sch, err = vr.Scheme.Build()
	}
	l.end(s)
	if err != nil {
		return err
	}
	cfg := vr.Config.SimConfig()
	s = l.begin("cache.key", parent, req)
	key := cache.RequestKey(wl, sch.Name(), cfg, fmt.Sprintf("mode=verify dynamic=%v maxIters=%d", vr.Dynamic, vr.MaxIters))
	l.end(s)
	if err := rp.route(l, parent, req, func() (cache.Key, error) { return service.VerifyKey(vr) }, key); err != nil {
		return err
	}
	s = l.begin("cache.get", parent, req)
	v, hit := rp.cache.Get(key)
	l.end(s)
	var resp service.VerifyResponse
	if hit {
		resp = v.(service.VerifyResponse)
	} else {
		s = l.begin("codegen.extract", parent, req)
		sp, err := codegen.ExtractSyncProgram(wl, sch)
		l.end(s)
		if err != nil {
			return err
		}
		s = l.begin("verify.static", parent, req)
		static := verify.Static(sp, verify.Options{MaxIters: vr.MaxIters})
		l.end(s)
		resp = service.VerifyResponse{Workload: wl.Name, Scheme: sp.Scheme, Static: static, OK: static.OK()}
		if vr.Dynamic {
			fresh, err := vr.Scheme.Build()
			if err != nil {
				return err
			}
			s = l.begin("codegen.sync_trace", parent, req)
			_, events, rerr := codegen.RunSyncTraced(wl, fresh, cfg)
			l.end(s)
			if rerr != nil {
				resp.RunError, resp.OK = service.OneLine(rerr), false
			}
			s = l.begin("verify.dynamic", parent, req)
			resp.Dynamic = verify.Dynamic(events)
			l.end(s)
			if !resp.Dynamic.OK() {
				resp.OK = false
			}
			if st != nil {
				st.dynVerifies++
				st.traceEvents += int64(len(events))
			}
		}
		rp.cache.Put(key, resp)
	}
	resp.Cached, resp.Key = hit, key.String()
	s = l.begin("service.encode", parent, req)
	err = encodeIndent(buf, resp)
	l.end(s)
	return err
}

func (rp *replayer) compile(l *spanLog, parent int32, req int64, body []byte, buf *bytes.Buffer, st *replayStats) error {
	var cr service.CompileRequest
	s := l.begin("service.decode", parent, req)
	err := json.Unmarshal(body, &cr)
	l.end(s)
	if err != nil {
		return err
	}
	s = l.begin("cache.key", parent, req)
	key, err := service.CompileRequestKey(cr)
	l.end(s)
	if err != nil {
		return err
	}
	if err := rp.route(l, parent, req, func() (cache.Key, error) { return service.CompileRequestKey(cr) }, key); err != nil {
		return err
	}
	s = l.begin("cache.get", parent, req)
	v, hit := rp.cache.Get(key)
	l.end(s)
	var out service.CompileOutcome
	if hit {
		out = v.(service.CompileOutcome)
	} else {
		filename := cr.Filename
		if filename == "" {
			filename = "input.go"
		}
		s = l.begin("service.compile", parent, req)
		o, err := service.CompileSource(filename, []byte(cr.Source), cr.Schemes, cr.Config)
		l.end(s)
		if err != nil {
			return err
		}
		if l != nil {
			// The frontend stage on its own, as a root: CompileSource above
			// already includes one lowering.
			s = l.begin("frontend.lower", -1, req)
			lr := frontend.Lower(filename, []byte(cr.Source))
			l.end(s)
			if st != nil {
				st.compiles++
				st.loops += int64(len(lr.Loops))
			}
		}
		out = *o
		rp.cache.Put(key, out)
	}
	if len(out.Loops) == 0 {
		return fmt.Errorf("compile of %s lowered no loops", cr.Filename)
	}
	s = l.begin("service.encode", parent, req)
	err = encodeIndent(buf, service.CompileResponse{Key: key.String(), Cached: hit, CompileOutcome: out})
	l.end(s)
	return err
}

// allocPerRun measures the bytes codegen.Run allocates, averaged over the
// given runs, with nothing else of the benchmark running.
func allocPerRun(bodies [][]byte) (float64, error) {
	var before, after runtime.MemStats
	var total uint64
	n := 0
	for _, b := range bodies {
		var rr service.RunRequest
		if err := json.Unmarshal(b, &rr); err != nil {
			return 0, err
		}
		wl, err := rr.Workload.Build()
		if err != nil {
			return 0, err
		}
		sch, err := rr.Scheme.Build()
		if err != nil {
			return 0, err
		}
		cfg := rr.Config.SimConfig()
		runtime.ReadMemStats(&before)
		_, err = codegen.Run(wl, sch, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, err
		}
		total += after.TotalAlloc - before.TotalAlloc
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return float64(total) / float64(n) / 1024, nil
}

// layerTable prints the per-span self-time table, slowest total first.
func layerTable(self map[string][]float64) string {
	type row struct {
		name               string
		n                  int
		p50, p90, totalSec float64
	}
	var rows []row
	for name, v := range self {
		sorted := append([]float64(nil), v...)
		sort.Float64s(sorted)
		sum := 0.0
		for _, x := range sorted {
			sum += x
		}
		rows = append(rows, row{name, len(v), quantile(sorted, 0.5) / 1e3, quantile(sorted, 0.9) / 1e3, sum / 1e9})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].totalSec > rows[j].totalSec })
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-20s %8s %12s %12s %10s\n", "span", "count", "self p50 us", "self p90 us", "total s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %8d %12.2f %12.2f %10.3f\n", r.name, r.n, r.p50, r.p90, r.totalSec)
	}
	return b.String()
}
