package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
)

// options is one benchmark run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int    // set-up repetitions; setup_s is their median
	testdata string // frontend corpus for /compile
	traceOut string // span file of a traced run
	sz       sizes
}

// sizes are the workloads' shape parameters; the self-tests shrink them.
type sizes struct {
	hotKeys       int // distinct hot-set keys
	coldWarm      int // cold warm-phase requests: the result cache's capacity
	coldTemplates int // /run and /verify templates each
	sweepWarm     int // warm-phase sweeps
	sweepBases    int // base workloads sweeps draw from
	samples       int // answers kept for the post-window recompute
}

var defaultSizes = sizes{hotKeys: 300, coldWarm: 1024, coldTemplates: 512, sweepWarm: 48, sweepBases: 48, samples: 48}

// client is one closed-loop client: it sends its next request only after
// the previous answer arrived.
type client struct {
	id    int
	conns []*conn     // one per node
	buf   []byte      // render buffer
	next  int64       // requests this client has started, across phases
	slice int         // the window slice the current request runs in
	lat   []latSample // successful requests of the current window

	attempted, failed, rejects int64
	wrong                      []string // first few wrong-answer reports

	log     *spanLog // nil when untraced
	st      replayStats
	lastLat int64 // round trip of the last traced request
}

// outcome files one request's result with its client.
func (c *client) outcome(status int, err error, correct bool, why string, lat int64) {
	c.attempted++
	switch {
	case err != nil:
		c.failed++
		c.report(fmt.Sprintf("transport: %v", err))
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		c.failed++
		c.rejects++
	case status != http.StatusOK || !correct:
		c.failed++
		c.report(fmt.Sprintf("status %d: %s", status, why))
	default:
		c.lat = append(c.lat, latSample{lat, c.slice})
	}
}

func (c *client) report(s string) {
	if len(c.wrong) < 5 {
		c.wrong = append(c.wrong, s)
	}
}

// send times one round trip.
func (c *client) send(node int, wire []byte) (int, []byte, int64, error) {
	t0 := time.Now()
	status, resp, err := c.conns[node].do(wire)
	return status, resp, int64(time.Since(t0)), err
}

// workload is one traffic mix.
type workload interface {
	nodes() int
	clients() int
	// prepare generates and pre-encodes the request streams.
	prepare(o *options) error
	// warm runs the warm phase against a freshly booted fleet.
	warm(b *bench) error
	// step sends client c's next window request and checks the answer.
	step(b *bench, c *client)
	// check recomputes the sampled answers after the window and returns
	// how many disagree.
	check(b *bench) (int, error)
	// guard fails the run when the window's counters show the workload
	// no longer has the shape it is meant to measure.
	guard(d counters) error
	// tailQ is the tail percentile reported as tail_ms.
	tailQ() float64
	// allocSample is a fixed list of /run bodies from the warm stream for
	// the codegen.alloc_kb_per_run probe.
	allocSample() [][]byte
}

// bench is one run's state shared by the workload and its clients.
type bench struct {
	o       *options
	w       workload
	f       *fleet
	rp      *replayer
	clients []*client
	base    time.Time
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "hot-hits":
		return &hotHits{}, nil
	case "cold-mix":
		return &coldMix{}, nil
	case "cluster-sweep":
		return &clusterSweep{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (hot-hits, cold-mix, cluster-sweep)", name)
}

// boot starts a fresh fleet with fresh clients (and, traced, a fresh
// replay cache holding what the fleet holds: nothing yet).
func (b *bench) boot() error {
	f, err := bootFleet(b.w.nodes())
	if err != nil {
		return err
	}
	b.f = f
	b.rp = &replayer{cache: cache.New(dsserveService(nil).CacheSize), ring: f.nodes[0].Ring()}
	b.clients = b.clients[:0]
	for i := 0; i < b.w.clients(); i++ {
		c := &client{id: i, buf: make([]byte, 0, 4096)}
		for _, a := range f.addrs {
			c.conns = append(c.conns, dial(a))
		}
		if b.o.trace {
			c.log = newSpanLog(b.base)
		}
		b.clients = append(b.clients, c)
	}
	return nil
}

func (b *bench) shutdown() {
	for _, c := range b.clients {
		for _, cn := range c.conns {
			cn.close()
		}
	}
	if b.f != nil {
		b.f.close()
		b.f = nil
	}
}

// parallel runs fn once per client concurrently and waits.
func (b *bench) parallel(fn func(c *client) error) error {
	errs := make([]error, len(b.clients))
	var wg sync.WaitGroup
	for i, c := range b.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// latSample is one successful request's latency and the slice it ran in.
type latSample struct {
	ns    int64
	slice int
}

// windowResult is one timed window's client-side totals. Times marked
// "scaled" are at nominal host speed (see probe.go).
type windowResult struct {
	elapsed                    time.Duration // the slices' wall time, probe pauses excluded
	scaledSec                  float64       // the slices' wall time, scaled
	cpuNs, scaledCPUNs         float64       // process CPU outside the probes, as measured and scaled
	scale                      float64       // median scale of the slices
	slices                     int
	ok                         int     // successful requests
	p50, tail, tailQ           float64 // scaled latency quantiles (ns) of the successes
	rawP50, rawTail            float64 // the same quantiles as measured
	attempted, failed, rejects int64
	wrong                      []string
}

// window drives every client closed-loop for d, in slices separated by
// host-speed probes, and collects the totals. The clients hold a read lock
// for each request; a probe takes the write lock, so it starts once the
// requests in flight have finished and runs while the clients wait. The
// per-request latencies are summarized and released before it returns, so
// they do not count towards the live heap measured after it.
func (b *bench) window(d time.Duration) windowResult {
	for _, c := range b.clients {
		c.attempted, c.failed, c.rejects = 0, 0, 0
	}
	var (
		gate  sync.RWMutex
		slice int  // guarded by gate
		done  bool // guarded by gate
		wg    sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	gate.Lock()
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				gate.RLock()
				if done {
					gate.RUnlock()
					return
				}
				c.slice = slice
				b.w.step(b, c)
				gate.RUnlock()
			}
		}(c)
	}
	var (
		probes              []float64
		sliceWall, sliceCPU []float64
		ru                  syscall.Rusage
		cpu0                int64
	)
	for {
		b.f.quiesce()
		runtime.GC()
		// A slice's CPU time runs to here, so it includes the background
		// work and the garbage its requests left; only the probes are
		// left out.
		syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		if len(probes) > 0 {
			sliceCPU = append(sliceCPU, float64(cpuNs(ru)-cpu0))
		}
		probes = append(probes, probe())
		if !time.Now().Before(deadline) {
			done = true
			gate.Unlock()
			break
		}
		slice = len(sliceWall)
		syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		cpu0 = cpuNs(ru)
		t0 := time.Now()
		gate.Unlock()
		time.Sleep(min(sliceLen, time.Until(deadline)))
		gate.Lock()
		sliceWall = append(sliceWall, float64(time.Since(t0)))
	}
	wg.Wait()

	scale := scales(probes, len(sliceWall))
	res := windowResult{scale: median(scale), slices: len(sliceWall)}
	for s := range sliceWall {
		res.elapsed += time.Duration(sliceWall[s])
		res.scaledSec += sliceWall[s] * scale[s] / 1e9
		res.cpuNs += sliceCPU[s]
		res.scaledCPUNs += sliceCPU[s] * scale[s]
	}
	var raw, scaled []float64
	for _, c := range b.clients {
		for _, l := range c.lat {
			raw = append(raw, float64(l.ns))
			scaled = append(scaled, float64(l.ns)*scale[l.slice])
		}
		c.lat = nil
		res.attempted += c.attempted
		res.failed += c.failed
		res.rejects += c.rejects
		res.wrong = append(res.wrong, c.wrong...)
	}
	sort.Float64s(raw)
	sort.Float64s(scaled)
	res.ok = len(raw)
	res.tailQ = tailPercentile(len(raw), b.w.tailQ())
	res.p50, res.tail = quantile(scaled, 0.5), quantile(scaled, res.tailQ)
	res.rawP50, res.rawTail = quantile(raw, 0.5), quantile(raw, res.tailQ)
	return res
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runBench executes one run: repeated set-up, the timed window (or, traced,
// an untraced then a traced window), the answer checks and the guards.
// notes collects the human-readable lines printed before the result.
func runBench(o *options, notes io.Writer) (*result, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := w.prepare(o); err != nil {
		return nil, fmt.Errorf("prepare %s: %w", o.workload, err)
	}
	b := &bench{o: o, w: w, base: time.Now()}
	defer b.shutdown()

	setups := o.setups
	if o.trace {
		setups = 1 // the traced set-up replays every warm request
	}
	var setupTimes []float64
	for r := 0; r < setups; r++ {
		b.shutdown()
		runtime.GC()
		t0 := time.Now()
		if err := b.boot(); err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		if err := w.warm(b); err != nil {
			return nil, fmt.Errorf("warm phase: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 2
	}
	// Tracing stays off for the first (or only) window.
	logs := make([]*spanLog, len(b.clients))
	for i, c := range b.clients {
		logs[i], c.log = c.log, nil
	}

	b.f.settle()
	before, err := b.f.snapshot()
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	var depthSum, depthN int64
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if o.trace {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			t := time.NewTicker(time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-t.C:
					depthSum += int64(b.f.queueDepth())
					depthN++
				}
			}
		}()
	}

	win := b.window(dur)

	close(stopSampler)
	sampler.Wait()
	runtime.ReadMemStats(&ms)
	alloc1 := ms.TotalAlloc
	b.f.settle()
	// Twice: the first collection only moves sync.Pool contents to the
	// pools' victim caches; the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapLive := float64(ms.HeapAlloc) / (1 << 20)

	after, err := b.f.snapshot()
	if err != nil {
		return nil, err
	}
	delta := after.sub(before)
	guardErr := w.guard(delta)

	res := &result{Attempted: win.attempted, Failed: win.failed, Metrics: map[string]metric{}}
	ok := int64(win.ok)

	var traced windowResult
	if o.trace {
		for i, c := range b.clients {
			c.log = logs[i]
		}
		traced = b.window(dur)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		win.wrong = append(win.wrong, traced.wrong...)
	}

	mismatches, checkErr := w.check(b)
	if checkErr != nil {
		return nil, fmt.Errorf("answer check: %w", checkErr)
	}
	res.Failed += int64(mismatches)
	ok -= int64(mismatches)
	if ok < 0 {
		ok = 0
	}

	p50, tail := win.p50/1e6, win.tail/1e6
	fmt.Fprintf(notes, "%s seed=%d window=%.2fs clients=%d nodes=%d\n", o.workload, o.seed, win.elapsed.Seconds(), w.clients(), w.nodes())
	fmt.Fprintf(notes, "  setup_s samples as measured: %v\n", roundAll(setupTimes))
	fmt.Fprintf(notes, "  p50_ms %.4f (n=%d)  tail_ms p%g %.4f (%d beyond)\n", p50, win.ok,
		win.tailQ*100, tail, int(float64(win.ok)*(1-win.tailQ)))
	fmt.Fprintf(notes, "  host scale %.4f (median over %d slices); as measured: p50_ms %.4f tail_ms %.4f throughput_rps %.1f cpu_ms_per_req %.4f\n",
		win.scale, win.slices, win.rawP50/1e6, win.rawTail/1e6,
		float64(ok)/win.elapsed.Seconds(), win.cpuNs/1e6/float64(max(ok, 1)))
	fmt.Fprintf(notes, "  attempted=%d failed=%d rejects=%d mismatches=%d\n", win.attempted, win.failed, win.rejects, mismatches)
	for _, s := range win.wrong {
		fmt.Fprintf(notes, "  WRONG: %s\n", s)
	}

	if !o.trace {
		put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
		// Set-up ran on the same host seconds before the window, so it
		// takes the window's median scale.
		put("setup_s", median(setupTimes)*win.scale, "s")
		put("throughput_rps", float64(ok)/win.scaledSec, "1/s")
		put("p50_ms", p50, "ms")
		put("tail_ms", tail, "ms")
		put("ok_ratio", float64(ok)/float64(max(win.attempted, 1)), "ratio")
		put("cpu_ms_per_req", win.scaledCPUNs/1e6/float64(max(ok, 1)), "ms")
		put("alloc_kb_per_req", float64(alloc1-alloc0)/1024/float64(max(ok, 1)), "KB")
		put("heap_live_mb", heapLive, "MB")
	} else {
		if err := b.layerMetrics(res, logs, delta, win, traced, depthSum, depthN, notes); err != nil {
			return nil, err
		}
	}

	res.Correct = res.Failed == 0 && guardErr == nil && win.ok > 0
	if guardErr != nil {
		fmt.Fprintf(notes, "  SHAPE GUARD FAILED: %v\n", guardErr)
	}
	return res, nil
}

func roundAll(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}

// layerMetrics fills the per-layer metrics of a traced run.
func (b *bench) layerMetrics(res *result, logs []*spanLog, d counters, win, traced windowResult, depthSum, depthN int64, notes io.Writer) error {
	self := selfTimes(logs)
	fmt.Fprintf(notes, "self-time table (warm phase and traced window):\n%s", layerTable(self))
	if b.o.traceOut != "" {
		if err := writeSpans(b.o.traceOut, logs); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(notes, "spans written to %s\n", b.o.traceOut)
	}
	var st replayStats
	for _, c := range b.clients {
		st.add(&c.st)
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	us := func(span string) float64 {
		v := self[span]
		if len(v) == 0 {
			return 0 // the layer is not on this workload's path
		}
		return median(v) / 1e3
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	for _, name := range []string{"service.decode", "service.encode", "workloads.build", "cache.key", "cache.get",
		"cluster.route", "codegen.instrument", "codegen.run", "codegen.extract", "codegen.sync_trace",
		"sim.serial", "sim.loop", "sim.check", "verify.static", "verify.dynamic", "frontend.lower", "service.compile"} {
		put(name+"_us", us(name), "us")
	}
	http := self["e2e"]
	if len(http) == 0 {
		return fmt.Errorf("traced run recorded no e2e spans")
	}
	put("service.http_us", median(http)/1e3, "us")
	put("service.queue_depth_mean", ratio(depthSum, depthN), "jobs")
	put("service.rejects", float64(win.rejects+traced.rejects), "count")
	put("cache.hit_ratio", ratio(d.hits, d.hits+d.misses), "ratio")
	put("cache.evictions", float64(d.evictions), "count")
	put("cluster.forward_us", forwardUs(logs), "us")
	put("cluster.steals", float64(d.steals), "count")
	put("cluster.forwards", float64(d.forwards), "count")
	put("cluster.peer_errors", float64(d.peerErrors), "count")
	put("cluster.replica_pushes", float64(d.replicaPushes), "count")
	put("cluster.replica_drops", float64(d.replicaDrops), "count")
	put("cluster.fence_replans", float64(d.fenceReplans), "count")
	var total, most int64
	for _, c := range d.completed {
		total += c
		most = max(most, c)
	}
	put("cluster.points_max_share", ratio(most, total), "ratio")
	kb, err := allocPerRun(b.w.allocSample())
	if err != nil {
		return fmt.Errorf("alloc probe: %w", err)
	}
	put("codegen.alloc_kb_per_run", kb, "KB")
	put("sim.ns_per_cycle", ratio(st.loopNs, st.loopCycles), "ns")
	put("sim.cycles_per_req", ratio(st.cycles, st.simRuns), "cycles")
	put("sim.syncops_per_req", ratio(st.syncOps, st.simRuns), "count")
	put("sim.iterations_per_req", ratio(st.iterations, st.simRuns), "count")
	put("verify.trace_events", ratio(st.traceEvents, st.dynVerifies), "count")
	put("frontend.loops", ratio(st.loops, st.compiles), "count")
	untracedP50, tracedP50 := win.p50/1e6, traced.p50/1e6
	put("trace.overhead_ms", tracedP50-untracedP50, "ms")
	fmt.Fprintf(notes, "tracing overhead: traced p50 %.4f ms - untraced p50 %.4f ms = %.4f ms\n", tracedP50, untracedP50, tracedP50-untracedP50)
	fmt.Fprintf(notes, "exact counts over %d warm-phase simulations: cycles/req %.4f syncops/req %.4f iterations/req %.4f\n",
		st.simRuns, ratio(st.cycles, st.simRuns), ratio(st.syncOps, st.simRuns), ratio(st.iterations, st.simRuns))
	return nil
}

// forwardUs pairs each "forward" span (a cached /run sent to a non-owner)
// with the "e2e" span of the same /run sent to its owner just before, and
// returns the median difference.
func forwardUs(logs []*spanLog) float64 {
	var diffs []float64
	for _, l := range logs {
		owner := map[int64]int64{}
		for _, s := range l.spans {
			if s.name == "e2e" {
				owner[s.req] = s.end - s.start
			}
		}
		for _, s := range l.spans {
			if s.name == "forward" {
				if o, ok := owner[s.req]; ok {
					diffs = append(diffs, float64(s.end-s.start-o))
				}
			}
		}
	}
	if len(diffs) == 0 {
		return 0
	}
	return median(diffs) / 1e3
}

// sameModuloCached reports whether two response bodies are equal once the
// per-request "cached" decoration is ignored.
func sameModuloCached(a, b []byte) bool {
	if bytes.Equal(a, b) {
		return true
	}
	norm := func(x []byte) []byte { return bytes.Replace(x, []byte(`"cached": true`), []byte(`"cached": false`), 1) }
	return bytes.Equal(norm(a), norm(b))
}

func isCached(resp []byte) bool { return bytes.Contains(resp, []byte(`"cached": true`)) }

// traced sends one request; with a span log it wraps the round trip in an
// e2e span named name, replays its stages under it and requires the replay
// to reproduce the answer byte for byte. c.lastLat holds the round trip.
func (b *bench) traced(c *client, node int, r request, name string) (int, []byte, error) {
	req := int64(c.id)<<40 | c.next
	e2e := c.log.begin(name, -1, req)
	status, resp, lat, err := c.send(node, r.wire)
	c.log.end(e2e)
	c.lastLat = lat
	if c.log == nil || err != nil || status != http.StatusOK {
		return status, resp, err
	}
	want, rerr := b.rp.expect(c.log, e2e, req, r.cls, r.body, &c.st)
	if rerr != nil {
		return status, resp, fmt.Errorf("replay: %w", rerr)
	}
	if !bytes.Equal(want, resp) {
		return status, resp, fmt.Errorf("replayed answer differs from the service's:\n%s\nvs\n%s", want, resp)
	}
	return status, resp, nil
}
