package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/service"
)

// Request generation. Every request the benchmark sends is derived from the
// seed and encoded before the timed window: the hot set as finished wire
// bytes, the cold and sweep streams as templates whose fixed-width numeric
// slots the client overwrites in place. Either way the client only copies
// and writes bytes, so its share of CPU and allocation is small and the
// same on every run.

// mix is a splitmix64-style hash of its arguments; every seeded choice in
// the benchmark is a pure function of (seed, stream, index).
func mix(xs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h += x + 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return h
}

// Stream identifiers keep the seeded draws of different streams apart.
const (
	streamHotDraw = iota + 1
	streamCold
	streamSample
)

// class is a request's endpoint family.
type class uint8

const (
	clsRun class = iota
	clsVerify
	clsCompile
	clsSweep
	numClasses
)

func (c class) String() string { return [...]string{"run", "verify", "compile", "sweep"}[c] }

func (c class) path() string { return "/" + c.String() }

// wireRequest frames a JSON body as a complete HTTP/1.1 POST.
func wireRequest(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	return b.Bytes()
}

// request is one pre-encoded request: its body (for in-process replay and
// answer checks) and its complete wire form.
type request struct {
	cls  class
	body []byte
	wire []byte
}

func newRequest(cls class, v any) (request, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return request{}, err
	}
	return request{cls: cls, body: body, wire: wireRequest(cls.path(), body)}, nil
}

// ---- parameter space ----

var builtinWorkloads = []string{"fig21", "nested", "branchy", "recurrence", "stencil"}

// drawSpec returns the k-th valid workload x scheme x machine triple of a
// stratified parameter space: the shape (workload, scheme, processor
// count, counter folding) and the sizes and statement cost, which cycle
// through narrow ranges, are a function of k alone. Sizes keep a cold run
// near a millisecond: stencil uses a small grid, and pipeline (outer-loop
// pipelining) appears only on the depth-2 nests and never on /verify,
// which does not accept it.
func drawSpec(k int, forVerify bool) (service.WorkloadSpec, service.SchemeSpec, service.ConfigSpec) {
	wl := service.WorkloadSpec{Name: builtinWorkloads[k%len(builtinWorkloads)], Cost: 1 + int64(k/7%8)}
	k /= len(builtinWorkloads)
	depth2 := false
	switch wl.Name {
	case "fig21", "branchy":
		wl.N = 28 + int64(k%9)
	case "recurrence":
		wl.N, wl.D = 28+int64(k%9), 1+int64(k/3%4)
	case "nested":
		wl.N, wl.M, depth2 = 5+int64(k%3), 5+int64(k/3%2), true
	case "stencil":
		wl.N, depth2 = 5+int64(k%2), true
	}
	cfg := service.ConfigSpec{Coverage: k%4 == 0}
	schemes := []string{"process", "process-basic", "statement", "ref", "instance"}
	if depth2 && !forVerify {
		schemes = append(schemes, "pipeline")
	}
	sch := service.SchemeSpec{Name: schemes[k%len(schemes)]}
	g := 1 + int64(k/len(schemes)%2)
	k /= len(schemes)
	xs := []int{2, 4, 8}
	switch sch.Name {
	case "process", "process-basic":
		sch.X = xs[(k/3)%3]
	case "pipeline":
		sch.X, sch.G = xs[(k/3)%3], g
	}
	cfg.P = []int{2, 4, 8}[k%3]
	return wl, sch, cfg
}

// ---- hot set ----

// hotKey is one hot-set entry: the request and its content address.
type hotKey struct {
	request
	key cache.Key
}

// hotSet builds n distinct hot keys, about 90% /run and 10% /verify (half
// of the verifies with the dynamic trace replay). The seed enters only
// through each key's unique MaxCycles, so every seed's hot set is the
// same work under different keys.
func hotSet(seed uint64, n int) ([]hotKey, error) {
	out := make([]hotKey, 0, n)
	for i := 0; i < n; i++ {
		verify := i%10 == 9
		k := i - i/10 // stratum among this class's keys
		if verify {
			k = i / 10
		}
		wl, sch, cfg := drawSpec(k, verify)
		cfg.MaxCycles = unique(seed, phaseHot, int64(i))
		var (
			req request
			key cache.Key
			err error
		)
		if verify {
			vr := service.VerifyRequest{Workload: wl, Scheme: sch, Config: cfg, Dynamic: k%2 == 0}
			if key, err = service.VerifyKey(vr); err == nil {
				req, err = newRequest(clsVerify, vr)
			}
		} else {
			rr := service.RunRequest{Workload: wl, Scheme: sch, Config: cfg}
			if key, err = service.RunKey(rr); err == nil {
				req, err = newRequest(clsRun, rr)
			}
		}
		if err != nil {
			return nil, err
		}
		out = append(out, hotKey{request: req, key: key})
	}
	return out, nil
}

// hotDraw is the hot-set index client c sends as its j-th request.
func hotDraw(seed uint64, c, j, n int) int {
	return int(mix(seed, streamHotDraw, uint64(c), uint64(j)) % uint64(n))
}

// ---- templates ----

// Sentinels are 19-digit values (the widest int64 decimal) written into a
// template's JSON and then located in the encoded bytes; each occurrence
// becomes a fixed-width slot the client fills per request. Numbers are
// right-aligned and space-padded (JSON whitespace), digits inside a string
// are zero-padded.
const (
	slotWidth     = 19
	sentinelCost  = 7351000000000000001
	sentinelMax   = 7351000000000000002
	sentinelFile  = 7351000000000000003
	maxCyclesBase = 100_000_000 // sim's default MaxCycles; unique values sit above it
)

type slot struct {
	off  int
	zero bool // digits inside a JSON string: zero-pad instead of space-pad
}

// template is a wire request with numeric slots.
type template struct {
	cls   class
	wire  []byte
	slots []slot // in sentinel order: cost (optional), maxCycles or filename
}

// newTemplate encodes v and turns each sentinel into a slot. Sentinels not
// present in the encoding (a /compile request has no cost) are skipped.
func newTemplate(cls class, v any, sentinels ...int64) (template, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return template{}, err
	}
	wire := wireRequest(cls.path(), body)
	t := template{cls: cls, wire: wire}
	for _, s := range sentinels {
		text := []byte(strconv.FormatInt(s, 10))
		off := bytes.Index(wire, text)
		if off < 0 {
			continue
		}
		t.slots = append(t.slots, slot{off: off, zero: wire[off-1] != ':'})
	}
	return t, nil
}

// render copies the template into dst and writes vals into its slots.
func (t *template) render(dst []byte, vals ...int64) []byte {
	dst = append(dst[:0], t.wire...)
	for i, s := range t.slots {
		field := dst[s.off : s.off+slotWidth]
		v := vals[i]
		for k := slotWidth - 1; k >= 0; k-- {
			if v == 0 && k < slotWidth-1 {
				pad := byte(' ')
				if s.zero {
					pad = '0'
				}
				field[k] = pad
				continue
			}
			field[k] = byte('0' + v%10)
			v /= 10
		}
	}
	return dst
}

// body returns the rendered request's JSON body.
func body(wire []byte) []byte {
	return wire[bytes.Index(wire, []byte("\r\n\r\n"))+4:]
}

// Phases of the request streams: the timed window, the warm phase, and
// the hot set.
const (
	phaseWindow = iota
	phaseWarm
	phaseHot
)

// unique is the never-repeating key component of request i of a phase: a
// MaxCycles value above the simulator's default (so it never binds) whose
// low 23 bits are the request index, the next two the phase, and the high
// bits a per-seed lane. Streams of seeds that differ modulo 2^20 are
// therefore disjoint, and so are the phases of one seed. It is the only
// way the seed reaches a request's content: which template a request uses
// and its statement cost follow from its index, so every seed asks for
// the same work.
func unique(seed uint64, phase, i int64) int64 {
	lane := int64(seed % (1 << 20))
	return maxCyclesBase + (lane<<25 | phase<<23 | i)
}

// ---- cold mix ----

// coldBlock is the class pattern of every block of ten cold requests (the
// order inside a block is shuffled per block): 80% /run, 10% /verify with
// dynamic replay, 10% /compile.
var coldBlock = [10]class{clsRun, clsRun, clsRun, clsRun, clsRun, clsRun, clsRun, clsRun, clsVerify, clsCompile}

// coldPool is the cold stream's template pool.
type coldPool struct {
	seed    uint64
	byClass [3][]template
}

// compileSource is one accepted frontend corpus file.
type compileSource struct {
	name string
	src  []byte
}

// acceptedSources reads the frontend corpus and keeps the files the
// frontend accepts whole: at least one loop and no rejected candidate.
func acceptedSources(dir string) ([]compileSource, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []compileSource
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		o, err := service.CompileSource(filepath.Base(p), src, nil, service.ConfigSpec{})
		if err != nil {
			return nil, err
		}
		if len(o.Loops) > 0 && !o.Hard() {
			out = append(out, compileSource{name: strings.TrimSuffix(filepath.Base(p), ".go"), src: src})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no accepted frontend sources under %s", dir)
	}
	return out, nil
}

// newColdPool builds the cold template pool: perClass /run and /verify
// templates drawn from the seed, and a /compile template for every
// accepted corpus file under each of three single-scheme selections.
func newColdPool(seed uint64, perClass int, sources []compileSource) (*coldPool, error) {
	p := &coldPool{seed: seed}
	for i := 0; i < perClass; i++ {
		wl, sch, cfg := drawSpec(i, false)
		wl.Cost, cfg.MaxCycles = sentinelCost, sentinelMax
		t, err := newTemplate(clsRun, service.RunRequest{Workload: wl, Scheme: sch, Config: cfg}, sentinelCost, sentinelMax)
		if err != nil {
			return nil, err
		}
		p.byClass[clsRun] = append(p.byClass[clsRun], t)

		wl, sch, cfg = drawSpec(i, true)
		wl.Cost, cfg.MaxCycles = sentinelCost, sentinelMax
		t, err = newTemplate(clsVerify, service.VerifyRequest{Workload: wl, Scheme: sch, Config: cfg, Dynamic: true}, sentinelCost, sentinelMax)
		if err != nil {
			return nil, err
		}
		p.byClass[clsVerify] = append(p.byClass[clsVerify], t)
	}
	for _, src := range sources {
		for _, scheme := range []string{"process", "statement", "ref"} {
			req := service.CompileRequest{
				Filename: fmt.Sprintf("%s-%d.go", src.name, int64(sentinelFile)),
				Source:   string(src.src),
				Schemes:  []service.SchemeSpec{{Name: scheme}},
			}
			t, err := newTemplate(clsCompile, req, sentinelFile)
			if err != nil {
				return nil, err
			}
			p.byClass[clsCompile] = append(p.byClass[clsCompile], t)
		}
	}
	return p, nil
}

// render writes cold request i of the given phase into dst.
func (p *coldPool) render(dst []byte, phase, i int64) ([]byte, class) {
	blk := i / int64(len(coldBlock))
	pos := int(i % int64(len(coldBlock)))
	// The class at pos is a per-block permutation of coldBlock.
	perm := mix(p.seed, streamCold, uint64(phase), uint64(blk))
	order := coldBlock
	for k := len(order) - 1; k > 0; k-- {
		j := int(perm % uint64(k+1))
		perm = mix(perm)
		order[k], order[j] = order[j], order[k]
	}
	cls := order[pos]
	pool := p.byClass[cls]
	t := &pool[i%int64(len(pool))]
	u := unique(p.seed, phase, i)
	if cls == clsCompile {
		return t.render(dst, u), cls
	}
	return t.render(dst, 1+i*7%32, u), cls
}

// ---- cluster sweeps ----

// sweepGrid is every sweep's grid: 3 x 3 x 2 x 2 = 36 points.
var sweepGrid = service.SweepGrid{X: []int{2, 4, 8}, P: []int{2, 4, 8}, Chunk: []int64{1, 2}, BusLatency: []int64{1, 2}}

// sweepTemplates builds the base workloads sweeps are made from. Like
// drawSpec's, base i's shape and sizes depend on i alone; each sweep then
// gets a seeded base, statement cost and unique MaxCycles, so every one of
// its points is a never-seen key.
func sweepTemplates(n int) ([]template, error) {
	out := make([]template, 0, n)
	for i := 0; i < n; i++ {
		wl := service.WorkloadSpec{Name: []string{"fig21", "branchy", "recurrence", "nested"}[i%4], Cost: sentinelCost}
		switch wl.Name {
		case "fig21", "branchy":
			wl.N = 32 + int64(i/8%9)
		case "recurrence":
			wl.N, wl.D = 32+int64(i/8%9), 1+int64(i/4%4)
		case "nested":
			wl.N, wl.M = 5+int64(i/8%3), 5+int64(i/24%2)
		}
		req := service.SweepRequest{
			Workload: wl,
			Scheme:   service.SchemeSpec{Name: []string{"process", "process-basic"}[(i/4)%2]},
			Config:   service.ConfigSpec{MaxCycles: sentinelMax},
			Grid:     sweepGrid,
		}
		t, err := newTemplate(clsSweep, req, sentinelCost, sentinelMax)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// renderSweep writes sweep i of the given phase into dst.
func renderSweep(dst []byte, seed uint64, pool []template, phase, i int64) []byte {
	t := &pool[i%int64(len(pool))]
	return t.render(dst, 1+i*7%32, unique(seed, phase, i))
}
