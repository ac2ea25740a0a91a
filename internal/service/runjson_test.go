package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/sim"
)

// stdRunJSON is the reference rendering: json.Encoder with the service's
// indent, as writeJSON produces it.
func stdRunJSON(t testing.TB, r *RunResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(*r); err != nil {
		t.Fatalf("json.Encoder: %v", err)
	}
	return buf.Bytes()
}

func checkRunJSON(t testing.TB, what string, r *RunResponse) {
	t.Helper()
	got, ok := appendRunResponse(nil, r)
	if !ok {
		t.Fatalf("%s: encoder refused a finite response", what)
	}
	if want := stdRunJSON(t, r); !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder output differs from json.Encoder\n got: %q\nwant: %q", what, got, want)
	}
}

// TestEncodeRunResponseAllPairs: every built-in workload x scheme at
// P in {1,3,8}, cached and uncached, plus armed fault and recovery runs,
// renders byte-identically to json.Encoder.
func TestEncodeRunResponseAllPairs(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	defer s.Drain(context.Background())
	halt := fault.Plan{HaltProc: 1, HaltAtCycle: 50}
	noisy := fault.Plan{Seed: 3, DelayProb: 0.2, DelayCycles: 4, DupProb: 0.1, ModuleDelayProb: 0.1}
	cases, recovered, faulted := 0, 0, 0
	for _, wname := range WorkloadNames() {
		wl, err := WorkloadSpec{Name: wname, N: 24}.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, sname := range SchemeNames() {
			for _, p := range []int{1, 3, 8} {
				cfgs := []sim.Config{ConfigSpec{P: p}.SimConfig()}
				if p == 3 {
					c := cfgs[0]
					c.FaultPlan = noisy
					cfgs = append(cfgs, c)
					c.FaultPlan, c.Recover = halt, sim.Recover{AfterCycles: 40}
					cfgs = append(cfgs, c)
				}
				for _, cfg := range cfgs {
					rr, err := s.executeRun(context.Background(), wl, SchemeSpec{Name: sname}, cfg)
					if err != nil {
						continue // a refused pair is not an encoding case
					}
					resp := rr.resp
					if resp.Recovery != nil {
						recovered++
					}
					if resp.Stats.Faults.Total() > 0 {
						faulted++
					}
					resp.Key = "0123abcd"
					checkRunJSON(t, wname+"/"+sname, &resp)
					resp.Cached = true
					checkRunJSON(t, wname+"/"+sname+"/cached", &resp)
					cases++
				}
			}
		}
	}
	if cases < 60 || recovered == 0 || faulted == 0 {
		t.Fatalf("%d encodable pairs, %d recovered, %d with faults; the table lost coverage", cases, recovered, faulted)
	}
	t.Logf("%d responses x {uncached, cached} match json.Encoder", cases)
}

// TestEncodeRunResponseEdges covers what the simulator rarely produces:
// escapes, invalid UTF-8, float formats, nil vs empty slices, a recovery
// report with and without its omitempty fields, and non-finite floats
// (refused, so the caller falls back to encoding/json).
func TestEncodeRunResponseEdges(t *testing.T) {
	rec := &sim.RecoveryReport{Recovered: true, Proc: 2, HaltedAt: 9, ReclaimedAt: 19, Attempts: 1, CostCycles: 10}
	full := &sim.RecoveryReport{Proc: -1, Iteration: 4, ResumedOp: 2, Reassigned: 7, Attempts: 3}
	for name, r := range map[string]RunResponse{
		"zero":        {},
		"empty procs": {Stats: sim.Stats{Procs: []sim.ProcStats{}}},
		"strings": {Workload: "a<b>&c\"d\\e\x00\x01\x1f\x7f\b\f\n\r\t", Scheme: "\u00fc \u20ac \U0001F600 \u2028 \u2029 \u00a0",
			Key: "bad\xff\xfe utf8 \xe2\x82"},
		"floats":  {Speedup: 1e-7, Utilization: 1e21},
		"floats2": {Speedup: -0.000001, Utilization: 123456789.125},
		"floats3": {Speedup: 5e-324, Utilization: math.MaxFloat64},
		"recovery": {Recovered: true, Recovery: rec,
			Stats: sim.Stats{Recovery: rec, Faults: fault.Counts{Halts: 1}}},
		"recovery omitempty": {Recovery: full, Stats: sim.Stats{Recovery: full,
			Faults: fault.Counts{Drops: 1, Delays: 2, Dups: 3, StaleReads: 4, Torn: 5, ModuleDelays: 6, SlowOps: 7, Halts: 8, Stalls: 9}}},
		"negatives": {SerialCycles: -1, Cycles: math.MinInt64, Foot: codegen.Footprint{SyncVars: -3}},
	} {
		checkRunJSON(t, name, &r)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendRunResponse(nil, &RunResponse{Speedup: f}); ok {
			t.Errorf("encoder accepted non-finite %v", f)
		}
	}
}

// TestEncodeRunResponseCoversFields fills every field of RunResponse and of
// every struct it embeds — sim.Stats, sim.ProcStats, codegen.Footprint,
// fault.Counts, sim.RecoveryReport — with a distinct non-zero value by
// reflection, so a field added to any of them (which json.Encoder would
// then render) fails here until runjson.go writes it too.
func TestEncodeRunResponseCoversFields(t *testing.T) {
	var r RunResponse
	n := 0
	fillDistinct(reflect.ValueOf(&r).Elem(), &n)
	checkRunJSON(t, "every field set", &r)

	// The encoder is written against these exact types; a new nested type
	// needs its own writer.
	covered := map[reflect.Type]bool{
		reflect.TypeOf(RunResponse{}): true, reflect.TypeOf(sim.Stats{}): true,
		reflect.TypeOf(sim.ProcStats{}): true, reflect.TypeOf(codegen.Footprint{}): true,
		reflect.TypeOf(fault.Counts{}): true, reflect.TypeOf(sim.RecoveryReport{}): true,
	}
	var walk func(reflect.Type)
	walk = func(tp reflect.Type) {
		switch tp.Kind() {
		case reflect.Pointer, reflect.Slice:
			walk(tp.Elem())
		case reflect.Struct:
			if !covered[tp] {
				t.Errorf("RunResponse reaches struct %v, which runjson.go has no writer for", tp)
				return
			}
			for i := 0; i < tp.NumField(); i++ {
				walk(tp.Field(i).Type)
			}
		}
	}
	walk(reflect.TypeOf(RunResponse{}))
}

// fillDistinct sets every settable leaf under v to a value no other leaf
// shares; pointers are allocated and slices get two elements.
func fillDistinct(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillDistinct(v.Index(0), n)
		fillDistinct(v.Index(1), n)
	case reflect.Int, reflect.Int64, reflect.Int32:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString("s" + string(rune('A'+*n%26)))
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic("fillDistinct: unhandled kind " + v.Kind().String())
	}
}

// FuzzEncodeRunResponse mutates the strings, floats, counters and the
// nil/empty shapes of Procs, Recovery and Faults; the encoder must match
// json.Encoder byte for byte, or refuse exactly the non-finite floats.
func FuzzEncodeRunResponse(f *testing.F) {
	f.Add("fig21", "process(X=8,improved)", "<a&b>", 1.5, 0.25, int64(10), uint8(3), uint8(0), true)
	f.Add("\u00fc\x00\u2028", "\xff", "", 0.0, 1e-7, int64(-1), uint8(0), uint8(1), false)
	f.Add("", "", "\t\n", 1e21, 5e-324, int64(1<<62), uint8(1), uint8(2), true)
	f.Fuzz(func(t *testing.T, wl, scheme, key string, speedup, util float64, n int64, procs, shape uint8, cached bool) {
		r := RunResponse{
			Workload: wl, Scheme: scheme, Key: key, Cached: cached,
			SerialCycles: n, Cycles: n / 3, Speedup: speedup, Utilization: util,
			SyncOps: -n, Polls: n % 7,
			Foot:  codegen.Footprint{SyncVars: int(n % 100), StorageWords: n},
			Stats: sim.Stats{Cycles: n, SyncOps: n / 2, MaxModuleQueue: int(procs)},
		}
		switch procs % 3 {
		case 1:
			r.Stats.Procs = []sim.ProcStats{}
		case 2:
			for i := 0; i < int(procs%9); i++ {
				r.Stats.Procs = append(r.Stats.Procs, sim.ProcStats{Busy: n + int64(i), Idle: int64(i)})
			}
		}
		if shape&1 != 0 {
			r.Recovered = shape&2 != 0
			r.Recovery = &sim.RecoveryReport{Recovered: r.Recovered, Proc: int(procs), Iteration: n % 5, CostCycles: n}
			r.Stats.Recovery = r.Recovery
		}
		if shape&4 != 0 {
			r.Stats.Faults = fault.Counts{Drops: n % 3, Halts: int64(shape % 2), Stalls: n % 2}
		}
		got, ok := appendRunResponse(nil, &r)
		finite := !math.IsNaN(speedup) && !math.IsInf(speedup, 0) && !math.IsNaN(util) && !math.IsInf(util, 0)
		if ok != finite {
			t.Fatalf("encoder ok=%v for speedup=%v utilization=%v", ok, speedup, util)
		}
		if !ok {
			return
		}
		if want := stdRunJSON(t, &r); !bytes.Equal(got, want) {
			t.Fatalf("encoder output differs from json.Encoder\n got: %q\nwant: %q", got, want)
		}
	})
}

// BenchmarkEncodeRunResponse renders one cached-hit /run answer (fig21,
// process scheme, P=8) through the appending encoder and through the
// json.Encoder path it replaced.
func BenchmarkEncodeRunResponse(b *testing.B) {
	s := NewServer(Options{Workers: 1})
	defer s.Drain(context.Background())
	wl, _ := WorkloadSpec{Name: "fig21"}.Build()
	rr, err := s.executeRun(context.Background(), wl, SchemeSpec{Name: "process"}, ConfigSpec{}.SimConfig())
	if err != nil {
		b.Fatal(err)
	}
	resp := rr.resp
	resp.Key, resp.Cached = "aec5741a66e7f235b91983d338dbb294e5e2a0be7aeb6d8cb45e7ccd2b034057", true
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = appendRunResponse(buf[:0], &resp)
		}
	})
	b.Run("json.Encoder", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			enc.Encode(resp)
		}
	})
}
