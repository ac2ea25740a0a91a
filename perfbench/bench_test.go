package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/service"
)

const corpus = "../testdata/go"

// streams renders the first n requests of every stream a seed defines:
// the hot set and its draws, both cold phases, and both sweep phases.
func streams(t *testing.T, seed uint64, n int) map[string][][]byte {
	t.Helper()
	out := map[string][][]byte{}
	hot, err := hotSet(seed, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range hot {
		out["hot"] = append(out["hot"], k.wire)
	}
	for j := 0; j < n; j++ {
		for c := 0; c < 2; c++ {
			out["hot-draw"] = append(out["hot-draw"], hot[hotDraw(seed, c, j, len(hot))].wire)
		}
	}
	src, err := acceptedSources(corpus)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := newColdPool(seed, 32, src)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sweepTemplates(8)
	if err != nil {
		t.Fatal(err)
	}
	for phase := int64(0); phase < 2; phase++ {
		for i := int64(0); i < int64(n); i++ {
			wire, _ := cm.render(nil, phase, i)
			out["cold"] = append(out["cold"], wire)
			if i < int64(n/10) {
				out["sweep"] = append(out["sweep"], renderSweep(nil, seed, pool, phase, i))
			}
		}
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	a, b := streams(t, 42, 500), streams(t, 42, 500)
	for name, reqs := range a {
		if len(reqs) != len(b[name]) {
			t.Fatalf("%s: %d vs %d requests", name, len(reqs), len(b[name]))
		}
		for i := range reqs {
			if !bytes.Equal(reqs[i], b[name][i]) {
				t.Fatalf("%s request %d differs between two generations with one seed:\n%s\n%s", name, i, reqs[i], b[name][i])
			}
		}
	}
}

// coldKeys decodes rendered cold requests and sweeps into their content
// addresses (every sweep point's), counting requests per class.
func coldKeys(t *testing.T, wires [][]byte, sweeps [][]byte) (map[cache.Key]bool, [numClasses]int) {
	t.Helper()
	keys := map[cache.Key]bool{}
	var counts [numClasses]int
	add := func(k cache.Key, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if keys[k] {
			t.Fatalf("key %s repeats within one seed's stream", k)
		}
		keys[k] = true
	}
	for _, w := range wires {
		b := body(w)
		switch {
		case bytes.HasPrefix(w, []byte("POST /run ")):
			counts[clsRun]++
			var r service.RunRequest
			if err := strictJSON(b, &r); err != nil {
				t.Fatalf("%v: %s", err, b)
			}
			add(service.RunKey(r))
		case bytes.HasPrefix(w, []byte("POST /verify ")):
			counts[clsVerify]++
			var r service.VerifyRequest
			if err := strictJSON(b, &r); err != nil {
				t.Fatalf("%v: %s", err, b)
			}
			add(service.VerifyKey(r))
		case bytes.HasPrefix(w, []byte("POST /compile ")):
			counts[clsCompile]++
			var r service.CompileRequest
			if err := strictJSON(b, &r); err != nil {
				t.Fatalf("%v: %s", err, b)
			}
			add(service.CompileRequestKey(r))
		default:
			t.Fatalf("unexpected request %.40q", w)
		}
	}
	for _, w := range sweeps {
		counts[clsSweep]++
		var r service.SweepRequest
		if err := strictJSON(body(w), &r); err != nil {
			t.Fatal(err)
		}
		_, ks, err := service.SweepPointKeys(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			add(k, nil)
		}
	}
	return keys, counts
}

func strictJSON(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func TestSeedsGiveDisjointColdKeys(t *testing.T) {
	s1, s2 := streams(t, 1, 400), streams(t, 2, 400)
	k1, c1 := coldKeys(t, s1["cold"], s1["sweep"])
	k2, c2 := coldKeys(t, s2["cold"], s2["sweep"])
	if c1 != c2 {
		t.Fatalf("class mix differs between seeds: %v vs %v", c1, c2)
	}
	if want := [numClasses]int{640, 80, 80, 80}; c1 != want {
		t.Fatalf("class mix %v, want %v (80%% run, 10%% verify, 10%% compile)", c1, want)
	}
	for k := range k1 {
		if k2[k] {
			t.Fatalf("cold key %s appears under both seeds", k)
		}
	}
}

var smallSizes = sizes{hotKeys: 40, coldWarm: 60, coldTemplates: 16, sweepWarm: 3, sweepBases: 4, samples: 4}

// declared returns the metric names and units BENCHMARK.json declares for
// one kind of run ("end_to_end" or "per_layer").
func declared(t *testing.T, section string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// checkDeclared requires a run to print exactly the declared metrics.
func checkDeclared(t *testing.T, w string, res *result, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", w, len(res.Metrics), len(want))
	}
	for name, unit := range want {
		if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("%s: metric %s = %+v, declared with unit %s", w, name, m, unit)
		}
	}
}

// TestTracedCountsRepeat runs each workload traced twice with one seed and
// requires the exact simulation counts to match, and every run to print
// the metrics BENCHMARK.json declares.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the fleets")
	}
	exact := []string{"sim.cycles_per_req", "sim.syncops_per_req", "sim.iterations_per_req"}
	for _, w := range []string{"hot-hits", "cold-mix", "cluster-sweep"} {
		var runs [2]*result
		for i := range runs {
			o := &options{workload: w, seed: 9, seconds: 0.4, trace: true, setups: 1, testdata: corpus, sz: smallSizes}
			res, err := runBench(o, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if !res.Correct {
				t.Fatalf("%s: traced run not correct: %+v", w, res)
			}
			runs[i] = res
		}
		for _, m := range exact {
			a, b := runs[0].Metrics[m], runs[1].Metrics[m]
			if a.Value == 0 || a != b {
				t.Errorf("%s %s: %v then %v; want equal and non-zero", w, m, a.Value, b.Value)
			}
		}
		checkDeclared(t, w, runs[0], declared(t, "per_layer"))
	}
}

func TestUntracedRunsPrintDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the fleets")
	}
	for _, w := range []string{"hot-hits", "cold-mix", "cluster-sweep"} {
		o := &options{workload: w, seed: 5, seconds: 0.4, setups: 2, testdata: corpus, sz: smallSizes}
		res, err := runBench(o, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("%s: run not correct: %+v", w, res)
		}
		checkDeclared(t, w, res, declared(t, "end_to_end"))
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
