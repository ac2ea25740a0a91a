package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs every workload n times, each run in its own process with
// its own seed, alternating the workload order between rounds, and prints
// each metric's median, quartiles and spread: the evidence behind the
// bounds in BENCHMARK.json.
func steadiness(n int, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{"hot-hits", "cold-mix", "cluster-sweep"}
	if o.workload != "" {
		names = []string{o.workload}
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for r := 0; r < n; r++ {
		order := append([]string(nil), names...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			seed := o.seed + uint64(r)
			trace := "0"
			if o.trace {
				trace = "1"
			}
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", trace)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", name, seed, err, out.String())
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[name][m] = append(values[name][m], v.Value)
				units[m] = v.Unit
			}
			fmt.Fprintf(os.Stderr, "round %d %s seed %d done\n", r+1, name, seed)
		}
	}
	fmt.Printf("%-14s %-26s %12s %12s %12s %9s %9s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "range/med")
	for _, name := range names {
		var metrics []string
		for m := range values[name] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			v := append([]float64(nil), values[name][m]...)
			sort.Float64s(v)
			q1, med, q3 := quartiles(v)
			iqr, rng := 0.0, 0.0
			if med != 0 {
				iqr, rng = (q3-q1)/med, (v[len(v)-1]-v[0])/med
			}
			fmt.Printf("%-14s %-26s %12.5g %12.5g %12.5g %9.4f %9.4f  %s\n", name, m, q1, med, q3, iqr, rng, units[m])
		}
	}
	return nil
}

// quartiles follows Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), which is how the spread is judged.
func quartiles(sorted []float64) (q1, med, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1) // 1-based rank
		j := int(pos)
		if j < 1 {
			return sorted[0]
		}
		if j >= n {
			return sorted[n-1]
		}
		return sorted[j-1] + (pos-float64(j))*(sorted[j]-sorted[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
