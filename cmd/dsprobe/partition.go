package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/cluster"
	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/service"
)

// probeClock is a hand-advanced clock shared by every node's link injector,
// so partition-episode windows open and close exactly when the probe says —
// never on the wall clock's schedule.
type probeClock struct {
	base     time.Time
	offsetMS atomic.Int64
}

func (c *probeClock) now() time.Time {
	return c.base.Add(time.Duration(c.offsetMS.Load()) * time.Millisecond)
}

// linkTotals sums the injected link-fault counts over every node.
func linkTotals(lc *cluster.Local) fault.LinkCounts {
	var sum fault.LinkCounts
	for _, n := range lc.Nodes {
		sum = sum.Add(n.LinkCounts())
	}
	return sum
}

// probePartition verifies the partition-tolerance story in two phases.
//
// Phase A (reproducibility): the same seeded link-fault plan driven by the
// same sequential request schedule twice, against two fresh clusters, must
// inject exactly the same faults — the per-kind injected counts and every
// response's status and serving node are compared run to run.
//
// Phase B (partition window): a seeded partition episode on a hand-advanced
// clock isolates n2. While the partition holds, the minority node refuses
// to coordinate cluster sweeps (503) and the majority's sweep matches the
// single-node oracle. After the heal, probes readmit everyone, anti-entropy
// pushes the copies the partition starved n2 of until every key is back at
// full replication factor, and a cluster sweep coordinated by the healed
// minority node again matches the oracle.
func probePartition(ctx context.Context) {
	// ---- Phase A: seeded chaos is reproducible run-to-run.
	chaos := &fault.LinkPlan{Seed: 7, DropProb: 0.2, DelayProb: 0.2, DelayMS: 5, DupProb: 0.2}
	leg := func() (fault.LinkCounts, string) {
		lc, err := cluster.StartLocal(3, cluster.Options{
			PeerAttempts:        2,
			PeerBaseDelay:       5 * time.Millisecond,
			Replicas:            -1, // only the driver's forwards touch the links
			AntiEntropyInterval: -1,
			LinkFaults:          chaos,
		}, service.Options{Workers: 2})
		if err != nil {
			fatalf("partition: %v", err)
		}
		defer lc.Stop(ctx)
		var digest strings.Builder
		for i := 0; i < 60; i++ {
			req := service.RunRequest{
				Workload: service.WorkloadSpec{Name: "fig21", N: int64(24 + 2*i)},
				Scheme:   service.SchemeSpec{Name: "process", X: 4},
				Config:   service.ConfigSpec{P: 4},
			}
			code, _, hdr := post(ctx, lc.Addr(i%3)+"/run", req, "probe")
			fmt.Fprintf(&digest, "%d:%d:%s ", i, code, hdr.Get("X-DSServe-Node"))
		}
		return linkTotals(lc), digest.String()
	}
	counts1, digest1 := leg()
	counts2, digest2 := leg()
	if counts1 != counts2 {
		fatalf("partition: seeded chaos diverged between identical runs:\nrun 1: %+v\nrun 2: %+v", counts1, counts2)
	}
	if digest1 != digest2 {
		fatalf("partition: response schedule diverged between identical runs:\nrun 1: %s\nrun 2: %s", digest1, digest2)
	}
	if counts1.Total() == 0 {
		fatalf("partition: chaos plan injected nothing (counts %+v)", counts1)
	}
	fmt.Printf("dsprobe: seeded chaos reproducible: %d faults (drop %d, delay %d, dup %d) identical across two runs\n",
		counts1.Total(), counts1.Drops, counts1.Delays, counts1.Dups)

	// ---- Phase B: partition episode on a manual clock.
	clk := &probeClock{base: time.Now()}
	plan := &fault.LinkPlan{
		Seed: 42,
		Partitions: []fault.PartitionEpisode{
			{Name: "split", Islands: [][]string{{"n2"}}, StartMS: 1000, HealMS: 2000},
		},
	}
	lc, err := cluster.StartLocal(3, cluster.Options{
		PeerToken:     "probe-secret",
		PeerAttempts:  2,
		PeerBaseDelay: 25 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
		SuspectAfter:  2,
		RejoinAfter:   2,
		// After the heal the three nodes readmit at slightly different
		// moments; the cooldown keeps a slow peer's gossip from re-demoting
		// a freshly readmitted one (only probes witness recovery).
		DemoteCooldown:      time.Second,
		Replicas:            1,
		AntiEntropyInterval: 200 * time.Millisecond,
		LinkFaults:          plan,
		LinkClock:           clk.now,
	}, service.Options{Workers: 2})
	if err != nil {
		fatalf("partition: %v", err)
	}
	defer lc.Stop(ctx)
	addr := lc.Addr
	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				fatalf("partition: timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	full := lc.Nodes[0].Ring()

	// Pre-partition sanity: the episode has not started, requests flow.
	if code, body, _ := post(ctx, addr(2)+"/run", service.RunRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 24},
		Scheme:   service.SchemeSpec{Name: "process", X: 4},
		Config:   service.ConfigSpec{P: 4},
	}, "probe"); code != http.StatusOK {
		fatalf("partition: pre-partition /run via n2: %d %s", code, body)
	}

	// Open the partition window: n2 is cut from {n0, n1} in both directions.
	clk.offsetMS.Store(1500)
	waitFor("both sides to see the partition", func() bool {
		return lc.Nodes[0].PeerState("n2") == "demoted" && lc.Nodes[1].PeerState("n2") == "demoted" &&
			lc.Nodes[2].PeerState("n0") == "demoted" && lc.Nodes[2].PeerState("n1") == "demoted"
	})
	fmt.Println("dsprobe: partition open; both sides demoted across the cut")

	// The minority side must refuse to coordinate a cluster sweep.
	sweep := service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 48},
		Scheme:   service.SchemeSpec{Name: "process"},
		Grid:     service.SweepGrid{X: []int{2, 4}, P: []int{2, 4}, Chunk: []int64{1, 2}},
	}
	code, body, _ := post(ctx, addr(2)+"/sweep", sweep, "probe")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "refuses to coordinate") {
		fatalf("partition: minority /sweep answered %d %s, want a 503 refusal", code, body)
	}
	fmt.Println("dsprobe: minority node refused sweep coordination with 503")

	// The majority's sweep must match the single-node oracle.
	oracle, err := cluster.SweepOracle(ctx, sweep)
	if err != nil {
		fatalf("partition: oracle sweep: %v", err)
	}
	code, body, _ = post(ctx, addr(0)+"/sweep", sweep, "probe")
	if code != http.StatusOK {
		fatalf("partition: majority /sweep: %d %s", code, body)
	}
	var got service.SweepResponse
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		fatalf("partition: decode majority sweep: %v", err)
	}
	if diff := cluster.SweepMismatch(&got, oracle); diff != "" || got.Failed != 0 {
		fatalf("partition: majority sweep diverges from the oracle (%d failed) %s\n%s", got.Failed, diff, body)
	}
	fmt.Printf("dsprobe: majority sweep matches oracle during the partition (%d points)\n", len(got.Points))

	// Fill keys on the majority whose full-ring successor is the isolated
	// n2 — the copies the partition is starving it of.
	var repairReqs []service.RunRequest
	var repairKeys []cache.Key
	for n := int64(100); len(repairReqs) < 4; n += 2 {
		req := service.RunRequest{
			Workload: service.WorkloadSpec{Name: "fig21", N: n},
			Scheme:   service.SchemeSpec{Name: "process", X: 4},
			Config:   service.ConfigSpec{P: 4},
		}
		k, err := service.RunKey(req)
		if err != nil {
			fatalf("partition: repair key: %v", err)
		}
		if full.Owner(k).ID != "n2" && full.Successors(k, 1)[0].ID == "n2" {
			repairReqs = append(repairReqs, req)
			repairKeys = append(repairKeys, k)
		}
	}
	for _, req := range repairReqs {
		if code, body, _ := post(ctx, addr(0)+"/run", req, "probe"); code != http.StatusOK {
			fatalf("partition: mid-partition fill: %d %s", code, body)
		}
	}

	// Heal: readmission converges every ring back to the full membership.
	clk.offsetMS.Store(2500)
	waitFor("rings to converge after the heal", func() bool {
		v := full.Version()
		return lc.Nodes[0].Ring().Version() == v && lc.Nodes[1].Ring().Version() == v &&
			lc.Nodes[2].Ring().Version() == v
	})
	fmt.Println("dsprobe: partition healed; all rings converged to the full membership")

	// Anti-entropy must restore the replication factor: every mid-partition
	// key reaches its full-ring successor n2, and the scans settle at zero
	// under-replicated keys on every node.
	waitFor("anti-entropy to push the starved replicas to n2", func() bool {
		for _, k := range repairKeys {
			if !lc.Nodes[2].Server().CacheHas(k) {
				return false
			}
		}
		return true
	})
	waitFor("anti-entropy scans to settle at zero under-replicated keys", func() bool {
		for _, n := range lc.Nodes {
			if _, _, under := n.AntiEntropyStats(); under != 0 {
				return false
			}
		}
		return true
	})
	var pushes int64
	for _, n := range lc.Nodes {
		_, p, _ := n.AntiEntropyStats()
		pushes += p
	}
	if pushes < int64(len(repairKeys)) {
		fatalf("partition: anti-entropy pushed %d replicas, want >= %d", pushes, len(repairKeys))
	}
	fmt.Printf("dsprobe: anti-entropy restored replication factor (%d pushes, 0 under-replicated)\n", pushes)

	// The healed minority node coordinates again, oracle-identical.
	code, body, _ = post(ctx, addr(2)+"/sweep", sweep, "probe")
	if code != http.StatusOK {
		fatalf("partition: post-heal /sweep via n2: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		fatalf("partition: decode post-heal sweep: %v", err)
	}
	if diff := cluster.SweepMismatch(&got, oracle); diff != "" || got.Failed != 0 {
		fatalf("partition: post-heal sweep diverges from the oracle (%d failed) %s\n%s", got.Failed, diff, body)
	}

	totals := linkTotals(lc)
	if totals.Partition == 0 {
		fatalf("partition: no partition-kind faults were injected (counts %+v)", totals)
	}
	m := getText(ctx, addr(2)+"/metrics")
	if !strings.Contains(m, `dsserve_link_faults_injected_total{kind="partition"}`) {
		fatalf("partition: metrics missing the partition link-fault family:\n%s", m)
	}
	if !strings.Contains(m, "dsserve_underreplicated_keys 0") {
		fatalf("partition: metrics still report under-replicated keys:\n%s", m)
	}
	fmt.Printf("dsprobe: post-heal sweep matches oracle; %d partition cuts injected\n", totals.Partition)
	fmt.Println("dsprobe: partition/refusal/heal/anti-entropy cycle verified")
}
