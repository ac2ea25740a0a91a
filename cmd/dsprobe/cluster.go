package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/csrd-repro/datasync/internal/cluster"
	"github.com/csrd-repro/datasync/internal/service"
)

// probeCluster boots a 3-node in-process cluster on real TCP ports and
// drives the cluster-specific failure modes end to end:
//
//  1. a request through a non-owner node is forwarded to its owner, and a
//     repeat through a different node hits the owner's cache;
//  2. a node killed mid-/sweep is healed around — its sub-grids are stolen
//     by the survivors and the merged response matches a single-node oracle
//     byte for byte (modulo cache provenance);
//  3. a hot tenant burning through its admission budget is shed with 429 +
//     Retry-After while the circuit breaker stays closed and other tenants
//     keep being served.
func probeCluster(ctx context.Context) {
	lc, err := cluster.StartLocal(3, cluster.Options{
		PeerToken:  "probe-secret",
		StealChunk: 1, // finest granularity: every point is stealable
		// A dead peer should be detected in tens of milliseconds.
		PeerAttempts:  2,
		PeerBaseDelay: 25 * time.Millisecond,
		Tenant:        cluster.TenantPolicy{Rate: 5, Burst: 5},
	}, service.Options{Workers: 2})
	if err != nil {
		fatalf("cluster: %v", err)
	}
	defer lc.Stop(ctx)
	addr := lc.Addr

	// Phase 1: cross-node forwarding and the cluster-wide cache.
	runReq := service.RunRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 30},
		Scheme:   service.SchemeSpec{Name: "process", X: 4},
		Config:   service.ConfigSpec{P: 4},
	}
	key, err := service.RunKey(runReq)
	if err != nil {
		fatalf("cluster: run key: %v", err)
	}
	owner := lc.Nodes[0].Ring().Owner(key).ID
	var edges []int
	for i := range lc.Nodes {
		if lc.Members[i].ID != owner {
			edges = append(edges, i)
		}
	}
	code, body, hdr := post(ctx, addr(edges[0])+"/run", runReq, "probe")
	if code != http.StatusOK {
		fatalf("cluster: /run via edge %s: %d %s", lc.Members[edges[0]].ID, code, body)
	}
	if got := hdr.Get("X-DSServe-Node"); got != owner {
		fatalf("cluster: run served by %q, ring owner is %q", got, owner)
	}
	code, body, _ = post(ctx, addr(edges[1])+"/run", runReq, "probe")
	var rr service.RunResponse
	if code != http.StatusOK || json.Unmarshal([]byte(body), &rr) != nil {
		fatalf("cluster: repeat /run via edge %s: %d %s", lc.Members[edges[1]].ID, code, body)
	}
	if !rr.Cached {
		fatalf("cluster: repeat through a second node missed the cluster cache: %s", body)
	}
	forwards := metricValue(getText(ctx, addr(edges[0])+"/metrics"), "dsserve_peer_forwards_total") +
		metricValue(getText(ctx, addr(edges[1])+"/metrics"), "dsserve_peer_forwards_total")
	if forwards < 2 {
		fatalf("cluster: edge nodes report %d forwards, want >= 2", forwards)
	}
	fmt.Printf("dsprobe: cross-node cache hit via owner %s (%d forwards)\n", owner, forwards)

	// Phase 2: kill a node mid-sweep; the merged answer must still equal
	// the single-node oracle. StealChunk 1 over a 128-point grid means one
	// peer dispatch per point with only three sequential workers draining
	// them, so a kill a few milliseconds in lands mid-flight with dispatches
	// to the dead node still pending. N is sized so a single point costs
	// several milliseconds: at kill time every worker must still be early
	// in its queue, or the in-process self worker can steal the dead
	// node's whole queue before its worker ever trips over the corpse.
	sweep := service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 512},
		Scheme:   service.SchemeSpec{Name: "process"},
		Grid: service.SweepGrid{X: []int{2, 4}, P: []int{2, 4, 6, 8},
			Chunk: []int64{1, 2, 3, 4}, BusLatency: []int64{1, 2}},
	}
	type sweepOut struct {
		code int
		body string
	}
	done := make(chan sweepOut, 1)
	go func() {
		code, body, _ := post(ctx, addr(0)+"/sweep", sweep, "probe")
		done <- sweepOut{code, body}
	}()
	time.Sleep(10 * time.Millisecond)
	lc.Kill(2)
	fmt.Println("dsprobe: killed node n2 mid-sweep")
	out := <-done
	if out.code != http.StatusOK {
		fatalf("cluster: sweep after node kill: %d %s", out.code, out.body)
	}
	var got service.SweepResponse
	if err := json.Unmarshal([]byte(out.body), &got); err != nil {
		fatalf("cluster: decode sweep: %v", err)
	}

	oracle, err := cluster.SweepOracle(ctx, sweep)
	if err != nil {
		fatalf("cluster: oracle sweep: %v", err)
	}
	if diff := cluster.SweepMismatch(&got, oracle); diff != "" {
		fatalf("cluster: merged sweep diverges from the single-node oracle: %s\ncluster: %s", diff, out.body)
	}
	if got.Failed != 0 {
		fatalf("cluster: %d points failed after node kill, want 0 (survivors must re-execute)", got.Failed)
	}
	_, steals, peerErrs := lc.Nodes[0].Counters()
	if lc.Nodes[0].Ring().Has("n2") && peerErrs == 0 {
		fatalf("cluster: killed node still live in the coordinator's ring with no peer errors")
	}
	fmt.Printf("dsprobe: merged Pareto (%d points) matches oracle after node loss (steals=%d peerErrors=%d)\n",
		len(got.Pareto), steals, peerErrs)

	// Phase 3: a hot tenant is shed without touching the breaker.
	okCount, shedCount := 0, 0
	sawRetryAfter := false
	for i := 0; i < 12; i++ {
		code, body, hdr := post(ctx, addr(0)+"/run", runReq, "hot")
		switch code {
		case http.StatusOK:
			okCount++
		case http.StatusTooManyRequests:
			shedCount++
			if hdr.Get("Retry-After") != "" && hdr.Get("Retry-After") != "0" {
				sawRetryAfter = true
			}
		default:
			fatalf("cluster: hot tenant request %d: %d %s", i, code, body)
		}
	}
	if okCount == 0 || shedCount == 0 || !sawRetryAfter {
		fatalf("cluster: hot tenant saw %d OK / %d shed (retry-after: %v), want both with Retry-After", okCount, shedCount, sawRetryAfter)
	}
	code, body, _ = post(ctx, addr(1)+"/run", runReq, "cool")
	if code != http.StatusOK {
		fatalf("cluster: cool tenant during hot shed: %d %s", code, body)
	}
	m := getText(ctx, addr(0)+"/metrics")
	if !bytes.Contains([]byte(m), []byte(`dsserve_tenant_shed_total{tenant="hot"}`)) {
		fatalf("cluster: metrics missing the hot tenant shed counter:\n%s", m)
	}
	if !bytes.Contains([]byte(m), []byte("dsserve_breaker_state 0")) {
		fatalf("cluster: breaker left the closed state during tenant shedding:\n%s", m)
	}
	fmt.Printf("dsprobe: hot tenant shed (%d ok / %d shed) with breaker closed\n", okCount, shedCount)
	fmt.Println("dsprobe: cluster forward/steal/shed cycle verified")
}
