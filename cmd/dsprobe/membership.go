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

// probeMembership boots a 3-node in-process cluster with active probing,
// replication and drain handoff, and drives the self-healing membership
// cycle end to end:
//
//  1. a cache fill on the ring owner is replicated to its successor; the
//     owner is then killed, the survivors' probes demote it, and the key
//     is served from the replica — byte-identical to the owner's cached
//     response, without recomputation;
//  2. the killed node is restarted and the survivors' probes readmit it
//     within the probe window; forwarding resumes to the original owner;
//  3. a node drains gracefully, streaming its cache to the next owners;
//     the handed-off key is a warm cross-node hit on the remaining
//     members, and a post-drain sweep still matches the single-node
//     oracle front.
func probeMembership(ctx context.Context) {
	lc, err := cluster.StartLocal(3, cluster.Options{
		PeerToken:      "probe-secret",
		PeerAttempts:   2,
		PeerBaseDelay:  25 * time.Millisecond,
		ProbeInterval:  50 * time.Millisecond,
		SuspectAfter:   2,
		RejoinAfter:    2,
		DemoteCooldown: -1, // restarts must readmit immediately in this probe
		Replicas:       1,
	}, service.Options{Workers: 2})
	if err != nil {
		fatalf("membership: %v", err)
	}
	defer lc.Stop(ctx)
	addr := lc.Addr
	idx := func(id string) int {
		for i := range lc.Members {
			if lc.Members[i].ID == id {
				return i
			}
		}
		fatalf("membership: no member %q", id)
		return -1
	}
	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				fatalf("membership: timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Phase 1: replica failover. Fill a key on its owner, wait for the
	// replica push to land on the ring successor, kill the owner, and
	// serve the key from the replica without recomputing.
	runReq := service.RunRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 36},
		Scheme:   service.SchemeSpec{Name: "process", X: 4},
		Config:   service.ConfigSpec{P: 4},
	}
	key, err := service.RunKey(runReq)
	if err != nil {
		fatalf("membership: run key: %v", err)
	}
	full := lc.Nodes[0].Ring()
	owner := full.Owner(key).ID
	succ := full.Successors(key, 1)[0].ID
	ownerIdx, succIdx := idx(owner), idx(succ)
	var otherIdx int
	for i := range lc.Members {
		if i != ownerIdx && i != succIdx {
			otherIdx = i
		}
	}

	if code, body, _ := post(ctx, addr(ownerIdx)+"/run", runReq, "probe"); code != http.StatusOK {
		fatalf("membership: fill /run on owner %s: %d %s", owner, code, body)
	}
	code, cachedBody, _ := post(ctx, addr(ownerIdx)+"/run", runReq, "probe")
	var rr service.RunResponse
	if code != http.StatusOK || json.Unmarshal([]byte(cachedBody), &rr) != nil || !rr.Cached {
		fatalf("membership: cached /run on owner: %d %s", code, cachedBody)
	}
	waitFor("replica push to "+succ, func() bool { return lc.Nodes[succIdx].Server().CacheHas(key) })

	lc.Kill(ownerIdx)
	fmt.Printf("dsprobe: killed owner %s (replica on %s)\n", owner, succ)
	waitFor("survivors to demote "+owner, func() bool {
		return lc.Nodes[succIdx].PeerState(owner) == "demoted" && lc.Nodes[otherIdx].PeerState(owner) == "demoted"
	})

	// Post directly to the successor — the node now owning the key in the
	// shrunk live ring — so the replica-hit accounting is observable.
	hitsBefore := lc.Nodes[succIdx].Membership().ReplicaHits
	code, got, hdr := post(ctx, addr(succIdx)+"/run", runReq, "probe")
	if code != http.StatusOK {
		fatalf("membership: /run after owner kill: %d %s", code, got)
	}
	if served := hdr.Get("X-DSServe-Node"); served != succ {
		fatalf("membership: degraded /run served by %q, want successor %q", served, succ)
	}
	if !bytes.Equal([]byte(got), []byte(cachedBody)) {
		fatalf("membership: replica-served bytes diverge from the owner's cached response\nowner:   %s\nreplica: %s", cachedBody, got)
	}
	if hits := lc.Nodes[succIdx].Membership().ReplicaHits; hits != hitsBefore+1 {
		fatalf("membership: successor replica hits = %d, want %d", hits, hitsBefore+1)
	}
	fmt.Printf("dsprobe: key served from replica on %s, byte-identical, no recompute\n", succ)

	// Phase 2: restart the owner on its original address; probes readmit
	// it and forwarding resumes to the original ring layout.
	if err := lc.Restart(ownerIdx); err != nil {
		fatalf("membership: %v", err)
	}
	waitFor("survivors to readmit "+owner, func() bool {
		return lc.Nodes[succIdx].PeerState(owner) == "alive" && lc.Nodes[otherIdx].PeerState(owner) == "alive"
	})
	waitFor("ring convergence", func() bool {
		v := full.Version()
		return lc.Nodes[0].Ring().Version() == v && lc.Nodes[1].Ring().Version() == v && lc.Nodes[2].Ring().Version() == v
	})
	code, got, hdr = post(ctx, addr(otherIdx)+"/run", runReq, "probe")
	if code != http.StatusOK || hdr.Get("X-DSServe-Node") != owner {
		fatalf("membership: post-rejoin /run: %d served by %q, want 200 from %q", code, hdr.Get("X-DSServe-Node"), owner)
	}
	if !bytes.Equal([]byte(got), []byte(cachedBody)) {
		fatalf("membership: post-rejoin bytes diverge from the pre-kill cached response")
	}
	rejoins := lc.Nodes[succIdx].Membership().Rejoins + lc.Nodes[otherIdx].Membership().Rejoins
	fmt.Printf("dsprobe: %s rejoined within the probe window (%d rejoins), forwarding restored\n", owner, rejoins)

	// Phase 3: graceful drain with warm handoff. Fill a key owned by the
	// drained node, drain it, and require the handed-off key to be a warm
	// cross-node hit on the remaining members.
	drainIdx := otherIdx
	drainID := lc.Members[drainIdx].ID
	drainReq := runReq
	for drainReq.Workload.N = 40; ; drainReq.Workload.N += 4 {
		k, err := service.RunKey(drainReq)
		if err != nil {
			fatalf("membership: drain key: %v", err)
		}
		if full.Owner(k).ID == drainID {
			key = k
			break
		}
	}
	if code, body, _ := post(ctx, addr(drainIdx)+"/run", drainReq, "probe"); code != http.StatusOK {
		fatalf("membership: fill /run on drain node %s: %d %s", drainID, code, body)
	}
	code, drainCached, _ := post(ctx, addr(drainIdx)+"/run", drainReq, "probe")
	if code != http.StatusOK {
		fatalf("membership: cached /run on drain node: %d %s", code, drainCached)
	}
	rep := lc.Nodes[drainIdx].DrainHandoff(ctx)
	if rep.Entries == 0 || rep.FailedBatches != 0 {
		fatalf("membership: drain handoff report %+v, want entries > 0 with no failed batches", rep)
	}
	lc.Kill(drainIdx)
	lc.Nodes[drainIdx].Stop()
	waitFor("survivors to drop the drained "+drainID, func() bool {
		return lc.Nodes[ownerIdx].PeerState(drainID) == "demoted" && lc.Nodes[succIdx].PeerState(drainID) == "demoted"
	})
	code, got, _ = post(ctx, addr(ownerIdx)+"/run", drainReq, "probe")
	if code != http.StatusOK || json.Unmarshal([]byte(got), &rr) != nil || !rr.Cached {
		fatalf("membership: handed-off key was not a warm hit on the survivors: %d %s", code, got)
	}
	recv := lc.Nodes[ownerIdx].Membership().HandoffRecvEntries + lc.Nodes[succIdx].Membership().HandoffRecvEntries
	if recv < int64(rep.Entries) {
		fatalf("membership: survivors imported %d handoff entries, drained node sent %d", recv, rep.Entries)
	}
	fmt.Printf("dsprobe: %s drained %d entries; handed-off key is a warm cross-node hit\n", drainID, rep.Entries)

	// The shrunk cluster still merges sweeps to the single-node oracle.
	sweep := service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 48},
		Scheme:   service.SchemeSpec{Name: "process"},
		Grid:     service.SweepGrid{X: []int{2, 4}, P: []int{2, 4, 8}, Chunk: []int64{1, 2}},
	}
	code, body, _ := post(ctx, addr(succIdx)+"/sweep", sweep, "probe")
	if code != http.StatusOK {
		fatalf("membership: post-drain sweep: %d %s", code, body)
	}
	var gotSweep service.SweepResponse
	if err := json.Unmarshal([]byte(body), &gotSweep); err != nil {
		fatalf("membership: decode post-drain sweep: %v", err)
	}
	oracle, err := cluster.SweepOracle(ctx, sweep)
	if err != nil {
		fatalf("membership: oracle sweep: %v", err)
	}
	if diff := cluster.SweepMismatch(&gotSweep, oracle); diff != "" || gotSweep.Failed != 0 {
		fatalf("membership: post-drain sweep diverges from the single-node oracle (%d failed) %s\n%s", gotSweep.Failed, diff, body)
	}
	fmt.Printf("dsprobe: post-drain sweep matches oracle (%d points)\n", len(gotSweep.Points))
	fmt.Println("dsprobe: kill/replica-serve/rejoin/drain-handoff cycle verified")
}
