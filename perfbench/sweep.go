package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"github.com/csrd-repro/datasync/internal/service"
)

// clusterSweep: three nodes; one client sends fresh 36-point sweeps
// round-robin to the three entry nodes.
type clusterSweep struct {
	o       *options
	pool    []template
	samples []sample
}

func (*clusterSweep) nodes() int     { return 3 }
func (*clusterSweep) clients() int   { return 1 }
func (*clusterSweep) tailQ() float64 { return 0.9 }

func (cs *clusterSweep) prepare(o *options) error {
	cs.o = o
	var err error
	cs.pool, err = sweepTemplates(o.sz.sweepBases)
	return err
}

func (cs *clusterSweep) allocSample() [][]byte {
	var out [][]byte
	for i := int64(0); i < 32; i++ {
		var req service.SweepRequest
		if err := json.Unmarshal(body(renderSweep(nil, cs.o.seed, cs.pool, phaseWarm, i)), &req); err != nil {
			continue
		}
		sels, _, err := service.SweepPointKeys(req)
		if err != nil {
			continue
		}
		b, err := json.Marshal(pointRequest(req, sels[i%int64(len(sels))]))
		if err == nil {
			out = append(out, b)
		}
	}
	return out
}

// pointRequest is the /run request equivalent to one sweep point.
func pointRequest(req service.SweepRequest, sel service.GridSel) service.RunRequest {
	rr := service.RunRequest{Workload: req.Workload, Scheme: req.Scheme, Config: req.Config}
	rr.Scheme.X = sel.X
	if sel.HasG {
		rr.Scheme.G = sel.G
	}
	rr.Config.P, rr.Config.Chunk = sel.P, sel.Chunk
	lat := sel.BusLatency
	rr.Config.BusLatency = &lat
	return rr
}

func (cs *clusterSweep) warm(b *bench) error {
	c := b.clients[0]
	if c.log != nil {
		c.st.warm = true
		defer func() { c.st.warm = false }()
	}
	for i := int64(0); i < int64(cs.o.sz.sweepWarm); i++ {
		status, resp, _, err := cs.sweep(b, c, phaseWarm, i)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm sweep %d: status %d: %v: %.300s", i, status, err, resp)
		}
	}
	return nil
}

// sweep sends sweep i of a phase to entry node i mod 3 and validates the
// answer's shape: every point evaluated, none cached, a non-empty front.
// Traced, it also replays every point and pairs a sampled point's cached
// /run through its owner and through a non-owner.
func (cs *clusterSweep) sweep(b *bench, c *client, phase, i int64) (int, []byte, int64, error) {
	c.buf = renderSweep(c.buf, cs.o.seed, cs.pool, phase, i)
	node := int(i % int64(len(b.f.nodes)))
	req := int64(c.id)<<40 | c.next
	c.next++
	e2e := c.log.begin("e2e.sweep", -1, req)
	status, resp, lat, err := c.send(node, c.buf)
	c.log.end(e2e)
	if err != nil || status != http.StatusOK {
		return status, resp, lat, err
	}
	var sr service.SweepResponse
	if err := json.Unmarshal(resp, &sr); err != nil {
		return status, resp, lat, err
	}
	if sr.Failed != 0 || sr.Evaluated != len(sr.Points) || sr.CacheHits != 0 || len(sr.Pareto) == 0 {
		return status, resp, lat, fmt.Errorf("sweep answer: %d evaluated, %d failed, %d cached of %d points, %d on the front",
			sr.Evaluated, sr.Failed, sr.CacheHits, len(sr.Points), len(sr.Pareto))
	}
	if c.log != nil {
		if err := cs.replaySweep(b, c, req, e2e, body(c.buf), &sr); err != nil {
			return status, resp, lat, err
		}
	}
	return status, resp, lat, nil
}

// replaySweep replays a traced sweep: decode, per-point keys and owners,
// each point's simulation (as roots: points run concurrently across the
// fleet, so they are not stages of one request's critical path), the
// response encode, and one forward pair.
func (cs *clusterSweep) replaySweep(b *bench, c *client, req int64, e2e int32, reqBody []byte, got *service.SweepResponse) error {
	l := c.log
	var sr service.SweepRequest
	s := l.begin("service.decode", e2e, req)
	err := json.Unmarshal(reqBody, &sr)
	l.end(s)
	if err != nil {
		return err
	}
	ring := b.f.nodes[0].Ring()
	s = l.begin("cluster.route", e2e, req)
	sels, keys, err := service.SweepPointKeys(sr)
	if err == nil {
		for _, k := range keys {
			ring.Owner(k)
		}
	}
	l.end(s)
	if err != nil {
		return err
	}
	wl, err := sr.Workload.Build()
	if err != nil {
		return err
	}
	for k, sel := range sels {
		rr := pointRequest(sr, sel)
		sch, err := rr.Scheme.Build()
		if err != nil {
			return err
		}
		cfg := rr.Config.SimConfig()
		res, err := runSim(l, -1, req, wl, sch, cfg)
		if err != nil {
			return err
		}
		if err := b.rp.stages(l, req, wl, rr.Scheme, cfg, res, &c.st); err != nil {
			return err
		}
		if p := got.Points[k]; p.Cycles != res.Stats.Cycles || p.SyncOps != res.Stats.SyncOps {
			return fmt.Errorf("sweep point %d: service says %d cycles / %d sync ops, replay %d / %d",
				k, p.Cycles, p.SyncOps, res.Stats.Cycles, res.Stats.SyncOps)
		}
	}
	var buf bytes.Buffer
	s = l.begin("service.encode", e2e, req)
	err = encodeIndent(&buf, got)
	l.end(s)
	if err != nil || c.st.warm {
		return err
	}

	// Forward pair on one seeded point: fill it on its owner, then time the
	// same cached /run through the owner and through a non-owner.
	k := int(mix(cs.o.seed, streamSample, uint64(req)) % uint64(len(sels)))
	rr := pointRequest(sr, sels[k])
	pr, err := newRequest(clsRun, rr)
	if err != nil {
		return err
	}
	owner := -1
	for n, id := range b.f.ids {
		if id == ring.Owner(keys[k]).ID {
			owner = n
		}
	}
	status, resp, _, err := c.send(owner, pr.wire)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("forward pair fill: status %d: %v", status, err)
	}
	want, err := b.rp.expect(nil, -1, 0, clsRun, pr.body, nil)
	if err != nil || !sameModuloCached(want, resp) {
		return fmt.Errorf("forward pair fill answer differs from the replay: %v", err)
	}
	pairReq := int64(c.id)<<40 | c.next
	status, ownerResp, err := b.traced(c, owner, pr, "e2e")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("forward pair owner: status %d: %v", status, err)
	}
	ownerResp = append([]byte(nil), ownerResp...)
	s = l.begin("forward", -1, pairReq)
	status, fwdResp, _, err := c.send((owner+1)%len(b.f.nodes), pr.wire)
	l.end(s)
	c.next++
	if err != nil || status != http.StatusOK || !bytes.Equal(fwdResp, ownerResp) {
		return fmt.Errorf("forward pair: status %d: %v: forwarded answer differs from the owner's", status, err)
	}
	return nil
}

func (cs *clusterSweep) step(b *bench, c *client) {
	i := c.next
	status, resp, lat, err := cs.sweep(b, c, phaseWindow, i)
	correct := err == nil
	why := ""
	if err != nil && status == http.StatusOK {
		// A well-formed transport exchange whose answer failed validation.
		why, err = err.Error(), nil
		correct = false
	}
	c.outcome(status, err, correct, why, lat)
	if correct && c.log == nil && (len(cs.samples) == 0 || mix(cs.o.seed, streamSample, uint64(i))%8 == 0) && len(cs.samples) < cs.o.sz.samples/4 {
		cs.samples = append(cs.samples, sample{clsSweep, append([]byte(nil), body(c.buf)...), append([]byte(nil), resp...)})
	}
}

// check compares the sampled sweeps with a single-node EvalSweep oracle:
// every point and the Pareto front, ignoring only cache provenance.
func (cs *clusterSweep) check(b *bench) (int, error) {
	oracle := service.NewServer(dsserveService(discardLogger()))
	defer oracle.Drain(context.Background())
	bad := 0
	for _, s := range cs.samples {
		var req service.SweepRequest
		if err := json.Unmarshal(s.body, &req); err != nil {
			return 0, err
		}
		want, err := oracle.EvalSweep(context.Background(), req)
		if err != nil {
			return 0, err
		}
		var got service.SweepResponse
		if err := json.Unmarshal(s.resp, &got); err != nil {
			return 0, err
		}
		if !sameSweep(want, &got) {
			bad++
			fmt.Printf("WRONG sweep answer:\n%s\n", s.resp)
		}
	}
	if len(cs.samples) == 0 && !cs.o.trace {
		return 0, fmt.Errorf("no sweeps were sampled")
	}
	return bad, nil
}

func sameSweep(a, b *service.SweepResponse) bool {
	strip := func(ps []service.SweepPoint) []service.SweepPoint {
		out := append([]service.SweepPoint(nil), ps...)
		for i := range out {
			out[i].Cached = false
		}
		return out
	}
	return a.Workload == b.Workload && a.Evaluated == b.Evaluated && a.Failed == b.Failed &&
		reflect.DeepEqual(strip(a.Points), strip(b.Points)) && reflect.DeepEqual(strip(a.Pareto), strip(b.Pareto))
}

func (cs *clusterSweep) guard(d counters) error {
	for i, n := range d.completed {
		if n == 0 {
			return fmt.Errorf("cluster-sweep window: node %d executed no points; sweeps must use all three nodes", i)
		}
	}
	if d.fenceReplans != 0 || d.peerErrors != 0 {
		return fmt.Errorf("cluster-sweep window: %d fence re-plans, %d peer errors; want none", d.fenceReplans, d.peerErrors)
	}
	return nil
}
