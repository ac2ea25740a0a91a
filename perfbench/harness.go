package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/csrd-repro/datasync/internal/cluster"
	"github.com/csrd-repro/datasync/internal/service"
)

// The fleet is booted exactly as cmd/dsserve boots a node — cluster.New over
// service.Options — with dsserve's flag defaults. The one difference is the
// logger: the same slog.TextHandler, writing to io.Discard.

// discardLogger is dsserve's logger writing to io.Discard.
func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// dsserveService mirrors cmd/dsserve's service flag defaults.
func dsserveService(log *slog.Logger) service.Options {
	return service.Options{
		Workers:          4,
		QueueCap:         64,
		JobTimeout:       30 * time.Second,
		CacheSize:        1024,
		RetryAfter:       time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  5 * time.Second,
		Logger:           log,
	}
}

// dsserveCluster mirrors cmd/dsserve's cluster flag defaults (-replicas 1,
// 2s probes, -steal-chunk 16, 1m anti-entropy, no peer token, no tenant
// limits, no link faults).
func dsserveCluster(self string, members []cluster.Member, log *slog.Logger) cluster.Options {
	return cluster.Options{
		Self:                self,
		Members:             members,
		StealChunk:          16,
		ProbeInterval:       2 * time.Second,
		SuspectAfter:        3,
		RejoinAfter:         2,
		Replicas:            1,
		AntiEntropyInterval: time.Minute,
		Logger:              log,
	}
}

// fleet is a set of in-process dsserve nodes, each on a loopback listener.
type fleet struct {
	nodes   []*cluster.Node
	servers []*http.Server
	addrs   []string // host:port per node
	ids     []string
	serving sync.WaitGroup
}

// bootFleet starts n nodes. One node is dsserve's single-member default
// ("solo"); more form one cluster with IDs a, b, c, ... so key ownership
// does not depend on the ports the kernel hands out.
func bootFleet(n int) (*fleet, error) {
	log := discardLogger()
	f := &fleet{}
	listeners := make([]net.Listener, n)
	members := make([]cluster.Member, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		listeners[i] = ln
		id := "solo"
		if n > 1 {
			id = string(rune('a' + i))
		}
		members[i] = cluster.Member{ID: id, Addr: "http://" + ln.Addr().String(), Weight: 1}
		f.addrs = append(f.addrs, ln.Addr().String())
		f.ids = append(f.ids, id)
	}
	for i := range listeners {
		node, err := cluster.New(dsserveCluster(members[i].ID, members, log), dsserveService(log))
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			f.close()
			return nil, fmt.Errorf("node %s: %w", members[i].ID, err)
		}
		hs := &http.Server{Handler: node.Handler(), ReadHeaderTimeout: 10 * time.Second}
		f.nodes = append(f.nodes, node)
		f.servers = append(f.servers, hs)
		f.serving.Add(1)
		go func(ln net.Listener) {
			defer f.serving.Done()
			hs.Serve(ln) // returns http.ErrServerClosed once close runs
		}(listeners[i])
	}
	return f, nil
}

// close stops the listeners, the nodes' background loops and their pools,
// and waits for all of them.
func (f *fleet) close() {
	for _, hs := range f.servers {
		hs.Close()
	}
	f.serving.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range f.nodes {
		n.Stop()
		n.Server().Drain(ctx)
	}
}

// ---- counters ----

// counters is one snapshot of everything the guards and per-layer metrics
// read from the fleet: /metrics scrapes plus the nodes' public accessors.
type counters struct {
	hits, misses, dedups, evictions int64
	forwards, steals, peerErrors    int64
	replicaPushes, replicaDrops     int64
	fenceReplans                    int64
	completed                       []int64 // Pool().Completed() per node
}

var metricsWire = []byte("GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n")

func (f *fleet) snapshot() (counters, error) {
	var c counters
	for i, n := range f.nodes {
		cl := dial(f.addrs[i])
		status, body, err := cl.do(metricsWire)
		cl.close()
		if err != nil || status != http.StatusOK {
			return c, fmt.Errorf("scrape %s/metrics: status %d: %v", f.ids[i], status, err)
		}
		for name, dst := range map[string]*int64{
			"dsserve_cache_hits_total":      &c.hits,
			"dsserve_cache_misses_total":    &c.misses,
			"dsserve_cache_dedups_total":    &c.dedups,
			"dsserve_cache_evictions_total": &c.evictions,
		} {
			v, err := metricValue(body, name)
			if err != nil {
				return c, fmt.Errorf("%s/metrics: %w", f.ids[i], err)
			}
			*dst += v
		}
		fw, st, pe := n.Counters()
		c.forwards += fw
		c.steals += st
		c.peerErrors += pe
		ms := n.Membership()
		c.replicaPushes += ms.ReplicaPushes
		c.replicaDrops += ms.ReplicaDrops
		_, replans := n.FenceStats()
		c.fenceReplans += replans
		c.completed = append(c.completed, n.Server().Pool().Completed())
	}
	return c, nil
}

// sub returns the counter deltas c - b.
func (c counters) sub(b counters) counters {
	d := counters{
		hits: c.hits - b.hits, misses: c.misses - b.misses, dedups: c.dedups - b.dedups,
		evictions: c.evictions - b.evictions, forwards: c.forwards - b.forwards,
		steals: c.steals - b.steals, peerErrors: c.peerErrors - b.peerErrors,
		replicaPushes: c.replicaPushes - b.replicaPushes, replicaDrops: c.replicaDrops - b.replicaDrops,
		fenceReplans: c.fenceReplans - b.fenceReplans,
	}
	for i := range c.completed {
		d.completed = append(d.completed, c.completed[i]-b.completed[i])
	}
	return d
}

// metricValue reads an unlabelled sample from Prometheus exposition text.
func metricValue(text []byte, name string) (int64, error) {
	prefix := []byte(name + " ")
	for _, line := range bytes.Split(text, []byte("\n")) {
		if bytes.HasPrefix(line, prefix) {
			return strconv.ParseInt(string(bytes.TrimSpace(line[len(prefix):])), 10, 64)
		}
	}
	return 0, fmt.Errorf("metric %s not found", name)
}

// progress sums the counters the nodes' background work moves: replication
// pushes and drops, and jobs completed, running or queued.
func (f *fleet) progress() int64 {
	var sum int64
	for _, n := range f.nodes {
		ms := n.Membership()
		p := n.Server().Pool()
		sum += ms.ReplicaPushes + ms.ReplicaPushErrors + ms.ReplicaDrops + p.Completed() + p.InFlight() + int64(p.QueueDepth())
	}
	return sum
}

// settle waits, at most two seconds, until the nodes' background work has
// drained: progress still for two consecutive looks 10 ms apart. The live
// heap is measured after it, so that entries still in flight to a replica
// do not count as resident.
func (f *fleet) settle() { f.idle(10*time.Millisecond, 2, 2*time.Second) }

// quiesce is a quick settle before a host-speed probe: progress still for
// three looks a millisecond apart, at most 50 ms.
func (f *fleet) quiesce() { f.idle(time.Millisecond, 3, 50*time.Millisecond) }

func (f *fleet) idle(every time.Duration, looks int, limit time.Duration) {
	last, still := f.progress(), 0
	for deadline := time.Now().Add(limit); still < looks && time.Now().Before(deadline); {
		time.Sleep(every)
		if cur := f.progress(); cur == last {
			still++
		} else {
			last, still = cur, 0
		}
	}
}

// queueDepth sums the nodes' pool queue depths.
func (f *fleet) queueDepth() int {
	d := 0
	for _, n := range f.nodes {
		d += n.Server().Pool().QueueDepth()
	}
	return d
}
