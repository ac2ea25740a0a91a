package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"

	"github.com/csrd-repro/datasync/internal/cache"
)

// coldMix: one node, every request a never-seen key; the warm phase fills
// the cache to capacity with a disjoint stream so evictions run throughout.
type coldMix struct {
	o       *options
	pool    *coldPool
	samples []sample
	mu      sync.Mutex
}

// sample is one request kept with its answer for the post-window check.
type sample struct {
	cls  class
	body []byte
	resp []byte
}

func (*coldMix) nodes() int   { return 1 }
func (*coldMix) clients() int { return 2 }

// tailQ is p90: with host-speed scaling the window's p99 still moved by
// 24% (IQR over median) over ten seeds in one set of runs, when latency
// spikes the probe does not see hit two of them.
func (*coldMix) tailQ() float64 { return 0.9 }

func (cm *coldMix) prepare(o *options) error {
	cm.o = o
	src, err := acceptedSources(o.testdata)
	if err != nil {
		return err
	}
	cm.pool, err = newColdPool(o.seed, o.sz.coldTemplates, src)
	return err
}

func (cm *coldMix) allocSample() [][]byte {
	var out [][]byte
	var buf []byte
	for i := int64(0); len(out) < 32; i++ {
		wire, cls := cm.pool.render(buf, phaseWarm, i)
		if cls == clsRun {
			out = append(out, append([]byte(nil), body(wire)...))
		}
	}
	return out
}

func (cm *coldMix) warm(b *bench) error {
	n := int64(len(b.clients))
	return b.parallel(func(c *client) error {
		if c.log != nil {
			c.st.warm = true
			defer func() { c.st.warm = false }()
		}
		for i := int64(c.id); i < int64(cm.o.sz.coldWarm); i += n {
			var cls class
			c.buf, cls = cm.pool.render(c.buf, phaseWarm, i)
			status, resp, err := b.traced(c, 0, request{cls: cls, body: body(c.buf), wire: c.buf}, "e2e")
			if err != nil || status != http.StatusOK || isCached(resp) {
				return fmt.Errorf("cold warm request %d (%s): status %d: %v: %.300s", i, cls, status, err, resp)
			}
		}
		return nil
	})
}

func (cm *coldMix) step(b *bench, c *client) {
	i := c.next*int64(len(b.clients)) + int64(c.id)
	c.next++
	var cls class
	c.buf, cls = cm.pool.render(c.buf, phaseWindow, i)
	r := request{cls: cls, body: body(c.buf), wire: c.buf}
	var (
		status int
		resp   []byte
		lat    int64
		err    error
	)
	if c.log != nil {
		status, resp, err = b.traced(c, 0, r, "e2e")
		lat = c.lastLat
	} else {
		status, resp, lat, err = c.send(0, r.wire)
	}
	correct := err == nil && status == http.StatusOK && !isCached(resp)
	c.outcome(status, err, correct, "cold request answered from cache", lat)
	if correct && c.log == nil && (i == 0 || mix(cm.o.seed, streamSample, uint64(i))%64 == 0) {
		cm.mu.Lock()
		if len(cm.samples) < cm.o.sz.samples {
			cm.samples = append(cm.samples, sample{cls, append([]byte(nil), r.body...), append([]byte(nil), resp...)})
		}
		cm.mu.Unlock()
	}
}

// check recomputes the sampled answers in-process (codegen.Run, verify.*,
// service.CompileSource) and compares them byte for byte.
func (cm *coldMix) check(b *bench) (int, error) {
	rp := &replayer{cache: cache.New(len(cm.samples) + 1)}
	bad := 0
	for _, s := range cm.samples {
		want, err := rp.expect(nil, -1, 0, s.cls, s.body, nil)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(want, s.resp) {
			bad++
			fmt.Printf("WRONG %s answer:\n%s\nrecomputed:\n%s\n", s.cls, s.resp, want)
		}
	}
	if len(cm.samples) == 0 && !cm.o.trace {
		return 0, fmt.Errorf("no cold answers were sampled")
	}
	return bad, nil
}

func (cm *coldMix) guard(d counters) error {
	if d.hits != 0 || d.dedups != 0 {
		return fmt.Errorf("cold-mix window: %d hits, %d dedups; every request must be a never-seen key", d.hits, d.dedups)
	}
	if d.misses == 0 {
		return fmt.Errorf("cold-mix window: no cache misses")
	}
	return nil
}
