package main

import (
	"fmt"
	"net/http"
)

// hotHits: one node behind the single-member cluster middleware; a seeded
// hot set is filled during set-up and then only ever hit.
type hotHits struct {
	seed uint64
	keys []hotKey
	ref  [][]byte // first cached answer per key
}

func (*hotHits) nodes() int   { return 1 }
func (*hotHits) clients() int { return 2 }

func (*hotHits) tailQ() float64 { return 0.99 }

// check has nothing left to do: every hit is compared with its key's
// first answer as it arrives.
func (*hotHits) check(*bench) (int, error) { return 0, nil }

func (h *hotHits) prepare(o *options) error {
	h.seed = o.seed
	var err error
	h.keys, err = hotSet(o.seed, o.sz.hotKeys)
	h.ref = make([][]byte, len(h.keys))
	return err
}

func (h *hotHits) allocSample() [][]byte {
	var out [][]byte
	for _, k := range h.keys {
		if k.cls == clsRun && len(out) < 32 {
			out = append(out, k.body)
		}
	}
	return out
}

// warm fills every hot key, then records its first cached answer.
func (h *hotHits) warm(b *bench) error {
	n := len(b.clients)
	b.rp.ring = b.f.nodes[0].Ring()
	return b.parallel(func(c *client) error {
		if c.log != nil {
			c.st.warm = true
			defer func() { c.st.warm = false }()
		}
		for i := c.id; i < len(h.keys); i += n {
			k := &h.keys[i]
			for pass, wantCached := range []bool{false, true} {
				status, resp, err := b.traced(c, 0, k.request, "e2e")
				if err != nil || status != http.StatusOK {
					return fmt.Errorf("hot key %d pass %d: status %d: %v: %s", i, pass, status, err, resp)
				}
				if isCached(resp) != wantCached {
					return fmt.Errorf("hot key %d pass %d: cached=%v, want %v", i, pass, !wantCached, wantCached)
				}
				if wantCached {
					h.ref[i] = append([]byte(nil), resp...)
				}
			}
		}
		return nil
	})
}

func (h *hotHits) step(b *bench, c *client) {
	i := hotDraw(h.seed, c.id, int(c.next), len(h.keys))
	c.next++
	if c.log != nil {
		status, resp, err := b.traced(c, 0, h.keys[i].request, "e2e")
		c.outcome(status, err, err == nil && sameModuloCached(resp, h.ref[i]), "answer differs from the key's first hit", c.lastLat)
		return
	}
	status, resp, lat, err := c.send(0, h.keys[i].wire)
	c.outcome(status, err, err == nil && sameModuloCached(resp, h.ref[i]), "answer differs from the key's first hit", lat)
}

func (h *hotHits) guard(d counters) error {
	if d.misses != 0 || d.hits == 0 {
		return fmt.Errorf("hot-hits window: %d hits, %d misses; every request must hit (cache.hit_ratio = 1)", d.hits, d.misses)
	}
	return nil
}
