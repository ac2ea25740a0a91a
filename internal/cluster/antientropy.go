package cluster

// Anti-entropy re-replication.
//
// K-successor replication pushes each fresh cache fill to the key's
// current successors — but "current" decays: every demotion, rejoin or
// drain changes successor sets, and entries filled before the transition
// are left wherever the old ring put them. The anti-entropy scan closes
// that gap. On every live-ring transition (kicked from rebuildRingLocked)
// and on a slow periodic timer, each node walks its owned keys, asks each
// live successor which of those keys it already holds (the batched
// /internal/has endpoint — measuring real under-replication rather than
// trusting local bookkeeping that a peer restart would silently
// invalidate), and enqueues the missing copies on the existing bounded
// replication queue. Under-replicated keys thus converge back to
// Replicas copies after any demotion/rejoin cycle without waiting for
// fresh fills.
//
// Only the live-ring owner repairs a key, so each repair has exactly one
// driver; non-owners hold replicas but never push them. The scan is
// best-effort by design: an unreachable successor makes its keys
// unverifiable (counted, not repaired — the prober owns liveness), and
// the next scan retries.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/service"
)

// hasBatch caps the keys per /internal/has query.
const hasBatch = 128

// aeKickDelay debounces transition-kicked scans: ring transitions arrive
// in bursts (gossip demoting two peers back to back), and one scan after
// the burst beats three during it.
const aeKickDelay = 50 * time.Millisecond

type hasRequest struct {
	Keys []string `json:"keys"`
}

type hasResponse struct {
	Has []bool `json:"has"`
}

// handleHas answers which of the asked keys the local cache holds —
// peer-internal, used by the anti-entropy scan to measure real replica
// presence instead of trusting stale bookkeeping.
func (n *Node) handleHas(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		if isBodyTooLarge(err) {
			n.writeJSON(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("cluster: has query exceeds %d bytes", maxBody))
			return
		}
		n.writeJSON(w, http.StatusBadRequest, fmt.Errorf("cluster: read has query: %w", err))
		return
	}
	var req hasRequest
	if err := service.DecodeStrict(body, &req); err != nil {
		n.writeJSON(w, http.StatusBadRequest, fmt.Errorf("cluster: decode has query: %w", err))
		return
	}
	resp := hasResponse{Has: make([]bool, len(req.Keys))}
	for i, ks := range req.Keys {
		k, err := cache.ParseKey(ks)
		resp.Has[i] = err == nil && n.srv.CacheHas(k)
	}
	n.writeJSON(w, http.StatusOK, resp)
}

// antiEntropyLoop runs AntiEntropyScan on ring-transition kicks and on the
// periodic timer until Stop.
func (n *Node) antiEntropyLoop() {
	defer n.wg.Done()
	t := time.NewTimer(n.opts.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.aeKick:
			select {
			case <-n.stopCh:
				return
			case <-time.After(aeKickDelay):
			}
			// Coalesce any kick that arrived during the debounce window.
			select {
			case <-n.aeKick:
			default:
			}
		case <-t.C:
		}
		n.AntiEntropyScan(context.Background())
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		t.Reset(n.opts.AntiEntropyInterval)
	}
}

// AntiEntropyReport summarizes one scan.
type AntiEntropyReport struct {
	Owned           int // keys this node owns on the live ring
	Underreplicated int // owned keys missing at least one successor copy
	Enqueued        int // targeted replica pushes enqueued
	Unverifiable    int // (key, successor) pairs whose presence could not be measured
}

// AntiEntropyScan walks the owned keys once, measures replica presence on
// each live successor, and enqueues targeted pushes for the missing
// copies. It updates the dsserve_underreplicated_keys gauge to the count
// it found (before the enqueued pushes drain — the next scan is the one
// that reports convergence).
func (n *Node) AntiEntropyScan(ctx context.Context) AntiEntropyReport {
	var rep AntiEntropyReport
	live := n.ring.Load()
	if n.opts.Replicas <= 0 || live.Size() <= 1 {
		n.underreplicated.Store(0)
		n.antiScans.Add(1)
		return rep
	}

	var owned []cache.Key
	n.srv.RangeCacheKeys(func(k cache.Key) {
		if live.Owner(k).ID == n.self.ID {
			owned = append(owned, k)
		}
	})
	rep.Owned = len(owned)

	// Group the owned keys by the successor that should hold them.
	bySucc := make(map[string][]cache.Key)
	for _, k := range owned {
		for _, m := range live.Successors(k, n.opts.Replicas) {
			if m.ID != n.self.ID {
				bySucc[m.ID] = append(bySucc[m.ID], k)
			}
		}
	}
	succs := make([]string, 0, len(bySucc))
	for id := range bySucc {
		succs = append(succs, id)
	}
	sort.Strings(succs)

	under := make(map[cache.Key]bool)
	for _, id := range succs {
		keys := bySucc[id]
		cl := n.clients[id]
		if cl == nil {
			rep.Unverifiable += len(keys)
			continue
		}
		for start := 0; start < len(keys); start += hasBatch {
			select {
			case <-n.stopCh:
				return rep
			case <-ctx.Done():
				return rep
			default:
			}
			end := min(start+hasBatch, len(keys))
			batch := keys[start:end]
			req := hasRequest{Keys: make([]string, len(batch))}
			for i, k := range batch {
				req.Keys[i] = k.String()
			}
			bctx, cancel := context.WithTimeout(ctx, replPushTimeout)
			var resp hasResponse
			err := cl.PostJSON(bctx, "/internal/has", req, &resp)
			cancel()
			if err != nil || len(resp.Has) != len(batch) {
				// The prober owns liveness; an unanswerable successor just
				// leaves its keys unverified until the next scan.
				rep.Unverifiable += len(keys) - start
				n.log.Debug("cluster: anti-entropy has query failed", "peer", id, "err", err)
				break
			}
			for i, has := range resp.Has {
				if has {
					continue
				}
				k := batch[i]
				under[k] = true
				if e, ok := n.srv.ExportCacheEntry(k); ok {
					if n.enqueueReplica(replJob{key: k, entry: e, only: id, antientropy: true}) {
						rep.Enqueued++
					}
				}
			}
		}
	}

	rep.Underreplicated = len(under)
	n.underreplicated.Store(int64(rep.Underreplicated))
	n.antiScans.Add(1)
	if rep.Underreplicated > 0 {
		n.log.Info("cluster: anti-entropy scan found under-replicated keys",
			"owned", rep.Owned, "underreplicated", rep.Underreplicated,
			"enqueued", rep.Enqueued, "unverifiable", rep.Unverifiable)
	}
	return rep
}

// AntiEntropyStats snapshots the scan counters (tests and probes).
func (n *Node) AntiEntropyStats() (scans, pushes, underreplicated int64) {
	return n.antiScans.Load(), n.antiPushes.Load(), n.underreplicated.Load()
}
