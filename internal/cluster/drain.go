package cluster

// Graceful drain with warm cache handoff.
//
// A planned restart used to cost the cluster the departing node's entire
// content-addressed cache: its keys would reassign to the survivors, every
// one of them a cold miss to resimulate. DrainHandoff converts that into a
// transfer. On SIGTERM the node (1) announces its departure so peers
// demote it immediately — drain-cause, bypassing the readmit cooldown —
// instead of discovering the death one failed forward at a time, then
// (2) streams its cache, grouped by each entry's next owner on the ring
// without itself, in bounded batches over the authenticated
// /internal/handoff endpoint.
//
// The transfer is best-effort under the caller's deadline and resumable in
// the only sense that matters for a cache: a failed batch is skipped, not
// retried to death, because every entry is recomputable — the handoff
// moves cache provenance, never correctness. Entries ship hottest-first
// (ExportCache walks the LRU from the front), so an expiring deadline
// keeps the most valuable part of the cache warm.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/service"
)

// handoffBatch caps the entries per /internal/handoff call, bounding the
// receiver's body size and the blast radius of one failed batch.
const handoffBatch = 64

// maxHandoffBody caps the /internal/handoff request body. Entries are
// simulation summaries (a few KB each), so 64 of them sit far below this;
// the cap is a backstop against a misbehaving peer, not a working limit.
const maxHandoffBody = 8 << 20

// HandoffRequest is one batch of cache entries moving between peers —
// shared by the drain handoff (Reason "drain") and K-successor replication
// (Reason "replicate").
type HandoffRequest struct {
	From    string               `json:"from"`
	Reason  string               `json:"reason"`
	Entries []service.CacheEntry `json:"entries"`
}

type handoffResponse struct {
	Imported int `json:"imported"`
}

type departingRequest struct {
	Node string `json:"node"`
}

// HandoffReport summarizes one drain handoff.
type HandoffReport struct {
	Peers         int   `json:"peers"`         // distinct receiving owners
	Entries       int   `json:"entries"`       // entries delivered
	Bytes         int64 `json:"bytes"`         // entry body bytes delivered
	Batches       int   `json:"batches"`       // batches delivered
	FailedBatches int   `json:"failedBatches"` // batches lost (skipped, not fatal)
}

// DrainHandoff announces this node's departure and streams its cache to
// the entries' next owners. Call it after the HTTP listener stops
// accepting new work and before the worker pool drains; ctx bounds the
// whole transfer.
func (n *Node) DrainHandoff(ctx context.Context) HandoffReport {
	var rep HandoffReport
	live := n.ring.Load()
	if live.Size() <= 1 || !live.Has(n.self.ID) {
		return rep
	}
	rest, err := live.Without(n.self.ID)
	if err != nil {
		return rep
	}

	for _, m := range rest.Members() {
		if cl := n.clients[m.ID]; cl != nil {
			if err := cl.PostJSON(ctx, "/internal/departing", departingRequest{Node: n.self.ID}, nil); err != nil {
				n.log.Warn("cluster: departure announcement failed", "peer", m.ID, "err", err)
			}
		}
	}

	// Entries group by their next owner on the ring without self, and the
	// grouping is re-derived whenever a target fails or is demoted
	// mid-stream: the remaining entries skip to their next live successor
	// instead of being retried into the shutdown deadline. excluded grows
	// monotonically, so the loop terminates after at most one failure per
	// configured member.
	excluded := map[string]bool{n.self.ID: true}
	regroup := func(entries []service.CacheEntry) map[string][]service.CacheEntry {
		alive := make([]Member, 0, n.full.Size())
		for _, m := range n.full.Members() {
			if !excluded[m.ID] && n.PeerState(m.ID) != "demoted" {
				alive = append(alive, m)
			}
		}
		r, err := NewRing(alive)
		if err != nil {
			return nil // nobody left to receive
		}
		out := make(map[string][]service.CacheEntry)
		for _, e := range entries {
			k, err := cache.ParseKey(e.Key)
			if err != nil {
				continue
			}
			out[r.Owner(k).ID] = append(out[r.Owner(k).ID], e)
		}
		return out
	}
	batches := func(entries []service.CacheEntry) int {
		return (len(entries) + handoffBatch - 1) / handoffBatch
	}

	pending := regroup(n.srv.ExportCache())
	receivers := map[string]bool{}
	retarget := func(entries []service.CacheEntry, failed string) {
		excluded[failed] = true
		re := regroup(entries)
		if re == nil {
			rep.FailedBatches += batches(entries)
			return
		}
		for id, es := range re {
			pending[id] = append(pending[id], es...)
		}
	}

	for len(pending) > 0 {
		// Stable order so two drains of the same cache behave the same.
		ids := make([]string, 0, len(pending))
		for id := range pending {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		id := ids[0]
		entries := pending[id]
		delete(pending, id)
		cl := n.clients[id]
		if cl == nil {
			rep.FailedBatches += batches(entries)
			continue
		}
		for start := 0; start < len(entries); start += handoffBatch {
			if ctx.Err() != nil {
				n.log.Warn("cluster: drain handoff cut short by deadline",
					"delivered", rep.Entries, "peer", id)
				n.recordHandoffSent(rep)
				return rep
			}
			if n.PeerState(id) == "demoted" {
				// The detector demoted the target mid-stream (it crashed,
				// or announced its own drain): skip it — nothing failed,
				// the remainder just re-targets.
				n.log.Warn("cluster: handoff target demoted mid-stream; re-targeting",
					"peer", id, "remaining", len(entries)-start)
				retarget(entries[start:], id)
				break
			}
			end := min(start+handoffBatch, len(entries))
			batch := entries[start:end]
			req := HandoffRequest{From: n.self.ID, Reason: "drain", Entries: batch}
			var resp handoffResponse
			if err := cl.PostJSON(ctx, "/internal/handoff", req, &resp); err != nil {
				// One exhausted-retries batch is evidence enough during a
				// drain: count it lost and move the target's remaining
				// entries to their next successor rather than feeding
				// every batch into the same dead peer's retry budget.
				rep.FailedBatches++
				n.log.Warn("cluster: handoff batch failed; re-targeting the remainder",
					"peer", id, "entries", len(batch), "err", err)
				retarget(entries[end:], id)
				break
			}
			receivers[id] = true
			rep.Batches++
			rep.Entries += len(batch)
			for _, e := range batch {
				rep.Bytes += int64(len(e.Body))
			}
		}
	}
	rep.Peers = len(receivers)
	n.recordHandoffSent(rep)
	n.log.Info("cluster: drain handoff complete",
		"peers", rep.Peers, "entries", rep.Entries, "bytes", rep.Bytes,
		"batches", rep.Batches, "failedBatches", rep.FailedBatches)
	return rep
}

func (n *Node) recordHandoffSent(rep HandoffReport) {
	n.handoffSentEntries.Add(int64(rep.Entries))
	n.handoffSentBytes.Add(rep.Bytes)
}

// isBodyTooLarge reports whether a request-body read failed because the
// http.MaxBytesReader cap was hit (the 413 case, distinct from a client
// that disconnected mid-upload).
func isBodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// handleHandoff imports a batch of peer cache entries (drain handoff or
// replication push). Undecodable entries are skipped — the sender's cache
// may outrun this binary's vocabulary during a rolling upgrade, and a
// cache import must never fail the batch over one entry it cannot hold.
// The body is hard-bounded: an authenticated peer must not be able to OOM
// a receiver with one oversized frame, so beyond maxHandoffBody the read
// stops and the batch is refused with 413.
func (n *Node) handleHandoff(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxHandoffBody))
	if err != nil {
		if isBodyTooLarge(err) {
			n.writeJSON(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("cluster: handoff body exceeds %d bytes", maxHandoffBody))
			return
		}
		n.writeJSON(w, http.StatusBadRequest, fmt.Errorf("cluster: read handoff: %w", err))
		return
	}
	var req HandoffRequest
	if err := service.DecodeStrict(body, &req); err != nil {
		n.writeJSON(w, http.StatusBadRequest, fmt.Errorf("cluster: decode handoff: %w", err))
		return
	}
	imported := 0
	var importedBytes int64
	for _, e := range req.Entries {
		if err := n.srv.ImportCacheEntry(e); err != nil {
			n.log.Warn("cluster: handoff entry rejected", "from", req.From, "key", e.Key, "err", err)
			continue
		}
		imported++
		importedBytes += int64(len(e.Body))
	}
	n.handoffRecvEntries.Add(int64(imported))
	n.handoffRecvBytes.Add(importedBytes)
	n.log.Debug("cluster: handoff received",
		"from", req.From, "reason", req.Reason, "entries", imported, "bytes", importedBytes)
	n.writeJSON(w, http.StatusOK, handoffResponse{Imported: imported})
}

// handleDeparting demotes the announcing peer (drain cause: authoritative,
// bypasses the cooldown) so its keys reassign before its listener closes.
func (n *Node) handleDeparting(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		if isBodyTooLarge(err) {
			n.writeJSON(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("cluster: departure body exceeds %d bytes", maxBody))
			return
		}
		n.writeJSON(w, http.StatusBadRequest, fmt.Errorf("cluster: read departure: %w", err))
		return
	}
	var req departingRequest
	if err := service.DecodeStrict(body, &req); err != nil {
		n.writeJSON(w, http.StatusBadRequest, fmt.Errorf("cluster: decode departure: %w", err))
		return
	}
	if req.Node == "" {
		n.writeJSON(w, http.StatusBadRequest, fmt.Errorf("cluster: departure without a node ID"))
		return
	}
	n.log.Info("cluster: peer announced departure", "peer", req.Node)
	n.demote(req.Node, causeDrain)
	n.writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}
