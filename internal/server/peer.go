// Multi-analyzer state: relay batch ingestion with duplicate suppression,
// and peer contributions merged in from sibling analyzers.
//
// Two inbound streams exist beyond direct agent traffic:
//
//   - Relay batches (DeliverPeerBatch): crowd-blended tuple batches a
//     relay forwards after its shuffler finished with them. They fold into
//     the local accumulator exactly like locally shuffled batches — the relay
//     already anonymized, shuffled and thresholded them — guarded by a
//     per-origin (epoch, seq) high-water mark so a retried or re-forwarded
//     batch is applied at most once.
//
//   - Peer contributions (MergePeerState): full local-state exports from
//     sibling analyzers, stored per origin and REPLACED when a newer
//     (epoch, seq) arrives. Replacement, not addition, is the idempotency
//     guard: applying one update twice, or applying a newer one after an
//     older one, leaves exactly one copy of the origin's data. Snapshot
//     builders fold the stored contributions in after the local cells, in
//     sorted origin order, so any one analyzer's build is deterministic;
//     and because the folded values are additive sufficient statistics,
//     every analyzer holding the same contribution set computes the same
//     model (bit-identical whenever the underlying sums are exact, e.g.
//     integral rewards — see DESIGN.md "Multi-node topology").
package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"p2b/internal/transport"
)

// PeerSeq is a per-origin replication position: the boot epoch of the
// origin process and the last sequence number applied within it. Epochs
// exist because sequence numbers restart when the origin restarts; an
// update under a different epoch is always accepted.
type PeerSeq struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// Covers reports whether an incoming (epoch, seq) is already covered by
// p: same epoch and not newer. A different epoch is never covered — the
// origin rebooted and restarted its sequence. Both the inbound merge
// guard and the pull side of the digest round use this one predicate, so
// "would fetch" and "would reject" can never disagree.
func (p PeerSeq) Covers(epoch, seq uint64) bool {
	return p.Epoch == epoch && seq <= p.Seq
}

// peerContribution is one sibling analyzer's stored local-state export.
// The state is immutable once stored (replaced wholesale, never mutated),
// so snapshot builders may read it outside the peer lock.
type peerContribution struct {
	pos   PeerSeq
	state *PersistedState
}

// peerState is the Server's multi-analyzer bookkeeping, all guarded by mu
// except the atomic counters that telemetry samples.
type peerState struct {
	mu       sync.Mutex
	contribs map[string]*peerContribution // per sibling-analyzer origin
	relays   map[string]PeerSeq           // per relay-origin duplicate guard

	// version bumps on every applied merge, folding into Server.version()
	// so ETags and snapshot caches invalidate when peer state changes.
	version atomic.Uint64

	mergesApplied   atomic.Int64
	mergesRejected  atomic.Int64
	relayBatches    atomic.Int64
	relayDuplicates atomic.Int64
}

// PeerStatus is the replication view of one analyzer: the aggregate
// counters (what /metrics exports) plus per-origin positions (what the
// JSON surfaces add on top).
type PeerStatus struct {
	MergesApplied   int64 `json:"merges_applied"`   // peer updates stored or replaced
	MergesRejected  int64 `json:"merges_rejected"`  // stale/duplicate peer updates ignored
	RelayBatches    int64 `json:"relay_batches"`    // relay batches folded into local state
	RelayDuplicates int64 `json:"relay_duplicates"` // relay batches suppressed by the (epoch, seq) guard

	Contributions []PeerOriginStatus `json:"contributions,omitempty"` // stored sibling-analyzer state
	RelayStreams  []PeerOriginStatus `json:"relay_streams,omitempty"` // relay duplicate-guard positions
}

// PeerOriginStatus is one origin's replication position.
type PeerOriginStatus struct {
	Origin string `json:"origin"`
	Epoch  uint64 `json:"epoch"`
	Seq    uint64 `json:"seq"`
	// Tuples is the tuple count inside a stored contribution (0 for relay
	// streams, whose tuples are already counted in the local state).
	Tuples int64 `json:"tuples,omitempty"`
}

// DeliverPeerBatch folds one relay-forwarded batch into the local state,
// unless the per-origin guard has already seen (epoch, seq) — a retry or a
// relay re-forwarding its WAL tail — in which case nothing is applied and
// false is returned. Batches from one origin must arrive in seq order
// (the relay's forwarder serializes sends); the guard is a high-water
// mark, not a set.
func (s *Server) DeliverPeerBatch(origin string, epoch, seq uint64, batch []transport.Tuple) bool {
	s.peers.mu.Lock()
	if last, ok := s.peers.relays[origin]; ok && last.Covers(epoch, seq) {
		s.peers.mu.Unlock()
		s.peers.relayDuplicates.Add(1)
		return false
	}
	s.peers.relays[origin] = PeerSeq{Epoch: epoch, Seq: seq}
	s.peers.mu.Unlock()
	s.Deliver(batch)
	s.peers.relayBatches.Add(1)
	return true
}

// PeerBatchSeen reports whether (origin, epoch, seq) is already covered by
// the relay duplicate guard, without applying anything. The durable path
// checks this before logging a peer batch so duplicates never reach the
// WAL.
func (s *Server) PeerBatchSeen(origin string, epoch, seq uint64) bool {
	s.peers.mu.Lock()
	defer s.peers.mu.Unlock()
	last, ok := s.peers.relays[origin]
	return ok && last.Covers(epoch, seq)
}

// RelayPosition returns the relay duplicate guard's high-water mark for
// origin (zero when the origin never delivered). /peer/ingest states it
// on a duplicate ack, so a relay re-forwarding its WAL tail learns in one
// round trip how much of that tail this analyzer already holds.
func (s *Server) RelayPosition(origin string) PeerSeq {
	s.peers.mu.Lock()
	defer s.peers.mu.Unlock()
	return s.peers.relays[origin]
}

// NoteRelayDuplicate counts one relay batch suppressed outside
// DeliverPeerBatch. The durable path dedups with PeerBatchSeen before
// logging (so duplicates never reach the WAL) and must report the
// suppression here, or /healthz and /metrics would undercount duplicates
// on durable analyzers relative to in-memory ones.
func (s *Server) NoteRelayDuplicate() {
	s.peers.relayDuplicates.Add(1)
}

// MergePeerState stores one sibling analyzer's local-state export,
// replacing any older contribution from the same origin. It returns
// (false, nil) when the update is stale — same epoch, sequence not newer
// than what is stored — which is how a double-applied peer push is
// rejected. The state's shape must match this server's configuration.
func (s *Server) MergePeerState(origin string, epoch, seq uint64, ps *PersistedState) (bool, error) {
	if origin == "" {
		return false, fmt.Errorf("server: peer update has no origin")
	}
	if ps == nil {
		return false, fmt.Errorf("server: peer update from %q has no state", origin)
	}
	if ps.K != s.cfg.K || ps.Arms != s.cfg.Arms || ps.D != s.cfg.D {
		return false, fmt.Errorf("server: peer %q shape k=%d arms=%d d=%d, server configured k=%d arms=%d d=%d",
			origin, ps.K, ps.Arms, ps.D, s.cfg.K, s.cfg.Arms, s.cfg.D)
	}
	n := s.cfg.K * s.cfg.Arms
	if len(ps.CellCount) != n || len(ps.CellSum) != n {
		return false, fmt.Errorf("server: peer %q tabular cells %d/%d, want %d", origin, len(ps.CellCount), len(ps.CellSum), n)
	}
	if err := ps.Lin.validate("peer lin", s.cfg.Arms, s.cfg.D); err != nil {
		return false, err
	}
	s.peers.mu.Lock()
	if cur, ok := s.peers.contribs[origin]; ok && cur.pos.Covers(epoch, seq) {
		s.peers.mu.Unlock()
		s.peers.mergesRejected.Add(1)
		return false, nil
	}
	s.peers.contribs[origin] = &peerContribution{pos: PeerSeq{Epoch: epoch, Seq: seq}, state: ps}
	s.peers.mu.Unlock()
	s.peers.version.Add(1)
	s.peers.mergesApplied.Add(1)
	return true, nil
}

// PeerStatus returns the replication counters and per-origin positions.
// The aggregate counters are the same atomics the /metrics collectors
// sample, so the JSON and Prometheus views cannot drift.
func (s *Server) PeerStatus() PeerStatus {
	st := PeerStatus{
		MergesApplied:   s.peers.mergesApplied.Load(),
		MergesRejected:  s.peers.mergesRejected.Load(),
		RelayBatches:    s.peers.relayBatches.Load(),
		RelayDuplicates: s.peers.relayDuplicates.Load(),
	}
	s.peers.mu.Lock()
	for origin, c := range s.peers.contribs {
		st.Contributions = append(st.Contributions, PeerOriginStatus{
			Origin: origin, Epoch: c.pos.Epoch, Seq: c.pos.Seq, Tuples: c.state.Tuples,
		})
	}
	for origin, pos := range s.peers.relays {
		st.RelayStreams = append(st.RelayStreams, PeerOriginStatus{
			Origin: origin, Epoch: pos.Epoch, Seq: pos.Seq,
		})
	}
	s.peers.mu.Unlock()
	sort.Slice(st.Contributions, func(i, j int) bool { return st.Contributions[i].Origin < st.Contributions[j].Origin })
	sort.Slice(st.RelayStreams, func(i, j int) bool { return st.RelayStreams[i].Origin < st.RelayStreams[j].Origin })
	return st
}

// PeerContribution returns one stored sibling-analyzer contribution: its
// replication position and the state itself. The state is immutable once
// stored (replacement semantics), so callers — the /peer/contrib route
// serializing it to a digest-round puller — may read it without holding
// any lock. ok is false when no contribution from origin is stored.
func (s *Server) PeerContribution(origin string) (pos PeerSeq, state *PersistedState, ok bool) {
	s.peers.mu.Lock()
	defer s.peers.mu.Unlock()
	c, ok := s.peers.contribs[origin]
	if !ok {
		return PeerSeq{}, nil, false
	}
	return c.pos, c.state, true
}

// PeerCounters returns the lock-free aggregate replication counters, the
// atomic mirrors the /metrics collectors read.
func (s *Server) PeerCounters() (mergesApplied, mergesRejected, relayBatches, relayDuplicates int64) {
	return s.peers.mergesApplied.Load(), s.peers.mergesRejected.Load(),
		s.peers.relayBatches.Load(), s.peers.relayDuplicates.Load()
}

// peerContributions returns the stored contributions sorted by origin.
// The returned states are immutable; only the slice is copied under the
// lock, so snapshot builders fold without holding it.
func (s *Server) peerContributions() []*peerContribution {
	s.peers.mu.Lock()
	defer s.peers.mu.Unlock()
	if len(s.peers.contribs) == 0 {
		return nil
	}
	origins := make([]string, 0, len(s.peers.contribs))
	for o := range s.peers.contribs {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	out := make([]*peerContribution, len(origins))
	for i, o := range origins {
		out[i] = s.peers.contribs[o]
	}
	return out
}

// LocalVersion returns the mutation counter of the LOCAL state only —
// local ingestion, excluding peer merges. The peering loop keys its
// push-skipping on it: a node whose only change is inbound peer state has
// nothing new to offer its peers.
func (s *Server) LocalVersion() uint64 { return s.local.Load() }
