// The in-process version of the relay-crash CI check: a durable relay
// that crashes mid-stream and restarts must resume its persisted
// (epoch, seq) forwarding cursor, so its WAL-tail re-forwards land in the
// analyzer's same-epoch duplicate guard instead of double-counting — and
// the fleet model stays byte-identical to an uninterrupted run.
//
// The exactness conditions are the equivalence test's: integral {0,1}
// rewards and uniform one-shuffler-batch submissions.
package topology_test

import (
	"path/filepath"
	"testing"

	"p2b/internal/node"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// bootRelay is one boot of a durable relay process whose cursor lives in
// dir, with per-append fsync (the relay-crash CI setting).
func bootRelay(t *testing.T, dir, downstream string, seed uint64) *node.Node {
	t.Helper()
	cfg := eqConfig(topology.RoleRelay, "relay-1", seed)
	cfg.Downstream, cfg.DataDir = downstream, dir
	return eqOpen(t, cfg)
}

// crash abandons the boot the way a kill -9 would: no final flush, no
// shutdown checkpoint. (The WAL needs no sync — every append already
// fsynced.)
func crash(t *testing.T, n *node.Node) {
	t.Helper()
	if err := n.Persist().Close(); err != nil {
		t.Fatal(err)
	}
}

func submitDurably(t *testing.T, n *node.Node, batches [][]transport.Tuple) {
	t.Helper()
	for _, b := range batches {
		if err := n.Persist().SubmitTuples(b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRelayCrashRestartResumesPersistedCursor(t *testing.T) {
	batches := eqBatches(9, 123)
	part1, part2, part3 := batches[:3], batches[3:6], batches[6:]

	// Reference: one combined node ingests the full stream uninterrupted.
	ref, refURL := eqServe(t, eqConfig(topology.RoleCombined, "single", 5))
	for _, b := range batches {
		ref.Shuffler().SubmitTuples(b)
	}

	// The analyzer stays up across every relay crash, so its in-memory
	// (origin, epoch, seq) duplicate guard is what the resumed cursor must
	// line up with.
	a, aURL := eqServe(t, eqConfig(topology.RoleAnalyzer, "analyzer-1", 6))

	dir := filepath.Join(t.TempDir(), "relay")

	// Boot 1: first contact between this data dir and a forwarder. Open
	// must write the minted epoch to the WAL before traffic.
	boot1 := bootRelay(t, dir, aURL, 10)
	if boot1.Persist().Recovery().CursorRestored {
		t.Fatal("boot 1 claims a restored cursor on an empty data dir")
	}
	submitDurably(t, boot1, part1)
	epoch1, seq1 := boot1.Forwarder().Cursor()
	if seq1 != uint64(len(part1)) {
		t.Fatalf("boot 1 cursor seq = %d, want %d", seq1, len(part1))
	}
	crash(t, boot1)

	// Boot 2: no checkpoint exists, so the cursor comes from the WAL's
	// RecordCursor and the full tail re-forwards — every batch a duplicate
	// on the relay, though only the first reaches the analyzer: its ack
	// states the guard's seq, which covers the rest of the tail.
	boot2 := bootRelay(t, dir, aURL, 11)
	if !boot2.Persist().Recovery().CursorRestored {
		t.Fatal("boot 2 minted a fresh epoch instead of restoring the persisted cursor")
	}
	if epoch2, seq2 := boot2.Forwarder().Cursor(); epoch2 != epoch1 || seq2 != seq1 {
		t.Fatalf("boot 2 cursor = (%d, %d), want the persisted (%d, %d)", epoch2, seq2, epoch1, seq1)
	}
	if st := boot2.Forwarder().Stats(); st.Batches != int64(len(part1)) || st.Duplicates != int64(len(part1)) || st.Dropped != 0 {
		t.Fatalf("boot 2 re-forward stats = %+v, want %d duplicate-acked batches", st, len(part1))
	}
	submitDurably(t, boot2, part2)
	// A mid-run checkpoint snapshots the cursor and prunes the WAL (and
	// with it the RecordCursor), so boot 3 exercises the checkpoint path.
	if err := boot2.Persist().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(t, boot2)

	// Boot 3: the cursor comes from the checkpoint alone.
	boot3 := bootRelay(t, dir, aURL, 12)
	if !boot3.Persist().Recovery().CursorRestored {
		t.Fatal("boot 3 minted a fresh epoch instead of restoring the checkpointed cursor")
	}
	if epoch3, seq3 := boot3.Forwarder().Cursor(); epoch3 != epoch1 || seq3 != uint64(len(part1)+len(part2)) {
		t.Fatalf("boot 3 cursor = (%d, %d), want (%d, %d)", epoch3, seq3, epoch1, len(part1)+len(part2))
	}
	submitDurably(t, boot3, part3)
	crash(t, boot3)

	// The headline: despite two crashes and a full-tail re-forward, the
	// analyzer's model is byte-identical to the uninterrupted reference.
	want := fetchModel(t, refURL)
	if got := fetchModel(t, aURL); got != want {
		t.Errorf("analyzer model diverged from the uninterrupted run:\n got %s\nwant %s", got, want)
	}

	// Non-vacuity: exactly the 9 distinct batches were applied, and the
	// crash really produced a retransmit for the guard to absorb — one,
	// since the boot-2 replay asked once and skipped what the ack covered.
	_, _, applied, dups := a.Server().PeerCounters()
	if applied != int64(len(batches)) {
		t.Fatalf("analyzer applied %d relay batches, want exactly %d (a miscounted batch breaks exactly-once)", applied, len(batches))
	}
	if dups != 1 {
		t.Fatalf("analyzer saw %d duplicate batches, want 1 — the crash-replay never happened, or asked about every batch", dups)
	}
}

// Without a persisted cursor the same scenario double-counts: pin the
// counterfactual so the test above cannot pass vacuously. A relay whose
// data dir is wiped between boots re-forwards its input under a fresh
// epoch, and the analyzer counts it again — the exact gap the durable
// cursor closes.
func TestRelayCursorWipedDataDirDoubleCounts(t *testing.T) {
	batches := eqBatches(2, 321)

	a, aURL := eqServe(t, eqConfig(topology.RoleAnalyzer, "analyzer-1", 6))

	base := t.TempDir()
	for boot, dir := range []string{filepath.Join(base, "a"), filepath.Join(base, "b")} {
		r := bootRelay(t, dir, aURL, 20+uint64(boot))
		submitDurably(t, r, batches)
		crash(t, r)
	}

	if _, _, applied, _ := a.Server().PeerCounters(); applied != int64(2*len(batches)) {
		t.Fatalf("analyzer applied %d batches, want %d: without a shared cursor the epochs differ and nothing deduplicates", applied, 2*len(batches))
	}
}
