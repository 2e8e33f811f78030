// A relay that skips the batches a duplicate ack's seq covers must be
// observationally the same as one that sends them and has the analyzer
// drop each as a duplicate: same analyzer state, same applied count, same
// relay-side forward counters.
package topology_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"p2b/internal/node"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// replayAnalyzer is an in-memory analyzer behind a wrapper that records
// every /peer/ingest POST, loses the response of chosen applied batches
// (the relay retries them), and with withSeq false answers like an
// analyzer predating the ack's seq field.
type replayAnalyzer struct {
	node    *node.Node
	h       http.Handler
	withSeq bool
	lose    func(epoch, seq uint64) bool

	mu    sync.Mutex
	posts int
	// covered is, per epoch, the highest seq a duplicate ack delivered
	// to the current relay boot stated: a later POST at or below it is
	// a round trip the relay was told it did not need.
	covered    map[uint64]uint64
	violations []string
}

func (ra *replayAnalyzer) newBoot() {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	ra.covered = make(map[uint64]uint64)
}

func (ra *replayAnalyzer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/peer/ingest" {
		ra.h.ServeHTTP(w, r)
		return
	}
	epoch, _ := strconv.ParseUint(r.Header.Get(topology.EpochHeader), 10, 64)
	seq, _ := strconv.ParseUint(r.Header.Get(topology.SeqHeader), 10, 64)
	ra.mu.Lock()
	ra.posts++
	if h, ok := ra.covered[epoch]; ok && seq <= h {
		ra.violations = append(ra.violations, fmt.Sprintf("POST (epoch %d, seq %d) after a duplicate ack stated seq %d", epoch, seq, h))
	}
	ra.mu.Unlock()

	rec := httptest.NewRecorder()
	ra.h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
		return
	}
	var ack topology.PeerAck
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		panic(err)
	}
	if ack.Applied && ra.lose(epoch, seq) {
		// Applied, but the relay never hears so: its retry is acked as a
		// duplicate at exactly the seq it sent.
		panic(http.ErrAbortHandler)
	}
	if !ra.withSeq {
		ack.Seq = 0
	}
	if !ack.Applied && ack.Seq > 0 {
		ra.mu.Lock()
		ra.covered[epoch] = max(ra.covered[epoch], ack.Seq)
		ra.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ack)
}

// replayOutcome is what the two forwarders must agree on, plus the
// traffic that tells them apart.
type replayOutcome struct {
	state   []byte                  // the analyzer's ExportState, P2BS-encoded
	applied int64                   // relay batches the analyzer applied
	stats   []topology.ForwardStats // one per relay boot
	posts   int
	retries int64
	skipped int64
	// remints counts fresh epochs stamped by a forwarder that had already
	// learned a covered position under the old one.
	remints    int
	violations []string
}

// runReplayScenario drives one random relay history, drawn from seed,
// against a fresh analyzer: a stream of batches under a durable (epoch,
// seq) cursor, crashes that replay the WAL tail from the last checkpoint
// (including batches cut into the WAL whose forward the crash cut short,
// so the analyzer's mark lands anywhere in the tail), lost responses on
// applied batches, and occasional fresh epochs. The history depends on
// seed alone, so both ack modes see the same one.
func runReplayScenario(t *testing.T, seed uint64, withSeq bool) replayOutcome {
	t.Helper()
	r := rng.New(seed)
	ra := &replayAnalyzer{
		node:    eqOpen(t, eqConfig(topology.RoleAnalyzer, "analyzer-1", 6)),
		withSeq: withSeq,
		lose: func(epoch, seq uint64) bool {
			return rng.New(seed).Split(strconv.FormatUint(epoch, 10)).Split(strconv.FormatUint(seq, 10)).IntN(6) == 0
		},
	}
	ra.h = ra.node.Handler()
	ts := httptest.NewServer(ra)
	defer ts.Close()

	pool := eqBatches(40, seed)
	var (
		out    replayOutcome
		epoch  = uint64(1000)
		stream [][]transport.Tuple // the relay's cut batches under epoch: stream[i] has seq i+1
		ckpt   uint64              // the cursor seq of the relay's last checkpoint
		next   int                 // next pool batch to cut
	)
	cut := func() bool {
		if next == len(pool) {
			return false
		}
		stream = append(stream, pool[next])
		next++
		return true
	}
	for boot, boots := 0, 2+r.IntN(3); boot < boots; boot++ {
		ra.newBoot()
		f, err := topology.NewForwarder(ts.URL, topology.ForwarderOptions{
			Origin: "relay-1", Epoch: epoch, RetryBase: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Recovery: restore the checkpointed cursor, replay the tail.
		f.SetCursor(epoch, ckpt)
		for _, b := range stream[ckpt:] {
			f.Deliver(b)
		}
		for live := r.IntN(12); live > 0; live-- {
			if r.IntN(12) == 0 {
				// A fresh epoch under the same forwarder: nothing learned
				// under the old one may carry over.
				if _, pos := f.Covered(); pos.Seq > 0 {
					out.remints++
				}
				epoch++
				stream, ckpt = nil, 0
				f.SetCursor(epoch, 0)
			}
			if !cut() {
				break
			}
			f.Deliver(stream[len(stream)-1])
			if r.IntN(4) == 0 {
				ckpt = uint64(len(stream)) // a checkpoint at this quiescent point
			}
		}
		// The crash: these batches reached the WAL, not the analyzer.
		for n := r.IntN(3); n > 0; n-- {
			cut()
		}
		st := f.Stats()
		skipped, _ := f.Covered()
		out.stats = append(out.stats, st)
		out.retries += st.Retries
		out.skipped += skipped
	}

	state, err := server.AppendState(nil, ra.node.Server().ExportState())
	if err != nil {
		t.Fatal(err)
	}
	out.state = state
	_, _, out.applied, _ = ra.node.Server().PeerCounters()
	out.posts, out.violations = ra.posts, ra.violations
	return out
}

func TestReplaySkipEquivalentToSendingEverything(t *testing.T) {
	var skipped, remints, saved, retries int
	for seed := uint64(1); seed <= 40; seed++ {
		ref := runReplayScenario(t, seed, false)
		got := runReplayScenario(t, seed, true)

		// The analyzer ends in the same place either way.
		if !bytes.Equal(got.state, ref.state) {
			t.Fatalf("seed %d: analyzer state differs from the send-everything reference", seed)
		}
		if got.applied != ref.applied {
			t.Fatalf("seed %d: analyzer applied %d relay batches, reference %d", seed, got.applied, ref.applied)
		}
		// So does every relay boot's view of it.
		if !reflect.DeepEqual(got.stats, ref.stats) {
			t.Fatalf("seed %d: forward stats per boot\n got %+v\nwant %+v", seed, got.stats, ref.stats)
		}
		// Compat: an analyzer whose acks carry no seq gets every batch.
		var delivered int64
		for _, st := range ref.stats {
			delivered += st.Batches + st.Dropped
		}
		if ref.skipped != 0 || int64(ref.posts) != delivered+ref.retries {
			t.Fatalf("seed %d: against an analyzer without ack seqs the relay skipped %d and POSTed %d times for %d batches and %d retries, want every batch sent",
				seed, ref.skipped, ref.posts, delivered, ref.retries)
		}
		// The skipping relay never asks about a batch it was told is in.
		if len(got.violations) > 0 {
			t.Fatalf("seed %d: %v", seed, got.violations)
		}
		if int64(got.posts) != int64(ref.posts)-got.skipped {
			t.Fatalf("seed %d: %d POSTs, want the reference's %d minus %d skipped", seed, got.posts, ref.posts, got.skipped)
		}
		skipped += int(got.skipped)
		remints += got.remints
		saved += ref.posts - got.posts
		retries += int(got.retries)
	}
	// Non-vacuity: replays skipped batches, responses were lost and
	// retried, and fresh epochs were stamped by forwarders holding a
	// learned position.
	if skipped == 0 || saved == 0 || retries == 0 || remints == 0 {
		t.Fatalf("vacuous run: %d batches skipped, %d POSTs saved, %d retries, %d re-mints after learning", skipped, saved, retries, remints)
	}
	t.Logf("%d batches skipped, %d POSTs saved, %d retries, %d re-mints after learning", skipped, saved, retries, remints)
}

// ackStub answers every /peer/ingest POST with a fixed ack, counting
// the POSTs.
func ackStub(t *testing.T, ack string) (url string, posts func() int) {
	t.Helper()
	var mu sync.Mutex
	n := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(ack))
	}))
	t.Cleanup(ts.Close)
	return ts.URL, func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
}

// Only a duplicate ack's seq opens a skip: an analyzer without the field
// and an applied ack that (against the contract) states a seq both get
// every batch.
func TestReplaySkipNeedsADuplicateAckSeq(t *testing.T) {
	for _, ack := range []string{`{"applied":false}`, `{"applied":true,"seq":1000}`} {
		url, posts := ackStub(t, ack)
		f, err := topology.NewForwarder(url, topology.ForwarderOptions{Origin: "relay-1", Epoch: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range eqBatches(5, 1) {
			f.Deliver(b)
		}
		if got := posts(); got != 5 {
			t.Errorf("ack %s: %d POSTs for 5 batches, want every batch sent", ack, got)
		}
		if skipped, _ := f.Covered(); skipped != 0 {
			t.Errorf("ack %s: %d batches skipped, want 0", ack, skipped)
		}
	}
}
