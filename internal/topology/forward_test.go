package topology

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"p2b/internal/transport"
)

// peerSink is a test /peer/ingest endpoint recording delivered batches and
// optionally failing the first failN requests with failStatus (and a
// Retry-After header when retryAfter is set).
type peerSink struct {
	failN      atomic.Int64
	failStatus int
	retryAfter string

	mu      chan struct{} // 1-token semaphore; tests are sequential anyway
	batches [][]transport.Tuple
	seqs    []uint64
	origins []string
	seen    map[string]bool
}

func newPeerSink() *peerSink {
	s := &peerSink{mu: make(chan struct{}, 1), seen: make(map[string]bool)}
	s.mu <- struct{}{}
	return s
}

func (s *peerSink) handler(t *testing.T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.failN.Load() > 0 {
			s.failN.Add(-1)
			if s.retryAfter != "" {
				w.Header().Set("Retry-After", s.retryAfter)
			}
			http.Error(w, "induced failure", s.failStatus)
			return
		}
		origin := r.Header.Get(OriginHeader)
		epoch := r.Header.Get(EpochHeader)
		seq, err := strconv.ParseUint(r.Header.Get(SeqHeader), 10, 64)
		if err != nil {
			t.Errorf("bad seq header: %v", err)
		}
		fr, err := transport.NewFrameReader(r.Body)
		if err != nil {
			t.Errorf("bad stream: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var batch []transport.Tuple
		var tup transport.Tuple
		for {
			if err := fr.NextTuple(&tup); err != nil {
				if err == io.EOF {
					break
				}
				t.Errorf("decoding frame: %v", err)
				break
			}
			batch = append(batch, tup)
		}
		<-s.mu
		key := origin + "/" + epoch + "/" + strconv.FormatUint(seq, 10)
		applied := !s.seen[key]
		if applied {
			s.seen[key] = true
			s.batches = append(s.batches, batch)
			s.seqs = append(s.seqs, seq)
			s.origins = append(s.origins, origin)
		}
		s.mu <- struct{}{}
		_ = json.NewEncoder(w).Encode(PeerAck{Applied: applied})
	})
}

func testBatch(n int) []transport.Tuple {
	batch := make([]transport.Tuple, n)
	for i := range batch {
		batch[i] = transport.Tuple{Code: i, Action: i % 3, Reward: 1}
	}
	return batch
}

func TestForwarderDeliversInSequence(t *testing.T) {
	sink := newPeerSink()
	ts := httptest.NewServer(sink.handler(t))
	defer ts.Close()

	fwd, err := NewForwarder(ts.URL, ForwarderOptions{Origin: "relay-1"})
	if err != nil {
		t.Fatal(err)
	}
	fwd.Deliver(testBatch(3))
	fwd.Deliver(testBatch(2))
	fwd.Deliver(nil) // empty batches never hit the wire

	st := fwd.Stats()
	if st.Batches != 2 || st.Tuples != 5 || st.Dropped != 0 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(sink.seqs) != 2 || sink.seqs[0] != 1 || sink.seqs[1] != 2 {
		t.Fatalf("downstream saw seqs %v, want [1 2]", sink.seqs)
	}
	if sink.origins[0] != "relay-1" {
		t.Fatalf("origin = %q", sink.origins[0])
	}
	if len(sink.batches[0]) != 3 || len(sink.batches[1]) != 2 {
		t.Fatalf("batch sizes %d/%d", len(sink.batches[0]), len(sink.batches[1]))
	}
}

func TestForwarderRetriesTransientFailures(t *testing.T) {
	sink := newPeerSink()
	sink.failStatus = http.StatusServiceUnavailable
	sink.failN.Store(2)
	ts := httptest.NewServer(sink.handler(t))
	defer ts.Close()

	fwd, err := NewForwarder(ts.URL, ForwarderOptions{Origin: "relay-1", RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fwd.Deliver(testBatch(4))
	st := fwd.Stats()
	if st.Batches != 1 || st.Retries != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(sink.batches) != 1 {
		t.Fatalf("downstream applied %d batches", len(sink.batches))
	}
}

// A shed from the analyzer's admission gate paces the relay: the
// Retry-After is a floor on the one wait it causes, and the batch still
// lands exactly once.
func TestForwarderHonorsRetryAfter(t *testing.T) {
	sink := newPeerSink()
	sink.failStatus = http.StatusTooManyRequests
	sink.retryAfter = "1"
	sink.failN.Store(1)
	ts := httptest.NewServer(sink.handler(t))
	defer ts.Close()

	fwd, err := NewForwarder(ts.URL, ForwarderOptions{Origin: "relay-1", RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	fwd.Deliver(testBatch(4))
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("delivered %v after a 429 with Retry-After: 1 — the hint was ignored", elapsed)
	}
	if st := fwd.Stats(); st.Batches != 1 || st.Retries != 1 || st.Dropped != 0 || st.Duplicates != 0 {
		t.Fatalf("stats = %+v, want one batch delivered on one retry", st)
	}
	if len(sink.batches) != 1 {
		t.Fatalf("downstream applied %d batches, want exactly 1", len(sink.batches))
	}
}

func TestForwarderDropsAfterRetryBudget(t *testing.T) {
	sink := newPeerSink()
	sink.failStatus = http.StatusServiceUnavailable
	sink.failN.Store(100)
	ts := httptest.NewServer(sink.handler(t))
	defer ts.Close()

	fwd, err := NewForwarder(ts.URL, ForwarderOptions{Origin: "relay-1", MaxRetries: 2, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fwd.Deliver(testBatch(1))
	st := fwd.Stats()
	if st.Dropped != 1 || st.Batches != 0 || st.LastError == "" {
		t.Fatalf("stats = %+v", st)
	}

	// The next batch still goes out once the downstream recovers: a drop is
	// per batch, never a poisoned forwarder.
	sink.failN.Store(0)
	fwd.Deliver(testBatch(2))
	if st := fwd.Stats(); st.Batches != 1 || st.Dropped != 1 {
		t.Fatalf("stats after recovery = %+v", st)
	}
}

func TestForwarderAuthFailureIsSticky(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "peer token required", http.StatusUnauthorized)
	}))
	defer ts.Close()

	fwd, err := NewForwarder(ts.URL, ForwarderOptions{Origin: "relay-1", MaxRetries: 5, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fwd.Deliver(testBatch(1))
	if got := attempts.Load(); got != 1 {
		t.Fatalf("401 was retried %d times; misconfiguration must fail fast", got-1)
	}
	if st := fwd.Stats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestForwarderCountsDuplicateAcks(t *testing.T) {
	sink := newPeerSink()
	ts := httptest.NewServer(sink.handler(t))
	defer ts.Close()

	// Two forwarders sharing one origin and epoch simulate a relay that
	// re-forwards its WAL tail after a crash without a fresh epoch: the
	// second stream collides with the first and every batch acks duplicate.
	a, err := NewForwarder(ts.URL, ForwarderOptions{Origin: "relay-1", Epoch: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewForwarder(ts.URL, ForwarderOptions{Origin: "relay-1", Epoch: 7})
	if err != nil {
		t.Fatal(err)
	}
	a.Deliver(testBatch(2))
	b.Deliver(testBatch(2))
	if st := b.Stats(); st.Duplicates != 1 || st.Batches != 1 {
		t.Fatalf("duplicate stream stats = %+v", st)
	}
	if len(sink.batches) != 1 {
		t.Fatalf("downstream applied %d batches, want 1", len(sink.batches))
	}
}
