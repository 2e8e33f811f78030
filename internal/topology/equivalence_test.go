// The in-process version of the topology-equivalence CI check: a
// partitioned fleet — two relays forwarding to two peered analyzers — must
// converge to the byte-identical model a single combined node computes
// over the same input.
//
// The exactness conditions (see DESIGN.md "Multi-node topology"):
// integral rewards and integer-valued sums make every accumulator addition
// exact, so addition is associative and fold order cannot matter; uniform
// batches keep the crowd-blending threshold from dropping different
// multisets on different nodes; each server folds batches into its one
// accumulator in arrival order.
package topology_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"p2b/agent"
	"p2b/internal/node"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

const (
	eqK, eqArms, eqD = 16, 4, 3
	eqBatch, eqThr   = 8, 4
)

// eqConfig is one fleet member under the exactness conditions: the shared
// batch size and threshold, and its own shuffler seed (fold order must not
// matter, so every node gets another).
func eqConfig(role topology.Role, name string, seed uint64) node.Config {
	return node.Config{
		Role:     role,
		Name:     name,
		Server:   server.Config{K: eqK, Arms: eqArms, D: eqD, Alpha: 1, Seed: seed},
		Shuffler: shuffler.Config{BatchSize: eqBatch, Threshold: eqThr},
	}
}

// eqOpen assembles a node exactly as p2bnode would.
func eqOpen(t *testing.T, cfg node.Config) *node.Node {
	t.Helper()
	cfg.Logf = t.Logf
	n, err := node.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// eqServe opens an in-memory node and serves it for the test's lifetime.
func eqServe(t *testing.T, cfg node.Config) (*node.Node, string) {
	t.Helper()
	n := eqOpen(t, cfg)
	ts := httptest.NewServer(n.Handler())
	t.Cleanup(ts.Close)
	return n, ts.URL
}

// eqBatches builds uniform batches: every tuple in a batch shares one
// (code, action) pair, so the per-batch crowd count is the batch size and
// the threshold never drops anything — the kept multiset is identical no
// matter which shuffler processed the batch. Rewards are {0,1}: integral,
// so sums are exact.
func eqBatches(n int, seed uint64) [][]transport.Tuple {
	r := rng.New(seed)
	out := make([][]transport.Tuple, n)
	for i := range out {
		code, action := r.IntN(eqK), r.IntN(eqArms)
		b := make([]transport.Tuple, eqBatch)
		for j := range b {
			b[j] = transport.Tuple{Code: code, Action: action, Reward: float64(r.IntN(2))}
		}
		out[i] = b
	}
	return out
}

// submit posts each batch over the binary wire and flushes, mirroring how
// the equivalence script drives real processes phase by phase.
func submit(t *testing.T, nodeURL string, batches [][]transport.Tuple) {
	t.Helper()
	tr := agent.NewHTTPTransport(nodeURL, agent.HTTPTransportOptions{MaxBatch: eqBatch, MaxAge: time.Hour, MaxInFlight: 1})
	for _, b := range batches {
		for _, tup := range b {
			if err := tr.Report(agent.Envelope{Tuple: tup}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.FlushNode(); err != nil {
		t.Fatal(err)
	}
}

func fetchModel(t *testing.T, nodeURL string) string {
	t.Helper()
	resp, err := http.Get(nodeURL + "/server/model?kind=tabular")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /server/model?kind=tabular: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestPartitionedFleetMatchesSingleNodeByteForByte(t *testing.T) {
	batches := eqBatches(12, 77)
	partA, partB := batches[:6], batches[6:]

	// Reference: one combined node sees everything.
	_, singleURL := eqServe(t, eqConfig(topology.RoleCombined, "single", 5))
	submit(t, singleURL, partA)
	submit(t, singleURL, partB)

	// Fleet: two analyzers peered with each other...
	a1, a1URL := eqServe(t, eqConfig(topology.RoleAnalyzer, "analyzer-1", 6))
	a2, a2URL := eqServe(t, eqConfig(topology.RoleAnalyzer, "analyzer-2", 7))
	a1Srv, a2Srv := a1.Server(), a2.Server()

	// ...fed by two relays, one per partition, each forwarding to its own
	// analyzer.
	for i, tc := range []struct {
		origin     string
		downstream string
		part       [][]transport.Tuple
	}{
		{"relay-1", a1URL, partA},
		{"relay-2", a2URL, partB},
	} {
		cfg := eqConfig(topology.RoleRelay, tc.origin, 10+uint64(i))
		cfg.Downstream = tc.downstream
		relay, relayURL := eqServe(t, cfg)
		submit(t, relayURL, tc.part)
		if st := relay.Forwarder().Stats(); st.Dropped != 0 {
			t.Fatalf("%s dropped %d batches", tc.origin, st.Dropped)
		}
	}

	// Anti-entropy: drive one deterministic sync cycle in each direction
	// (the daemonized loop does exactly this on a timer).
	for _, p := range []struct {
		origin string
		from   *server.Server
		to     string
	}{
		{"analyzer-1", a1Srv, a2URL},
		{"analyzer-2", a2Srv, a1URL},
	} {
		peering, err := topology.NewPeering(topology.PeeringOptions{
			Origin:       p.origin,
			Peers:        []string{p.to},
			Export:       p.from.ExportState,
			LocalVersion: p.from.LocalVersion,
		})
		if err != nil {
			t.Fatal(err)
		}
		peering.Sync()
		for _, st := range peering.Status() {
			if st.Errors != 0 || st.Pushes != 1 {
				t.Fatalf("%s -> %s sync = %+v", p.origin, p.to, st)
			}
		}
	}

	// Every analyzer now serves the single-node model, byte for byte.
	want := fetchModel(t, singleURL)
	if got := fetchModel(t, a1URL); got != want {
		t.Errorf("analyzer-1 model diverged from single node:\n got %s\nwant %s", got, want)
	}
	if got := fetchModel(t, a2URL); got != want {
		t.Errorf("analyzer-2 model diverged from single node:\n got %s\nwant %s", got, want)
	}

	// Non-vacuity: the fleet really did split the work.
	if n := a1Srv.Stats().TuplesIngested; n == 0 || n == 6*eqBatch+6*eqBatch {
		t.Fatalf("analyzer-1 locally ingested %d tuples; the partition did not split", n)
	}
	ma, _, rb, _ := a1Srv.PeerCounters()
	if ma == 0 || rb == 0 {
		t.Fatalf("equivalence was vacuous: merges=%d relay batches=%d", ma, rb)
	}
}

// A relay crash-restart resuming its WAL tail under a FRESH epoch is the
// documented at-least-once gap: the analyzer cannot distinguish the replay
// from new data. This test pins the SAFE variant — same epoch — where the
// guard does deduplicate, so the gap stays a relay-restart property and
// never a steady-state one.
func TestRelayRetransmitSameEpochIsDeduplicated(t *testing.T) {
	a, aURL := eqServe(t, eqConfig(topology.RoleAnalyzer, "analyzer-1", 6))

	batches := eqBatches(3, 5)
	deliverAll := func() topology.ForwardStats {
		fwd, err := topology.NewForwarder(aURL, topology.ForwarderOptions{
			Origin: "relay-1", Epoch: 99, RetryBase: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			fwd.Deliver(b)
		}
		return fwd.Stats()
	}
	if st := deliverAll(); st.Batches != 3 || st.Duplicates != 0 {
		t.Fatalf("first forward stats = %+v, want 3 batches and no duplicates", st)
	}
	want := fetchModel(t, aURL)
	// The "restarted relay re-forwards its whole log" case: every batch
	// counts as a duplicate on the relay, but only the first is asked
	// about — its ack states seq 3, which covers the other two.
	if st := deliverAll(); st.Batches != 3 || st.Duplicates != 3 || st.Dropped != 0 {
		t.Fatalf("re-forward stats = %+v, want 3 batches, all duplicates", st)
	}
	if got := fetchModel(t, aURL); got != want {
		t.Fatal("re-forwarded batches changed the model: duplicate guard failed")
	}
	_, _, rb, rd := a.Server().PeerCounters()
	if rb != 3 || rd != 1 {
		t.Fatalf("analyzer relay counters = applied %d duplicates %d, want 3/1", rb, rd)
	}
}
