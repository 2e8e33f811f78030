// The digest round, driven deterministically: a partitioned analyzer that
// receives NO inbound pushes must converge on the fleet state by pulling
// alone — fetching peer digests, diffing them against what it holds, and
// retrieving only the missing contributions. Exactness conditions are the
// equivalence test's, so convergence is asserted byte for byte.
package topology_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"p2b/internal/httpapi"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// digestNode is one analyzer: a server with its own shuffler and the full
// peer HTTP surface, including the digest and contrib routes.
type digestNode struct {
	srv  *server.Server
	shuf *shuffler.Shuffler
	url  string
}

func newDigestNode(t *testing.T, origin string, epoch, seed uint64, token string) *digestNode {
	t.Helper()
	srv := server.New(eqConfig(topology.RoleAnalyzer, origin, seed).Server)
	shuf := shuffler.New(shuffler.Config{BatchSize: eqBatch, Threshold: eqThr}, srv, rng.New(seed))
	ts := httptest.NewServer(httpapi.NewNodeHandlerOpts(shuf, srv, httpapi.NodeOptions{
		Role: string(topology.RoleAnalyzer),
		Peer: &httpapi.PeerOptions{
			Origin: origin,
			Epoch:  epoch,
			Export: srv.ExportState,
			Token:  token,
		},
	}))
	t.Cleanup(ts.Close)
	return &digestNode{srv: srv, shuf: shuf, url: ts.URL}
}

func (n *digestNode) ingest(batches [][]transport.Tuple) {
	for _, b := range batches {
		n.shuf.SubmitTuples(b)
	}
}

// newPuller builds n's peering the way p2bnode wires it: holdings from
// the server's stored contributions, fetches applied through
// MergePeerState. The loop is never started; tests drive DigestSync.
func newPuller(t *testing.T, n *digestNode, origin string, epoch uint64, token string, peers ...string) *topology.Peering {
	t.Helper()
	p, err := topology.NewPeering(topology.PeeringOptions{
		Origin:         origin,
		Epoch:          epoch,
		Peers:          peers,
		Token:          token,
		Export:         n.srv.ExportState,
		LocalVersion:   n.srv.LocalVersion,
		DigestInterval: time.Hour,
		Local: func() []topology.DigestEntry {
			var out []topology.DigestEntry
			for _, c := range n.srv.PeerStatus().Contributions {
				out = append(out, topology.DigestEntry{Origin: c.Origin, Epoch: c.Epoch, Seq: c.Seq})
			}
			return out
		},
		Apply: func(u topology.PeerUpdate) (bool, error) {
			return n.srv.MergePeerState(u.Origin, u.Epoch, u.Seq, u.State)
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pullStatus returns the single-peer SyncStatus of a one-peer puller.
func pullStatus(t *testing.T, p *topology.Peering) topology.SyncStatus {
	t.Helper()
	sts := p.Status()
	if len(sts) != 1 {
		t.Fatalf("puller tracks %d peers, want 1", len(sts))
	}
	return sts[0]
}

func TestPartitionedAnalyzerConvergesViaDigestAlone(t *testing.T) {
	batches := eqBatches(6, 42)

	// Analyzer A holds data and pushes to NOBODY: it has no peering at
	// all. Everything B learns, B must pull.
	a := newDigestNode(t, "analyzer-a", 7, 10, "")
	a.ingest(batches[:4])

	b := newDigestNode(t, "analyzer-b", 8, 11, "")
	puller := newPuller(t, b, "analyzer-b", 8, "", a.url)

	puller.DigestSync()
	if got, want := fetchModel(t, b.url), fetchModel(t, a.url); got != want {
		t.Errorf("after one digest round, B's model diverged from A's:\n got %s\nwant %s", got, want)
	}
	if st := pullStatus(t, puller); st.Pulls != 1 || st.Fetched != 1 || st.PullErrors != 0 {
		t.Fatalf("pull status after first round = %+v, want 1 pull fetching 1 contribution", st)
	}
	if applied, rejected, _, _ := b.srv.PeerCounters(); applied != 1 || rejected != 0 {
		t.Fatalf("B merge counters = applied %d rejected %d, want exactly one applied", applied, rejected)
	}

	// An idle round fetches nothing: A's digest position is covered.
	puller.DigestSync()
	if st := pullStatus(t, puller); st.Pulls != 2 || st.Fetched != 1 {
		t.Fatalf("idle round status = %+v, want a completed pull with no new fetches", st)
	}

	// A moves on; the next round picks up exactly the delta contribution.
	a.ingest(batches[4:])
	puller.DigestSync()
	if got, want := fetchModel(t, b.url), fetchModel(t, a.url); got != want {
		t.Errorf("after A advanced, B's model diverged:\n got %s\nwant %s", got, want)
	}
	if st := pullStatus(t, puller); st.Fetched != 2 || st.PullErrors != 0 {
		t.Fatalf("status after A advanced = %+v, want a second fetched contribution", st)
	}
}

// Digests list STORED third-party contributions too, so healing is
// transitive: C reaches only B, yet converges on A's data through B's
// stored copy — byte-identical to a single node that saw everything.
func TestDigestRoundHealsTransitively(t *testing.T) {
	batches := eqBatches(8, 99)
	partA, partB := batches[:5], batches[5:]

	single := newDigestNode(t, "single", 1, 5, "")
	single.ingest(partA)
	single.ingest(partB)

	a := newDigestNode(t, "analyzer-a", 7, 10, "")
	a.ingest(partA)
	b := newDigestNode(t, "analyzer-b", 8, 11, "")
	b.ingest(partB)

	// B pulls from A, then C (which holds nothing and can reach only B)
	// pulls from B.
	newPuller(t, b, "analyzer-b", 8, "", a.url).DigestSync()
	c := newDigestNode(t, "analyzer-c", 9, 12, "")
	cPuller := newPuller(t, c, "analyzer-c", 9, "", b.url)
	cPuller.DigestSync()

	if got, want := fetchModel(t, c.url), fetchModel(t, single.url); got != want {
		t.Errorf("C's model diverged from the single node:\n got %s\nwant %s", got, want)
	}
	// Non-vacuity: C fetched both B's own contribution and A's stored one.
	if st := pullStatus(t, cPuller); st.Fetched != 2 || st.PullErrors != 0 {
		t.Fatalf("C pull status = %+v, want 2 fetched contributions (B's own and A's gossiped)", st)
	}
	if applied, _, _, _ := c.srv.PeerCounters(); applied != 2 {
		t.Fatalf("C applied %d merges, want 2", applied)
	}
}

// Pushes and digests stamp sequence numbers from the same local-version
// counter, so a position learned from a push is recognized as covered by
// the pull side — a healthy pushed-to analyzer never refetches state it
// already holds.
func TestDigestSkipsPositionsAlreadyPushed(t *testing.T) {
	a := newDigestNode(t, "analyzer-a", 7, 10, "")
	a.ingest(eqBatches(3, 7))
	b := newDigestNode(t, "analyzer-b", 8, 11, "")

	// The shared counter is what makes the two sides agree, so a peering
	// without one is refused.
	if _, err := topology.NewPeering(topology.PeeringOptions{
		Origin: "analyzer-a", Peers: []string{b.url}, Export: a.srv.ExportState,
	}); err == nil {
		t.Fatal("NewPeering accepted a nil LocalVersion")
	}

	// A pushes to B once (the healthy steady state). Epoch 7 is the same
	// epoch A's digest surface advertises, exactly as p2bnode wires it.
	pusher, err := topology.NewPeering(topology.PeeringOptions{
		Origin:       "analyzer-a",
		Epoch:        7,
		Peers:        []string{b.url},
		Export:       a.srv.ExportState,
		LocalVersion: a.srv.LocalVersion,
	})
	if err != nil {
		t.Fatal(err)
	}
	pusher.Sync()
	if st := pullStatus(t, pusher); st.Pushes != 1 || st.Errors != 0 {
		t.Fatalf("push status = %+v, want one clean push", st)
	}

	// B's digest round against A must find nothing to fetch.
	puller := newPuller(t, b, "analyzer-b", 8, "", a.url)
	puller.DigestSync()
	if st := pullStatus(t, puller); st.Pulls != 1 || st.Fetched != 0 || st.PullErrors != 0 {
		t.Fatalf("pull status after push = %+v, want a completed round fetching nothing", st)
	}
}

// The digest and contrib routes hand out model state, so they demand the
// same bearer token the write routes do.
func TestDigestRoutesRequireToken(t *testing.T) {
	a := newDigestNode(t, "analyzer-a", 7, 10, "hunter2")
	a.ingest(eqBatches(2, 3))
	b := newDigestNode(t, "analyzer-b", 8, 11, "")

	unauthed := newPuller(t, b, "analyzer-b", 8, "", a.url)
	unauthed.DigestSync()
	if st := pullStatus(t, unauthed); st.PullErrors != 1 || st.Fetched != 0 {
		t.Fatalf("tokenless pull against a token-guarded peer = %+v, want one rejected round", st)
	}

	authed := newPuller(t, b, "analyzer-b", 8, "hunter2", a.url)
	authed.DigestSync()
	if st := pullStatus(t, authed); st.Pulls != 1 || st.Fetched != 1 {
		t.Fatalf("authenticated pull = %+v, want one fetched contribution", st)
	}
	if got, want := fetchModel(t, b.url), fetchModel(t, a.url); got != want {
		t.Error("authenticated digest round did not converge B on A's model")
	}
}
