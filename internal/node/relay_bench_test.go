package node

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"p2b/internal/topology"
	"p2b/internal/transport"
)

// BenchmarkRelayRecoverTail times a durable relay's restart: Open on a
// checkpoint plus a WAL tail of 200 cut batches (64 tuples each) whose
// forwards an in-process analyzer already holds. One op is a crash-reopen:
// recovery, the replay's re-forward of the tail, and the close. posts/op
// is the analyzer's /peer/ingest request count per restart — the round
// trips the relay spends before it could serve.
func BenchmarkRelayRecoverTail(b *testing.B) {
	const batch, tail = 64, 200
	quiet := func(string, ...any) {}
	acfg := testConfig(topology.RoleAnalyzer, "a1", "")
	acfg.Logf = quiet
	analyzer, err := Open(acfg)
	if err != nil {
		b.Fatal(err)
	}
	var posts atomic.Int64
	h := analyzer.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/peer/ingest" {
			posts.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	rcfg := testConfig(topology.RoleRelay, "r1", filepath.Join(b.TempDir(), "relay"))
	rcfg.Shuffler.BatchSize = batch
	rcfg.Downstream, rcfg.Logf = ts.URL, quiet
	relay, err := Open(rcfg)
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]transport.Tuple, batch)
	submit := func(n int) {
		for i := 0; i < n; i++ {
			for j := range chunk {
				chunk[j] = transport.Tuple{Code: (i + j) % 8, Action: j % 3, Reward: float64(j % 2)}
			}
			if err := relay.Persist().SubmitTuples(chunk); err != nil {
				b.Fatal(err)
			}
		}
	}
	submit(20)
	if err := relay.Persist().Checkpoint(); err != nil {
		b.Fatal(err)
	}
	submit(tail)
	if err := relay.Persist().Close(); err != nil { // kill -9: no flush, no checkpoint
		b.Fatal(err)
	}

	posts.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relay, err := Open(rcfg)
		if err != nil {
			b.Fatal(err)
		}
		if st := relay.Forwarder().Stats(); st.Batches != tail || st.Duplicates != tail {
			b.Fatalf("replay forward stats = %+v, want %d batches, all duplicates", st, tail)
		}
		if err := relay.Persist().Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(posts.Load())/float64(b.N), "posts/op")
	if _, _, applied, _ := analyzer.Server().PeerCounters(); applied != 20+tail {
		b.Fatalf("analyzer applied %d relay batches, want %d", applied, 20+tail)
	}
}
