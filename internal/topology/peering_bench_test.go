package topology_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"p2b/internal/httpapi"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// BenchmarkPeeringRound times one whole push round — export the sender's
// local state, encode the PeerUpdate, POST it over loopback to a real
// /peer/merge route, decode and MergePeerState there — at the shape the
// fleet_relay benchmark runs and at p2bnode's default shape. ns/op is the
// t in the peering loop's 19·t hold-off; body-B/op is the request body the
// route received.
func BenchmarkPeeringRound(b *testing.B) {
	for _, shape := range []struct{ k, arms, d int }{{64, 8, 10}, {1024, 20, 10}} {
		b.Run(fmt.Sprintf("k=%d/arms=%d/d=%d", shape.k, shape.arms, shape.d), func(b *testing.B) {
			cfg := server.Config{K: shape.k, Arms: shape.arms, D: shape.d, Alpha: 1}
			sender, receiver := server.New(cfg), server.New(cfg)
			// Every cell populated with non-integral sums, as after real traffic:
			// an all-zero state marshals to a fraction of the bytes.
			r := rng.New(1)
			batch := make([]transport.Tuple, 0, 4*shape.k*shape.arms)
			for i := 0; i < cap(batch); i++ {
				batch = append(batch, transport.Tuple{Code: i % shape.k, Action: (i / shape.k) % shape.arms, Reward: r.Float64()})
			}
			sender.Deliver(batch)

			shuf := shuffler.New(shuffler.Config{BatchSize: eqBatch, Threshold: eqThr}, receiver, rng.New(2))
			h := httpapi.NewNodeHandlerOpts(shuf, receiver, httpapi.NodeOptions{
				Role: string(topology.RoleAnalyzer),
				Peer: &httpapi.PeerOptions{Origin: "b1", Epoch: 1, Export: receiver.ExportState},
			})
			var body atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body.Store(r.ContentLength)
				h.ServeHTTP(w, r)
			}))
			defer ts.Close()
			// A version that advances on every call: every Sync pushes.
			var version atomic.Uint64
			p, err := topology.NewPeering(topology.PeeringOptions{
				Origin: "a1", Epoch: 1, Peers: []string{ts.URL}, Export: sender.ExportState,
				LocalVersion: func() uint64 { return version.Add(1) },
			})
			if err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			for b.Loop() {
				p.Sync()
			}
			b.ReportMetric(float64(body.Load()), "body-B/op")
			if st := p.Status()[0]; st.Errors != 0 || st.Pushes != int64(b.N) {
				b.Fatalf("sync status after %d rounds = %+v", b.N, st)
			}
			if applied, _, _, _ := receiver.PeerCounters(); applied != int64(b.N) {
				b.Fatalf("receiver applied %d of %d pushes", applied, b.N)
			}
		})
	}
}
