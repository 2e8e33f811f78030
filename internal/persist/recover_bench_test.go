package persist

import (
	"testing"
	"time"

	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

// BenchmarkRecoverTail times Open on a checkpoint plus a WAL tail of 4000
// records of 200 tuples each — the durable node's recovery at the
// ingest_interval load shape: k = 64 (48 background codes drawn
// Zipf(1.1)), 8 arms, d = 10, threshold 4, 256-tuple shuffler batches. One
// op is a whole recovery into fresh components: scan, CRC, decode and
// replay through the shuffler cut and the server.
func BenchmarkRecoverTail(b *testing.B) {
	const (
		k, arms, d     = 64, 8, 10
		batch, thresh  = 256, 4
		records, width = 4000, 200
	)
	node := func() (*shuffler.Shuffler, *server.Server) {
		srv := server.New(server.Config{K: k, Arms: arms, D: d, Alpha: 1, Seed: 1})
		return shuffler.New(shuffler.Config{BatchSize: batch, Threshold: thresh}, srv, rng.New(1).Split("shuffler")), srv
	}
	quiet := Options{SyncInterval: time.Hour, Logf: func(string, ...any) {}}
	dir := b.TempDir()
	shuf, srv := node()
	m, err := Open(dir, shuf, srv, quiet)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	zipf := rng.NewZipf(r, 1.1, k-16)
	chunk := make([]transport.Tuple, width)
	fill := func() {
		for i := range chunk {
			chunk[i] = transport.Tuple{Code: zipf.Draw(), Action: r.IntN(arms), Reward: float64(r.IntN(2))}
		}
	}
	for i := 0; i < 50; i++ {
		fill()
		if err := m.SubmitTuples(chunk); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		fill()
		if err := m.SubmitTuples(chunk); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shuf, srv := node()
		m, err := Open(dir, shuf, srv, quiet)
		if err != nil {
			b.Fatal(err)
		}
		if got := m.Recovery().ReplayedRecords; got != records {
			b.Fatalf("replayed %d records, want %d", got, records)
		}
		m.Close()
	}
}
