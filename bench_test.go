// Benchmarks regenerating each of the paper's figures (scaled down so a
// full -bench=. run stays in the minutes range; cmd/p2bbench reaches paper
// scale with -scale) plus micro-benchmarks for the hot components. Figure
// benches report the headline metric of the figure via b.ReportMetric so
// regressions in *results*, not just speed, are visible.
package p2b_test

import (
	"testing"

	"p2b/agent"
	"p2b/internal/bandit"
	"p2b/internal/core"
	"p2b/internal/encoding"
	"p2b/internal/experiments"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/synthetic"
	"p2b/internal/transport"
)

// benchOpts are the scaled-down experiment options used by every figure
// bench.
func benchOpts(scale float64) experiments.Options {
	return experiments.Options{Seed: 7, Scale: scale, Workers: 8}
}

func runFigure(b *testing.B, name string, scale float64) *experiments.Result {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Registry[name](benchOpts(scale))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	return last
}

// lastY returns the final Y value of series named like mode in table ti.
func lastY(res *experiments.Result, ti int, name string) float64 {
	for _, s := range res.Tables[ti].Series {
		if s.Name == name && len(s.Points) > 0 {
			return s.Points[len(s.Points)-1].Y
		}
	}
	return 0
}

// BenchmarkFigure2Encoding regenerates the d=3, q=1 encoding example.
func BenchmarkFigure2Encoding(b *testing.B) {
	runFigure(b, "fig2", 1)
}

// BenchmarkFigure3Epsilon regenerates the epsilon(p) sweep.
func BenchmarkFigure3Epsilon(b *testing.B) {
	res := runFigure(b, "fig3", 1)
	if v, ok := res.Tables[0].Series[0].YAt(0.5); ok {
		b.ReportMetric(v, "eps@p=0.5")
	}
}

// BenchmarkFigure4Synthetic regenerates the population sweep (all three arm
// panels) at 1/20 of the bench-default population.
func BenchmarkFigure4Synthetic(b *testing.B) {
	res := runFigure(b, "fig4", 0.05)
	b.ReportMetric(lastY(res, 0, "warm-private"), "A10_private_reward")
	b.ReportMetric(lastY(res, 0, "cold"), "A10_cold_reward")
}

// BenchmarkFigure5DimensionSweep regenerates the context-dimension sweep.
func BenchmarkFigure5DimensionSweep(b *testing.B) {
	res := runFigure(b, "fig5", 0.05)
	b.ReportMetric(lastY(res, 0, "warm-private"), "d20_private_reward")
}

// BenchmarkFigure6MultiLabel regenerates both multi-label accuracy panels.
func BenchmarkFigure6MultiLabel(b *testing.B) {
	res := runFigure(b, "fig6", 0.25)
	b.ReportMetric(lastY(res, 0, "warm-private"), "mediamill_private_acc")
	b.ReportMetric(lastY(res, 1, "warm-private"), "textmining_private_acc")
}

// BenchmarkFigure7Criteo regenerates both CTR panels (k=2^5, 2^7).
func BenchmarkFigure7Criteo(b *testing.B) {
	res := runFigure(b, "fig7", 0.25)
	b.ReportMetric(lastY(res, 0, "warm-private"), "k32_private_ctr")
	b.ReportMetric(lastY(res, 0, "warm-nonprivate"), "k32_nonprivate_ctr")
}

// BenchmarkAblationEncoders compares encoder families end to end.
func BenchmarkAblationEncoders(b *testing.B) {
	runFigure(b, "ab-encoder", 0.1)
}

// BenchmarkAblationParticipation sweeps the participation probability.
func BenchmarkAblationParticipation(b *testing.B) {
	runFigure(b, "ab-p", 0.1)
}

// BenchmarkAblationThreshold sweeps the crowd-blending threshold.
func BenchmarkAblationThreshold(b *testing.B) {
	runFigure(b, "ab-l", 0.1)
}

// BenchmarkAblationCodeSpace sweeps the encoder size k.
func BenchmarkAblationCodeSpace(b *testing.B) {
	runFigure(b, "ab-k", 0.1)
}

// BenchmarkAblationPolicies compares local learners on encoded contexts.
func BenchmarkAblationPolicies(b *testing.B) {
	runFigure(b, "ab-policy", 0.1)
}

// BenchmarkAblationLearners compares the tabular and centroid private
// hypothesis classes across code-space sizes.
func BenchmarkAblationLearners(b *testing.B) {
	runFigure(b, "ab-learner", 0.1)
}

// --- Component micro-benchmarks ---

func benchContexts(n, d int) [][]float64 {
	r := rng.New(3)
	out := make([][]float64, n)
	for i := range out {
		out[i] = r.Simplex(d)
	}
	return out
}

// BenchmarkLinUCBSelect measures one action selection at the paper's
// synthetic scale (d=10, A=20).
func BenchmarkLinUCBSelect(b *testing.B) {
	l := bandit.NewLinUCB(20, 10, 1, rng.New(1))
	xs := benchContexts(256, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Select(xs[i%len(xs)])
	}
}

// BenchmarkLinUCBUpdate measures one Sherman-Morrison ridge update.
func BenchmarkLinUCBUpdate(b *testing.B) {
	l := bandit.NewLinUCB(20, 10, 1, rng.New(1))
	xs := benchContexts(256, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Update(xs[i%len(xs)], i%20, 0.5)
	}
}

// BenchmarkTabularSelect measures the private agent's per-step cost.
func BenchmarkTabularSelect(b *testing.B) {
	t := bandit.NewTabularUCB(1024, 20, 1, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.SelectCode(i % 1024)
	}
}

// BenchmarkTabularUpdate measures the private agent's O(1) update.
func BenchmarkTabularUpdate(b *testing.B) {
	t := bandit.NewTabularUCB(1024, 20, 1, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.UpdateCode(i%1024, i%20, 0.5)
	}
}

// BenchmarkKMeansEncode measures the on-device encoding cost the paper
// quotes as O(kd) (k=1024, d=10) — here served by the pruned index.
func BenchmarkKMeansEncode(b *testing.B) {
	xs := benchContexts(4096, 10)
	km, err := encoding.FitKMeans(xs, 1024, 10, 1e-6, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		km.Encode(xs[i%len(xs)])
	}
}

// BenchmarkKMeansEncodeNaive is the guard benchmark for the pruned search:
// the brute-force scan the seed tree shipped, kept as the reference both
// for correctness (property tests) and for the speedup ratio reported in
// DESIGN.md.
func BenchmarkKMeansEncodeNaive(b *testing.B) {
	xs := benchContexts(4096, 10)
	km, err := encoding.FitKMeans(xs, 1024, 10, 1e-6, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		km.EncodeNaive(xs[i%len(xs)])
	}
}

// BenchmarkKMeansFit measures encoder fitting (k=256 on 4096 points).
func BenchmarkKMeansFit(b *testing.B) {
	xs := benchContexts(4096, 10)
	for i := 0; i < b.N; i++ {
		if _, err := encoding.FitKMeans(xs, 256, 10, 1e-6, rng.New(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridEncode measures the stars-and-bars quantizer (d=10, q=1).
func BenchmarkGridEncode(b *testing.B) {
	g, err := encoding.NewGridQuantizer(10, 1)
	if err != nil {
		b.Fatal(err)
	}
	xs := benchContexts(4096, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Encode(xs[i%len(xs)])
	}
}

// BenchmarkLSHEncode measures the hyperplane encoder (d=10, 10 bits).
func BenchmarkLSHEncode(b *testing.B) {
	l, err := encoding.NewLSH(10, 10, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	xs := benchContexts(4096, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Encode(xs[i%len(xs)])
	}
}

// BenchmarkShufflerThroughput measures end-to-end shuffler tuple
// processing including batch shuffles and thresholding.
func BenchmarkShufflerThroughput(b *testing.B) {
	sink := shuffler.SinkFunc(func(batch []transport.Tuple) {})
	s := shuffler.New(shuffler.Config{BatchSize: 1024, Threshold: 4}, sink, rng.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(transport.Envelope{
			Meta:  transport.Metadata{DeviceID: "bench", Addr: "10.0.0.1:1", SentAt: int64(i)},
			Tuple: transport.Tuple{Code: i % 64, Action: i % 20, Reward: 0.5},
		})
	}
}

// BenchmarkServerDeliverSerial guards the ingestion cost of one 256-tuple
// batch: one lock, one pass over the batch.
func BenchmarkServerDeliverSerial(b *testing.B) {
	srv := server.New(server.Config{K: 1024, Arms: 20, D: 10, Alpha: 1, Seed: 1})
	batch := make([]transport.Tuple, 256)
	for i := range batch {
		batch[i] = transport.Tuple{Code: i % 1024, Action: i % 20, Reward: 0.5}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Deliver(batch)
	}
	b.StopTimer()
	_ = srv.Stats()
}

// BenchmarkTabularSnapshot measures warm-start snapshot distribution, the
// per-user server-side cost of the private pipeline (cache-hit regime:
// many snapshots between deliveries).
func BenchmarkTabularSnapshot(b *testing.B) {
	srv := server.New(server.Config{K: 1024, Arms: 20, D: 10, Alpha: 1, Seed: 1})
	batch := make([]transport.Tuple, 256)
	for i := range batch {
		batch[i] = transport.Tuple{Code: i % 1024, Action: i % 20, Reward: 0.5}
	}
	srv.Deliver(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = srv.TabularSnapshot()
	}
}

// benchCodeEncoder is a trivial deterministic Encoder: warm-start cost, not
// encoding cost, is what the fleet benchmarks measure.
type benchCodeEncoder struct{ k int }

func (e benchCodeEncoder) Encode(x []float64) int {
	return int(x[0]*1e6) % e.k
}
func (e benchCodeEncoder) K() int { return e.k }

// BenchmarkFleetWarmStart measures the per-device cost of joining a warm
// fleet: one agent.New warm-starting from the server's tabular model
// through the in-process Loopback — the exact path a simulated 10^6-user
// population pays once per user. The global snapshot must be built once
// per model version and shared; per-agent cost is the learner's own
// buffers, not another copy of the global model.
func BenchmarkFleetWarmStart(b *testing.B) {
	srv := server.New(server.Config{K: 1024, Arms: 20, D: 10, Alpha: 1, Seed: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 256, Threshold: 2}, srv, rng.New(2))
	batch := make([]transport.Tuple, 4096)
	for i := range batch {
		batch[i] = transport.Tuple{Code: i % 1024, Action: i % 20, Reward: 0.5}
	}
	srv.Deliver(batch)
	loop := agent.NewLoopback(shuf, srv)
	enc := benchCodeEncoder{k: 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ag, err := agent.New(agent.Config{
			Policy:  agent.PolicyTabular,
			Encoder: enc,
			Source:  loop,
			Rand:    rng.New(uint64(i) + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !ag.WarmStarted() {
			b.Fatal("agent did not warm-start")
		}
	}
}

// BenchmarkLinSnapshotBuild measures one LinUCB snapshot rebuild
// (accumulator copy + per-arm ridge inversions) at a size where the O(arms d^3)
// inversions dominate — the cost every model-version bump pays once.
func BenchmarkLinSnapshotBuild(b *testing.B) {
	const d, arms = 48, 16
	srv := server.New(server.Config{K: 16, Arms: arms, D: d, Alpha: 1, Seed: 1})
	x := rng.New(5).Simplex(d)
	for a := 0; a < arms; a++ {
		if err := srv.IngestRaw(transport.RawTuple{Context: x, Action: a, Reward: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bump the version so every iteration pays a real rebuild.
		if err := srv.IngestRaw(transport.RawTuple{Context: x, Action: i % arms, Reward: 0.5}); err != nil {
			b.Fatal(err)
		}
		if st, _ := srv.LinUCBModel(); st == nil {
			b.Fatal("nil snapshot")
		}
	}
}

// BenchmarkSimulatedUser measures the full per-user cost of each regime:
// warm start, T=10 interactions, participation.
func BenchmarkSimulatedUser(b *testing.B) {
	env, err := synthetic.New(synthetic.Config{D: 10, Arms: 20, Beta: 0.1, Sigma: 0.1}, rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []core.Mode{core.Cold, core.WarmNonPrivate, core.WarmPrivate} {
		b.Run(mode.String(), func(b *testing.B) {
			sys, err := core.NewSystem(core.Config{
				Mode: mode, T: 10, P: 0.5, K: 64, Threshold: 2, Seed: 5,
			}, env, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.RunRange(i, 1, true)
			}
		})
	}
}
