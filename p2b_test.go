package p2b_test

import (
	"math"
	"testing"

	"p2b"
)

func TestPublicQuickstartFlow(t *testing.T) {
	env, err := p2b.NewSyntheticEnvironment(p2b.SyntheticConfig{
		D: 6, Arms: 5, Beta: 0.1, Sigma: 0.1,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := p2b.NewSystem(p2b.Config{
		Mode: p2b.WarmPrivate, T: 10, P: 0.5, K: 32, Threshold: 2, Seed: 1,
	}, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunRange(0, 1500, true)
	sys.Flush()
	eval := sys.RunRange(1_000_000, 200, false)
	if eval.Overall.Count() != 2000 {
		t.Fatalf("eval rewards %d", eval.Overall.Count())
	}
	if math.Abs(sys.Epsilon()-math.Ln2) > 1e-12 {
		t.Fatalf("epsilon %v", sys.Epsilon())
	}
}

func TestPublicPrivacyHelpers(t *testing.T) {
	if math.Abs(p2b.Epsilon(0.5)-math.Ln2) > 1e-12 {
		t.Fatal("Epsilon(0.5) wrong")
	}
	p := p2b.ParticipationForEpsilon(1.0)
	if p2b.Epsilon(p) > 1.0+1e-9 {
		t.Fatal("inverse overshoots")
	}
	if p2b.Delta(10, 0.5, 1) >= p2b.Delta(5, 0.5, 1) {
		t.Fatal("Delta must decay in l")
	}
}

func TestPublicEncoders(t *testing.T) {
	grid, err := p2b.NewGridEncoder(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if grid.K() != 66 {
		t.Fatalf("grid K=%d, want 66", grid.K())
	}
	lsh, err := p2b.NewLSHEncoder(5, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if lsh.K() != 16 {
		t.Fatalf("lsh K=%d", lsh.K())
	}
	r := p2b.NewRand(9)
	sample := make([][]float64, 200)
	for i := range sample {
		sample[i] = r.Simplex(5)
	}
	km, err := p2b.FitKMeansEncoder(sample, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if km.K() != 8 {
		t.Fatalf("kmeans K=%d", km.K())
	}
	code := km.Encode(sample[0])
	if code < 0 || code >= 8 {
		t.Fatalf("code %d out of range", code)
	}
}

func TestPublicMultiLabelEnvironment(t *testing.T) {
	env, agents, err := p2b.NewMultiLabelEnvironment(p2b.TextMiningLikeConfig(1500), 15, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if agents != 15 {
		t.Fatalf("agents %d", agents)
	}
	if env.Dim() != 20 || env.Arms() != 20 {
		t.Fatalf("env shape %d/%d", env.Dim(), env.Arms())
	}
	sys, err := p2b.NewSystem(p2b.Config{Mode: p2b.Cold, T: 20, Seed: 2}, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.RunRange(0, 10, true)
	if res.Overall.Count() != 200 {
		t.Fatalf("interactions %d", res.Overall.Count())
	}
}

func TestPublicAdLogEnvironment(t *testing.T) {
	env, agents, err := p2b.NewAdLogEnvironment(p2b.CriteoLikeConfig(6000), 100, 11)
	if err != nil {
		t.Fatal(err)
	}
	if agents < 10 {
		t.Fatalf("agents %d", agents)
	}
	if env.Dim() != 10 || env.Arms() != 40 {
		t.Fatalf("env shape %d/%d", env.Dim(), env.Arms())
	}
}

func TestModesExported(t *testing.T) {
	if p2b.Cold.String() != "cold" || p2b.WarmPrivate.String() != "warm-private" {
		t.Fatal("mode constants broken")
	}
}
