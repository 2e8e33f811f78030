package experiments

import (
	"strings"
	"testing"

	"p2b/internal/core"
)

// tiny returns options that keep smoke tests fast.
func tiny() Options { return Options{Seed: 7, Scale: 0.02, Workers: 4} }

func TestOptionsFill(t *testing.T) {
	var o Options
	o.fill()
	if o.Scale != 1 || o.Workers != 4 || o.Seed == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	if o.scaled(100) != 100 {
		t.Fatalf("scaled(100) = %d", o.scaled(100))
	}
	small := Options{Scale: 0.001}
	small.fill()
	if small.scaled(100) != 1 {
		t.Fatal("scaled must clamp to 1")
	}
}

func TestRegistryComplete(t *testing.T) {
	for _, name := range Names() {
		if Registry[name] == nil {
			t.Fatalf("experiment %q missing from registry", name)
		}
	}
	if len(Names()) != len(Registry) {
		t.Fatalf("Names() lists %d, registry has %d", len(Names()), len(Registry))
	}
}

func TestFigure2MatchesPaperConstants(t *testing.T) {
	res, err := Figure2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "n = 66") {
		t.Fatalf("cardinality note missing:\n%s", out)
	}
	// 66 points in 6 clusters must put at least 6 in the smallest cluster
	// only if perfectly balanced; assert a sane positive minimum instead.
	if !strings.Contains(out, "minimum cluster size l =") {
		t.Fatalf("cluster note missing:\n%s", out)
	}
}

func TestFigure3Epsilons(t *testing.T) {
	res, err := Figure3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	eps := res.Tables[0].Series[0]
	// Monotone increasing in p.
	for i := 1; i < len(eps.Points); i++ {
		if eps.Points[i].Y <= eps.Points[i-1].Y {
			t.Fatalf("epsilon not increasing at %v", eps.Points[i].X)
		}
	}
	if v, ok := eps.YAt(0.5); !ok || v < 0.69 || v > 0.70 {
		t.Fatalf("epsilon(0.5) = %v, want ~0.693", v)
	}
	// Delta table: decreasing in l for each p.
	for _, s := range res.Tables[1].Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y >= s.Points[i-1].Y {
				t.Fatalf("delta not decreasing for %s", s.Name)
			}
		}
	}
}

func TestFigure4SmokeShape(t *testing.T) {
	res, err := Figure4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 3 {
		t.Fatalf("expected 3 panels, got %d", len(res.Tables))
	}
	for _, tab := range res.Tables {
		if len(tab.Series) != 3 {
			t.Fatalf("expected 3 curves, got %d", len(tab.Series))
		}
		for _, s := range tab.Series {
			if len(s.Points) == 0 {
				t.Fatalf("series %s empty", s.Name)
			}
			for _, p := range s.Points {
				// Mean rewards live in [0, beta] up to noise; sampling
				// error can dip a cohort mean slightly below zero.
				if p.Y < -0.05 || p.Y > 0.2 {
					t.Fatalf("reward %v outside plausible range", p.Y)
				}
			}
		}
	}
}

func TestFigure5SmokeShape(t *testing.T) {
	res, err := Figure5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	if len(tab.Series) != 3 {
		t.Fatalf("expected 3 curves")
	}
	for _, s := range tab.Series {
		if len(s.Points) != 8 { // d = 6, 8, ..., 20
			t.Fatalf("series %s has %d points, want 8", s.Name, len(s.Points))
		}
	}
}

func TestFigure6SmokeShape(t *testing.T) {
	res, err := Figure6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("expected 2 datasets, got %d", len(res.Tables))
	}
	for _, tab := range res.Tables {
		for _, s := range tab.Series {
			if len(s.Points) != 5 {
				t.Fatalf("series %s has %d points, want 5", s.Name, len(s.Points))
			}
			// Accuracy should not collapse from n=5 to n=100 for warm
			// modes. The smoke scale uses tiny evaluation cohorts, so
			// allow generous sampling noise; the real monotonicity needs the
			// Scale >= 1 sizes stated in Figure6's doc comment.
			if s.Name != core.Cold.String() {
				first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
				if last < first-0.15 {
					t.Fatalf("series %s regressed: %v -> %v", s.Name, first, last)
				}
			}
		}
	}
	if len(res.Notes) < 2 {
		t.Fatal("headline gap notes missing")
	}
}

func TestFigure7SmokeShape(t *testing.T) {
	res, err := Figure7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("expected 2 panels (k=2^5, 2^7), got %d", len(res.Tables))
	}
	for _, tab := range res.Tables {
		if len(tab.Series) != 3 {
			t.Fatal("expected 3 curves")
		}
		for _, s := range tab.Series {
			if len(s.Points) != 6 {
				t.Fatalf("series %s has %d points, want 6", s.Name, len(s.Points))
			}
		}
	}
}

func TestHeadlineAggregates(t *testing.T) {
	res, err := Headline(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, needle := range []string{"epsilon at p=0.5", "mediamill-like", "k=2^5"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("headline missing %q:\n%s", needle, out)
		}
	}
}

func TestAblationEncodersSmoke(t *testing.T) {
	res, err := AblationEncoders(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Notes) != 4 {
		t.Fatalf("expected 4 encoder notes, got %d", len(res.Notes))
	}
}

func TestAblationParticipationSmoke(t *testing.T) {
	res, err := AblationParticipation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	eps := res.Tables[0].Series[1]
	for i := 1; i < len(eps.Points); i++ {
		if eps.Points[i].Y <= eps.Points[i-1].Y {
			t.Fatal("epsilon column must increase with p")
		}
	}
}

func TestAblationThresholdSmoke(t *testing.T) {
	res, err := AblationThreshold(tiny())
	if err != nil {
		t.Fatal(err)
	}
	drop := res.Tables[0].Series[1]
	// Drop fraction is non-decreasing in l.
	for i := 1; i < len(drop.Points); i++ {
		if drop.Points[i].Y < drop.Points[i-1].Y-1e-9 {
			t.Fatalf("drop fraction decreased with larger threshold: %+v", drop.Points)
		}
	}
	if drop.Points[0].Y != 0 {
		t.Fatalf("threshold 0 must drop nothing, got %v", drop.Points[0].Y)
	}
}

func TestAblationCodeSpaceSmoke(t *testing.T) {
	res, err := AblationCodeSpace(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables[0].Series[0].Points) != 8 {
		t.Fatal("expected 8 k values")
	}
}

func TestAblationLearnersSmoke(t *testing.T) {
	res, err := AblationLearners(tiny())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	if len(tab.Series) != 2 {
		t.Fatalf("expected 2 learner series, got %d", len(tab.Series))
	}
	for _, s := range tab.Series {
		if len(s.Points) != 4 {
			t.Fatalf("series %s has %d points, want 4", s.Name, len(s.Points))
		}
	}
}

func TestAblationPoliciesOrdering(t *testing.T) {
	res, err := AblationPolicies(tiny())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Tables[0].Series[0]
	// Learning policies (index 0-3) must beat random (index 4).
	random := s.Points[4].Y
	tabular := s.Points[0].Y
	if tabular <= random {
		t.Fatalf("tabular UCB %.5f should beat random %.5f", tabular, random)
	}
}

func TestResultRenderAndCSV(t *testing.T) {
	res, err := Figure3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "== Figure 3 ==") {
		t.Fatal("render header missing")
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "p,epsilon") {
		t.Fatalf("CSV header wrong: %q", csv[:40])
	}
}

func TestGeometricCheckpoints(t *testing.T) {
	cps := geometricCheckpoints(100, 10000, 5)
	if len(cps) != 5 {
		t.Fatalf("got %d checkpoints", len(cps))
	}
	if cps[0] != 100 || cps[len(cps)-1] != 10000 {
		t.Fatalf("endpoints wrong: %v", cps)
	}
	for i := 1; i < len(cps); i++ {
		if cps[i] <= cps[i-1] {
			t.Fatalf("not increasing: %v", cps)
		}
	}
	// Degenerate range collapses to the endpoint.
	if got := geometricCheckpoints(100, 50, 5); len(got) != 1 || got[0] != 50 {
		t.Fatalf("degenerate range: %v", got)
	}
}

// requirePositiveSeries checks a loopback experiment's single table: n
// one-point series, every value positive.
func requirePositiveSeries(t *testing.T, res *Result, n int) {
	t.Helper()
	tab := res.Tables[0]
	if len(tab.Series) != n {
		t.Fatalf("expected %d series, got %d", n, len(tab.Series))
	}
	for _, s := range tab.Series {
		if len(s.Points) != 1 || s.Points[0].Y <= 0 {
			t.Fatalf("series %s has no positive value: %+v", s.Name, s.Points)
		}
	}
}

func TestHTTPPipelineSmoke(t *testing.T) {
	// Throughput at smoke scale is too noisy to gate on (the floor applies
	// from Scale 1), but correctness is not: a divergence between the two
	// routes comes back as the error.
	res, err := HTTPPipeline(tiny())
	if err != nil {
		t.Fatal(err)
	}
	requirePositiveSeries(t, res, 3)
}

func TestModelPathSmoke(t *testing.T) {
	res, err := ModelPath(tiny())
	if err != nil {
		t.Fatal(err)
	}
	requirePositiveSeries(t, res, 4)
}

func TestCheckFloor(t *testing.T) {
	for _, tc := range []struct {
		name      string
		identical bool
		speedup   float64
		floor     float64
		scale     float64
		wantErr   string // substring naming the measured value; "" = nil error
	}{
		{"http-pipeline", true, 41.2, pipelineSpeedupFloor, 1, ""},
		{"http-pipeline", true, 10, pipelineSpeedupFloor, 1, ""},
		{"http-pipeline", true, 7.3, pipelineSpeedupFloor, 1, "http-pipeline: speedup 7.3x is under the 10x floor"},
		{"http-pipeline", true, 7.3, pipelineSpeedupFloor, 0.02, ""},
		{"http-pipeline", false, 41.2, pipelineSpeedupFloor, 0.02, "not bit-identical (speedup measured 41.2x)"},
		{"model_path", true, 5.5, modelPathSpeedupFloor, 2, ""},
		{"model_path", true, 2.4, modelPathSpeedupFloor, 2, "model_path: speedup 2.4x is under the 3x floor"},
		{"model_path", true, 2.4, modelPathSpeedupFloor, 0.5, ""},
		{"model_path", false, 5.5, modelPathSpeedupFloor, 1, "not bit-identical (speedup measured 5.5x)"},
	} {
		err := checkFloor(tc.name, tc.identical, tc.speedup, tc.floor, tc.scale)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", tc, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%+v: error %v, want one containing %q", tc, err, tc.wantErr)
		}
	}
}
