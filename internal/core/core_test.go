package core_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"p2b/internal/core"
	"p2b/internal/encoding"
	"p2b/internal/rng"
	"p2b/internal/synthetic"
)

func newEnv(t *testing.T, d, arms int) core.Environment {
	t.Helper()
	env, err := synthetic.New(synthetic.Config{D: d, Arms: arms, Beta: 0.1, Sigma: 0.1}, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func newSystem(t *testing.T, mode core.Mode, env core.Environment, over func(*core.Config)) *core.System {
	t.Helper()
	cfg := core.Config{
		Mode:      mode,
		T:         10,
		P:         0.5,
		Alpha:     1,
		K:         16,
		Threshold: 2,
		BatchSize: 64,
		Seed:      1,
	}
	if over != nil {
		over(&cfg)
	}
	s, err := core.NewSystem(cfg, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	env := newEnv(t, 4, 3)
	bad := []core.Config{
		{Mode: core.WarmPrivate, T: -1},
		{Mode: core.WarmPrivate, P: -0.1},
		{Mode: core.WarmPrivate, P: 1.0},
		{Mode: core.WarmPrivate, Alpha: -1},
		{Mode: core.WarmPrivate, Threshold: -1},
		{Mode: core.Mode(99)},
		{Mode: core.WarmPrivate, ReportWindow: -1},
		{Mode: core.WarmPrivate, PrivateLearner: core.Learner(7)},
	}
	for i, cfg := range bad {
		if _, err := core.NewSystem(cfg, env, nil); err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestDefaultsFilled(t *testing.T) {
	env := newEnv(t, 4, 3)
	s, err := core.NewSystem(core.Config{Mode: core.WarmPrivate, Threshold: 5}, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.T != 10 || cfg.Alpha != 1 || cfg.K != 32 || cfg.EncoderSample != 4096 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.BatchSize != 4*5*32 {
		t.Fatalf("batch size default %d, want 4*threshold*K", cfg.BatchSize)
	}
}

func TestModeString(t *testing.T) {
	if core.Cold.String() != "cold" || core.WarmNonPrivate.String() != "warm-nonprivate" ||
		core.WarmPrivate.String() != "warm-private" {
		t.Fatal("mode names wrong")
	}
	if core.Mode(9).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}

func TestEpsilonByMode(t *testing.T) {
	env := newEnv(t, 4, 3)
	if got := newSystem(t, core.Cold, env, nil).Epsilon(); got != 0 {
		t.Fatalf("cold epsilon %v", got)
	}
	if got := newSystem(t, core.WarmPrivate, env, nil).Epsilon(); math.Abs(got-math.Ln2) > 1e-12 {
		t.Fatalf("private epsilon %v, want ln 2", got)
	}
	if got := newSystem(t, core.WarmNonPrivate, env, nil).Epsilon(); !math.IsInf(got, 1) {
		t.Fatalf("non-private epsilon %v, want +Inf", got)
	}
}

func TestEncoderFittedWhenNil(t *testing.T) {
	env := newEnv(t, 4, 3)
	s := newSystem(t, core.WarmPrivate, env, nil)
	if s.Encoder() == nil || s.Encoder().K() != 16 {
		t.Fatal("encoder not fitted with configured K")
	}
	// The other modes never encode, so they fit nothing; K still sizes the
	// server and the default batch.
	for _, mode := range []core.Mode{core.Cold, core.WarmNonPrivate} {
		s := newSystem(t, mode, env, func(c *core.Config) { c.BatchSize = 0; c.Threshold = 5 })
		if s.Encoder() != nil {
			t.Fatalf("%s fitted an encoder it never reads", mode)
		}
		if s.Server().Config().K != 16 || s.Config().BatchSize != 4*5*16 {
			t.Fatalf("%s: server K %d, batch %d; want 16 and 4*5*16", mode, s.Server().Config().K, s.Config().BatchSize)
		}
	}
}

func TestExplicitEncoderUsed(t *testing.T) {
	env := newEnv(t, 4, 3)
	enc, err := encoding.NewLSH(4, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: core.WarmPrivate, T: 5, P: 0.5, Threshold: 0, Seed: 1}
	s, err := core.NewSystem(cfg, env, enc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Encoder().K() != 8 {
		t.Fatalf("explicit encoder ignored: K=%d", s.Encoder().K())
	}
	if s.Server().Config().K != 8 {
		t.Fatal("server sized from wrong encoder")
	}
}

func TestColdRunsProduceRewards(t *testing.T) {
	env := newEnv(t, 4, 3)
	s := newSystem(t, core.Cold, env, nil)
	res := s.RunRange(0, 50, true)
	if res.Overall.Count() != 500 {
		t.Fatalf("rewards %d, want 500", res.Overall.Count())
	}
	if len(res.ByStep) != 10 || res.ByStep[0].Count() != 50 {
		t.Fatalf("ByStep malformed: %d steps, %d at t=0", len(res.ByStep), res.ByStep[0].Count())
	}
	// core.Cold mode never touches the pipeline.
	if s.Submitted() != 0 {
		t.Fatal("cold agents submitted tuples")
	}
	if st := s.Server().Stats(); st.TuplesIngested != 0 || st.RawIngested != 0 {
		t.Fatal("cold mode fed the server")
	}
}

func TestWarmNonPrivateFeedsServerRaw(t *testing.T) {
	env := newEnv(t, 4, 3)
	s := newSystem(t, core.WarmNonPrivate, env, nil)
	const users = 2000
	s.RunRange(0, users, true)
	// The baseline follows the same randomized reporting protocol as the
	// private pipeline: one Bernoulli(P) opportunity per session here, so
	// about P*users raw tuples.
	got := s.Server().Stats().RawIngested
	if got < users*4/10 || got > users*6/10 {
		t.Fatalf("raw ingested %d, want about %d", got, users/2)
	}
	if s.Submitted() != 0 {
		t.Fatal("non-private mode used the shuffler")
	}
}

func TestReportWindowMultipliesDisclosures(t *testing.T) {
	env := newEnv(t, 4, 3)
	s := newSystem(t, core.WarmPrivate, env, func(c *core.Config) {
		c.T = 40
		c.ReportWindow = 10 // 4 windows -> about 4*P tuples per user
	})
	const users = 1000
	s.RunRange(0, users, true)
	rate := float64(s.Submitted()) / users
	if rate < 1.6 || rate > 2.4 {
		t.Fatalf("windowed submission rate %v, want about 2 tuples/user", rate)
	}
	// Composition: the worst user's budget is its disclosure count times
	// the per-disclosure epsilon.
	_, worst := s.Accountant().WorstCase()
	if worst < 2*math.Ln2 {
		t.Fatalf("worst budget %v should reflect multiple disclosures", worst)
	}
	if worst > 4*math.Ln2+1e-9 {
		t.Fatalf("worst budget %v exceeds 4 disclosures", worst)
	}
}

func TestCentroidLearnerRequiresDecoder(t *testing.T) {
	env := newEnv(t, 4, 3)
	lsh, err := encoding.NewLSH(4, 3, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.NewSystem(core.Config{
		Mode: core.WarmPrivate, T: 5, P: 0.5, PrivateLearner: core.LearnerCentroid, Seed: 1,
	}, env, lsh)
	if err == nil {
		t.Fatal("centroid learner accepted an encoder without Decode")
	}
	// With the default k-means encoder (which decodes), it works.
	s := newSystem(t, core.WarmPrivate, env, func(c *core.Config) {
		c.PrivateLearner = core.LearnerCentroid
	})
	res := s.RunRange(0, 50, true)
	if res.Overall.Count() != 500 {
		t.Fatalf("centroid learner ran %d interactions", res.Overall.Count())
	}
}

func TestCentroidLearnerFeedsCentroidModel(t *testing.T) {
	env := newEnv(t, 4, 3)
	s := newSystem(t, core.WarmPrivate, env, func(c *core.Config) {
		c.PrivateLearner = core.LearnerCentroid
		c.Threshold = 0
	})
	s.RunRange(0, 500, true)
	s.Flush()
	snap := s.Server().CentroidSnapshot()
	if snap == nil {
		t.Fatal("no centroid snapshot despite decoder")
	}
	total := int64(0)
	for _, n := range snap.N {
		total += n
	}
	if total == 0 {
		t.Fatal("centroid model saw no updates")
	}
}

func TestWarmPrivateParticipationRate(t *testing.T) {
	env := newEnv(t, 4, 3)
	s := newSystem(t, core.WarmPrivate, env, func(c *core.Config) { c.P = 0.5 })
	const users = 2000
	s.RunRange(0, users, true)
	rate := float64(s.Submitted()) / users
	if math.Abs(rate-0.5) > 0.05 {
		t.Fatalf("participation rate %v, want about 0.5", rate)
	}
	// At most one tuple per user (paper's analysis assumption).
	if s.Submitted() > users {
		t.Fatal("a user submitted more than one tuple")
	}
	if s.Accountant().Users() != int(s.Submitted()) {
		t.Fatalf("accountant saw %d users, submitted %d", s.Accountant().Users(), s.Submitted())
	}
	_, worst := s.Accountant().WorstCase()
	if math.Abs(worst-math.Ln2) > 1e-9 {
		t.Fatalf("worst-case budget %v, want one disclosure at ln 2", worst)
	}
}

func TestEvaluationCohortDoesNotContaminate(t *testing.T) {
	env := newEnv(t, 4, 3)
	s := newSystem(t, core.WarmPrivate, env, nil)
	s.RunRange(0, 500, false) // participate = false
	if s.Submitted() != 0 {
		t.Fatal("evaluation users submitted data")
	}
	if st := s.Server().Stats(); st.TuplesIngested != 0 {
		t.Fatal("evaluation users reached the server")
	}
}

func TestWarmPrivatePipelineReachesServer(t *testing.T) {
	env := newEnv(t, 4, 3)
	s := newSystem(t, core.WarmPrivate, env, func(c *core.Config) {
		c.Threshold = 2
		c.BatchSize = 32
	})
	s.RunRange(0, 2000, true)
	s.Flush()
	st := s.Server().Stats()
	if st.TuplesIngested == 0 {
		t.Fatal("no tuples survived the pipeline")
	}
	shufStats := s.Shuffler().Stats()
	if shufStats.Forwarded+shufStats.Dropped != shufStats.Received {
		t.Fatalf("shuffler conservation violated: %+v", shufStats)
	}
	if int64(st.TuplesIngested) != shufStats.Forwarded {
		t.Fatalf("server saw %d, shuffler forwarded %d", st.TuplesIngested, shufStats.Forwarded)
	}
}

// TestWarmBeatsColdOnSynthetic is the paper's headline qualitative result
// at miniature scale: after enough users contribute, warm-started agents
// (private and non-private) collect more reward than cold-start agents.
func TestWarmBeatsColdOnSynthetic(t *testing.T) {
	env := newEnv(t, 6, 5)
	run := func(mode core.Mode) float64 {
		s := newSystem(t, mode, env, func(c *core.Config) {
			c.T = 10
			c.K = 32
			c.Threshold = 2
			c.BatchSize = 64
		})
		// Contribution phase.
		s.RunRange(0, 4000, true)
		s.Flush()
		// Fresh evaluation cohort.
		res := s.RunRange(1_000_000, 400, false)
		return res.Overall.Mean()
	}
	cold := run(core.Cold)
	private := run(core.WarmPrivate)
	nonPrivate := run(core.WarmNonPrivate)
	t.Logf("cold=%.5f private=%.5f nonprivate=%.5f", cold, private, nonPrivate)
	if private <= cold {
		t.Fatalf("warm private %.5f should beat cold %.5f", private, cold)
	}
	if nonPrivate <= cold {
		t.Fatalf("warm non-private %.5f should beat cold %.5f", nonPrivate, cold)
	}
}

func TestRunUsersDeterministicSingleWorker(t *testing.T) {
	env := newEnv(t, 4, 3)
	run := func() [2]core.RunResult {
		s := newSystem(t, core.WarmPrivate, env, nil)
		train := s.RunRange(0, 200, true)
		s.Flush()
		return [2]core.RunResult{train, s.RunRange(1_000_000, 50, false)}
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("runs are not reproducible: %+v vs %+v", a, b)
	}
}

// TestWorkersProduceSameUserCount pins the property parallel experiments
// rely on: Systems built from the same config and run concurrently on
// separate goroutines over one shared environment each give bitwise the
// RunResult of a solo run, in every mode.
func TestWorkersProduceSameUserCount(t *testing.T) {
	env := newEnv(t, 4, 3)
	for _, mode := range []core.Mode{core.Cold, core.WarmNonPrivate, core.WarmPrivate} {
		run := func(s *core.System) core.RunResult {
			s.RunRange(0, 300, true)
			s.Flush()
			return s.RunRange(1_000_000, 100, false)
		}
		solo := run(newSystem(t, mode, env, nil))
		got := make([]core.RunResult, 3)
		var wg sync.WaitGroup
		for i := range got {
			s := newSystem(t, mode, env, nil)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = run(s)
			}(i)
		}
		wg.Wait()
		for i, res := range got {
			if !reflect.DeepEqual(res, solo) {
				t.Fatalf("%s: concurrent run %d differs from the solo run: %+v vs %+v", mode, i, res.Overall, solo.Overall)
			}
		}
		if solo.Overall.Count() != 100*10 {
			t.Fatalf("%s: %d rewards, want 1000", mode, solo.Overall.Count())
		}
	}
}

func TestPrefixMean(t *testing.T) {
	env := newEnv(t, 4, 3)
	s := newSystem(t, core.Cold, env, nil)
	res := s.RunRange(0, 100, true)
	full := res.PrefixMean(10)
	if math.Abs(full-res.Overall.Mean()) > 1e-9 {
		t.Fatalf("PrefixMean(T) %v != overall %v", full, res.Overall.Mean())
	}
	// Prefix over more steps than simulated clamps.
	if res.PrefixMean(99) != full {
		t.Fatal("PrefixMean did not clamp")
	}
	one := res.PrefixMean(1)
	if one != res.ByStep[0].Mean() {
		t.Fatal("PrefixMean(1) wrong")
	}
}

func TestUsersRunCounter(t *testing.T) {
	env := newEnv(t, 4, 3)
	s := newSystem(t, core.Cold, env, nil)
	s.RunRange(0, 25, true)
	if s.UsersRun() != 25 {
		t.Fatalf("UsersRun %d", s.UsersRun())
	}
}

// TestCrowdBlendingHoldsEndToEnd drives the full private pipeline and then
// verifies the server never saw a batch violating the threshold — the
// system-level privacy invariant.
func TestCrowdBlendingHoldsEndToEnd(t *testing.T) {
	env := newEnv(t, 4, 3)
	// Custom sink wrapping is not possible through core.System, so verify via
	// shuffler stats plus a direct sub-threshold probe at the unit level;
	// here we assert the aggregate invariant: with threshold l and B
	// batches, every ingested tuple shared its batch with >= l-1 same-code
	// tuples, so TuplesIngested must be a sum of per-code counts >= l.
	s := newSystem(t, core.WarmPrivate, env, func(c *core.Config) {
		c.Threshold = 4
		c.BatchSize = 64
	})
	s.RunRange(0, 3000, true)
	s.Flush()
	st := s.Shuffler().Stats()
	if st.Forwarded == 0 {
		t.Skip("nothing survived thresholding at this scale")
	}
	// Necessary condition: forwarded count cannot be positive and smaller
	// than the threshold.
	if st.Forwarded > 0 && st.Forwarded < 4 {
		t.Fatalf("fewer than l tuples forwarded: %+v", st)
	}
}
