package experiments

import (
	"fmt"

	"p2b/internal/bandit"
	"p2b/internal/core"
	"p2b/internal/encoding"
	"p2b/internal/privacy"
	"p2b/internal/rng"
	"p2b/internal/stats"
	"p2b/internal/synthetic"
)

// ablationEnv builds the shared synthetic workload the ablations run on.
func ablationEnv(opts Options) (*synthetic.Preference, error) {
	return synthetic.New(synthetic.Config{D: 6, Arms: 10, Beta: 0.1, Sigma: 0.1},
		rng.New(opts.Seed).Split("ablation-env"))
}

// ablationRuns runs n warm-private cells over env in parallel, the i-th
// adjusted by set, and returns their results in order.
func ablationRuns(opts Options, env core.Environment, n int, set func(i int, c *cell)) ([]cellResult, error) {
	cells := make([]cell, n)
	for i := range cells {
		cells[i] = cell{
			cfg: core.Config{
				Mode:      core.WarmPrivate,
				T:         10,
				P:         0.5,
				Alpha:     1,
				K:         64,
				Threshold: 2,
				BatchSize: 256,
				Seed:      opts.Seed,
			},
			env:   env,
			train: idRange(0, opts.scaled(4000)),
			eval:  idRange(evalOffset, 300),
		}
		set(i, &cells[i])
	}
	return trainEval(opts.Workers, cells)
}

// AblationEncoders compares the encoder families at (approximately) equal
// code-space sizes on the downstream task: the utility of the warm-private
// pipeline using a grid quantizer, Lloyd k-means, mini-batch k-means and
// random-hyperplane LSH.
func AblationEncoders(opts Options) (*Result, error) {
	opts.fill()
	env, err := ablationEnv(opts)
	if err != nil {
		return nil, err
	}
	sample := env.SampleContexts(4096, rng.New(opts.Seed).Split("ab-enc-sample"))

	km, err := encoding.FitKMeans(sample, 64, 50, 1e-6, rng.New(opts.Seed).Split("ab-enc-km"))
	if err != nil {
		return nil, err
	}
	mb, err := encoding.FitMiniBatchKMeans(sample, 64, 64, 300, rng.New(opts.Seed).Split("ab-enc-mb"))
	if err != nil {
		return nil, err
	}
	lsh, err := encoding.NewLSH(6, 6, rng.New(opts.Seed).Split("ab-enc-lsh"))
	if err != nil {
		return nil, err
	}
	grid, err := encoding.NewGridQuantizer(6, 1) // k = C(15,5) = 3003
	if err != nil {
		return nil, err
	}
	encoders := []struct {
		name string
		enc  encoding.Encoder
	}{
		{"kmeans(k=64)", km},
		{"minibatch-kmeans(k=64)", mb},
		{"lsh(k=64)", lsh},
		{fmt.Sprintf("grid(q=1,k=%d)", grid.K()), grid},
	}
	tab := &stats.Table{XLabel: "encoder#"}
	s := &stats.Series{Name: "eval reward"}
	res := &Result{
		Name:        "Ablation: encoder family",
		Description: "Warm-private pipeline utility per encoder (synthetic d=6, A=10, p=0.5).",
	}
	runs, err := ablationRuns(opts, env, len(encoders), func(i int, c *cell) { c.enc = encoders[i].enc })
	if err != nil {
		return nil, err
	}
	for i, e := range encoders {
		mean, ci := runs[i].eval.Overall.Mean(), runs[i].eval.Overall.CI95()
		s.Append(float64(i), mean, ci)
		res.Notes = append(res.Notes, fmt.Sprintf("encoder %d = %s: reward %.5f +- %.5f", i, e.name, mean, ci))
	}
	tab.Series = []*stats.Series{s}
	res.Tables = []*stats.Table{tab}
	return res, nil
}

// AblationParticipation sweeps the participation probability p, showing the
// privacy/utility trade-off: epsilon grows with p while utility saturates.
func AblationParticipation(opts Options) (*Result, error) {
	opts.fill()
	env, err := ablationEnv(opts)
	if err != nil {
		return nil, err
	}
	ps := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	runs, err := ablationRuns(opts, env, len(ps), func(i int, c *cell) { c.cfg.P = ps[i] })
	if err != nil {
		return nil, err
	}
	reward := &stats.Series{Name: "eval reward"}
	eps := &stats.Series{Name: "epsilon"}
	for i, p := range ps {
		reward.Append(p, runs[i].eval.Overall.Mean(), runs[i].eval.Overall.CI95())
		eps.Append(p, privacy.Epsilon(p), 0)
	}
	return &Result{
		Name:        "Ablation: participation probability",
		Description: "Utility and epsilon as p varies (synthetic d=6, A=10).",
		Tables:      []*stats.Table{{XLabel: "p", Series: []*stats.Series{reward, eps}}},
	}, nil
}

// AblationThreshold sweeps the shuffler's crowd-blending threshold l,
// reporting the fraction of tuples consumed by thresholding and the
// resulting utility.
func AblationThreshold(opts Options) (*Result, error) {
	opts.fill()
	env, err := ablationEnv(opts)
	if err != nil {
		return nil, err
	}
	ls := []int{0, 2, 5, 10, 20, 50}
	runs, err := ablationRuns(opts, env, len(ls), func(i int, c *cell) { c.cfg.Threshold = ls[i] })
	if err != nil {
		return nil, err
	}
	reward := &stats.Series{Name: "eval reward"}
	dropped := &stats.Series{Name: "drop fraction"}
	for i, l := range ls {
		st := runs[i].shuffler
		frac := 0.0
		if st.Received > 0 {
			frac = float64(st.Dropped) / float64(st.Received)
		}
		reward.Append(float64(l), runs[i].eval.Overall.Mean(), runs[i].eval.Overall.CI95())
		dropped.Append(float64(l), frac, 0)
	}
	return &Result{
		Name:        "Ablation: shuffler threshold",
		Description: "Utility and thresholding losses as the crowd-blending l grows (synthetic d=6, A=10, batch 256).",
		Tables:      []*stats.Table{{XLabel: "threshold l", Series: []*stats.Series{reward, dropped}}},
	}, nil
}

// AblationCodeSpace sweeps the encoder size k: small k merges unrelated
// contexts, large k fragments the population and slows warm-up — the
// utility/privacy balance the paper discusses in §3.2.
func AblationCodeSpace(opts Options) (*Result, error) {
	opts.fill()
	env, err := ablationEnv(opts)
	if err != nil {
		return nil, err
	}
	ks := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	runs, err := ablationRuns(opts, env, len(ks), func(i int, c *cell) { c.cfg.K = ks[i] })
	if err != nil {
		return nil, err
	}
	reward := &stats.Series{Name: "eval reward"}
	for i, k := range ks {
		reward.Append(float64(k), runs[i].eval.Overall.Mean(), runs[i].eval.Overall.CI95())
	}
	return &Result{
		Name:        "Ablation: code-space size",
		Description: "Warm-private utility as the k-means code space grows (synthetic d=6, A=10).",
		Tables:      []*stats.Table{{XLabel: "k", Series: []*stats.Series{reward}}},
	}, nil
}

// AblationLearners compares the two warm-private hypothesis classes — the
// per-(code, action) tabular learner and the centroid LinUCB — across code
// space sizes on the synthetic workload. It quantifies the trade DESIGN.md
// describes: tabular representation power vs centroid sample efficiency.
func AblationLearners(opts Options) (*Result, error) {
	opts.fill()
	env, err := ablationEnv(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:        "Ablation: private learner",
		Description: "Warm-private utility per hypothesis class and code-space size (synthetic d=6, A=10, p=0.5).",
	}
	learners := []core.Learner{core.LearnerTabular, core.LearnerCentroid}
	ks := []int{16, 64, 256, 1024}
	runs, err := ablationRuns(opts, env, len(learners)*len(ks), func(i int, c *cell) {
		c.cfg.PrivateLearner, c.cfg.K = learners[i/len(ks)], ks[i%len(ks)]
	})
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{XLabel: "k"}
	for _, learner := range learners {
		s := &stats.Series{Name: learner.String()}
		for _, k := range ks {
			s.Append(float64(k), runs[0].eval.Overall.Mean(), runs[0].eval.Overall.CI95())
			runs = runs[1:]
		}
		tab.Series = append(tab.Series, s)
	}
	res.Tables = []*stats.Table{tab}
	res.Notes = append(res.Notes,
		"expected: centroid dominates at large k (pooled linear model); tabular catches up as k shrinks")
	return res, nil
}

// AblationPolicies compares local learners over encoded contexts without
// any data sharing: which bandit algorithm makes the best on-device
// consumer of the encoder's codes (the paper's future-work question). All
// policies see identical context/reward streams.
func AblationPolicies(opts Options) (*Result, error) {
	opts.fill()
	env, err := ablationEnv(opts)
	if err != nil {
		return nil, err
	}
	root := rng.New(opts.Seed)
	enc, err := encoding.FitKMeans(
		env.SampleContexts(4096, root.Split("ab-pol-sample")),
		64, 50, 1e-6, root.Split("ab-pol-fit"))
	if err != nil {
		return nil, err
	}
	factories := []struct {
		name string
		mk   func(r *rng.Rand) bandit.CodePolicy
	}{
		{"tabular-ucb", func(r *rng.Rand) bandit.CodePolicy { return bandit.NewTabularUCB(enc.K(), env.Arms(), 1, r) }},
		{"eps-greedy(0.1)", func(r *rng.Rand) bandit.CodePolicy { return bandit.NewEpsilonGreedy(enc.K(), env.Arms(), 0.1, r) }},
		{"thompson", func(r *rng.Rand) bandit.CodePolicy { return bandit.NewThompson(enc.K(), env.Arms(), r) }},
		{"ucb1(context-free)", func(r *rng.Rand) bandit.CodePolicy { return bandit.NewUCB1(env.Arms(), r) }},
		{"random", func(r *rng.Rand) bandit.CodePolicy { return bandit.NewRandom(env.Arms(), r) }},
	}
	const T = 60
	users := opts.scaled(500)
	tab := &stats.Table{XLabel: "policy#"}
	s := &stats.Series{Name: "mean reward"}
	res := &Result{
		Name:        "Ablation: local policy",
		Description: fmt.Sprintf("Standalone local learners on encoded contexts (k=64, T=%d, %d users).", T, users),
	}
	for pi, f := range factories {
		var agg stats.Running
		for u := 0; u < users; u++ {
			ur := root.SplitIndex(fmt.Sprintf("ab-pol-user-%d", pi), u)
			session := env.User(u, ur.Split("session"))
			policy := f.mk(ur.Split("policy"))
			for t := 0; t < T; t++ {
				x := session.Context(t)
				y := enc.Encode(x)
				if policy.Codes() == 1 {
					y = 0
				}
				a := policy.SelectCode(y)
				rw := session.Reward(t, a)
				policy.UpdateCode(y, a, rw)
				agg.Add(rw)
			}
		}
		s.Append(float64(pi), agg.Mean(), agg.CI95())
		res.Notes = append(res.Notes, fmt.Sprintf("policy %d = %s: reward %.5f", pi, f.name, agg.Mean()))
	}
	tab.Series = []*stats.Series{s}
	res.Tables = []*stats.Table{tab}
	return res, nil
}
