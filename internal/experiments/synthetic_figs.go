package experiments

import (
	"fmt"
	"math"

	"p2b/internal/core"
	"p2b/internal/rng"
	"p2b/internal/stats"
	"p2b/internal/synthetic"
)

// evalOffset keeps evaluation-cohort user ids disjoint from contributors.
const evalOffset = 10_000_000

// populationSweep grows the contributing population to each checkpoint and
// measures an evaluation cohort against the then-current global model. The
// same cohort ids are reused at every checkpoint (evaluation has no side
// effects), so consecutive points differ only through the global model —
// a paired design that keeps the curves smooth at bench scale.
func populationSweep(sys *core.System, checkpoints []int, evalUsers int) *stats.Series {
	s := &stats.Series{Name: sys.Config().Mode.String()}
	done := 0
	for _, u := range checkpoints {
		if u > done {
			sys.RunRange(done, u-done, true)
			done = u
			sys.Flush()
		}
		res := sys.RunRange(evalOffset, evalUsers, false)
		s.Append(float64(u), res.Overall.Mean(), res.Overall.CI95())
	}
	return s
}

// Figure4 reproduces the synthetic population sweeps: average reward of a
// fresh agent as the contributing population U grows, for A = 10, 20 and
// 50 arms (d=10, T=10, k=2^10, p=0.5). The paper sweeps U to 10^6;
// Scale=1 reaches 10^4 and Scale=100 the full 10^6.
func Figure4(opts Options) (*Result, error) {
	opts.fill()
	res := &Result{
		Name:        "Figure 4",
		Description: "Synthetic benchmark: average reward vs user population U, one panel per arm count (d=10, T=10, p=0.5, k=2^10).",
	}
	checkpoints := geometricCheckpoints(100, opts.scaled(10_000), 8)
	// Average over replicas: a single bandit run's top-arm ranking can flip
	// between checkpoints, and the paper's curves are ensemble behaviour.
	const replicas = 3
	armCounts := []int{10, 20, 50}
	var cells []func() (*stats.Series, error)
	for _, arms := range armCounts {
		env, err := synthetic.New(synthetic.Config{D: 10, Arms: arms, Beta: 0.1, Sigma: 0.1},
			rng.New(opts.Seed).SplitIndex("fig4-env", arms))
		if err != nil {
			return nil, err
		}
		for _, mode := range modes {
			for rep := 0; rep < replicas; rep++ {
				cells = append(cells, func() (*stats.Series, error) {
					sys, err := core.NewSystem(core.Config{
						Mode:           mode,
						T:              10,
						P:              0.5,
						Alpha:          1,
						K:              1 << 10,
						Threshold:      2,
						PrivateLearner: core.LearnerCentroid,
						Seed:           opts.Seed + uint64(arms*10+rep),
					}, env, nil)
					if err != nil {
						return nil, err
					}
					return populationSweep(sys, checkpoints, 300), nil
				})
			}
		}
	}
	sweeps, err := runCells(opts.Workers, cells)
	if err != nil {
		return nil, err
	}
	for _, arms := range armCounts {
		tab := &stats.Table{XLabel: fmt.Sprintf("users (A=%d)", arms)}
		for _, mode := range modes {
			tab.Series = append(tab.Series, averageSeries(mode.String(), sweeps[:replicas]))
			sweeps = sweeps[replicas:]
		}
		res.Tables = append(res.Tables, tab)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"A=%d: expected ordering warm-nonprivate >= warm-private > cold at the largest U", arms))
	}
	return res, nil
}

// Figure5 reproduces the context-dimension sweep: final average reward of a
// fresh agent after U contributors, for d = 6..20 (A=20, T=20, p=0.5).
// The paper uses U=20000; Scale=1 runs U=2000, Scale=10 the full size.
func Figure5(opts Options) (*Result, error) {
	opts.fill()
	users := opts.scaled(2000)
	const replicas = 3
	dims := []int{6, 8, 10, 12, 14, 16, 18, 20}
	var cells []cell
	for _, d := range dims {
		env, err := synthetic.New(synthetic.Config{D: d, Arms: 20, Beta: 0.1, Sigma: 0.1},
			rng.New(opts.Seed).SplitIndex("fig5-env", d))
		if err != nil {
			return nil, err
		}
		for _, mode := range modes {
			for rep := 0; rep < replicas; rep++ {
				cells = append(cells, cell{cfg: core.Config{
					Mode:           mode,
					T:              20,
					P:              0.5,
					Alpha:          1,
					K:              1 << 10,
					Threshold:      2,
					PrivateLearner: core.LearnerCentroid,
					Seed:           opts.Seed + uint64(d*10+rep),
				}, env: env, train: idRange(0, users), eval: idRange(evalOffset, 300)})
			}
		}
	}
	runs, err := trainEval(opts.Workers, cells)
	if err != nil {
		return nil, err
	}
	tab := &stats.Table{XLabel: "context dimension d"}
	for _, mode := range modes {
		tab.Series = append(tab.Series, &stats.Series{Name: mode.String()})
	}
	for _, d := range dims {
		for _, s := range tab.Series {
			var agg stats.Running
			for _, r := range runs[:replicas] {
				agg.Add(r.eval.Overall.Mean())
			}
			runs = runs[replicas:]
			s.Append(float64(d), agg.Mean(), agg.CI95())
		}
	}
	return &Result{
		Name:        "Figure 5",
		Description: fmt.Sprintf("Synthetic benchmark: average reward vs context dimension (U=%d, A=20, T=20).", users),
		Tables:      []*stats.Table{tab},
		Notes: []string{
			"expected shape: reward decreases with d as agents spend longer exploring",
			"warm-private stays competitive with warm-nonprivate, especially at low d",
		},
	}, nil
}

// geometricCheckpoints returns up to maxPoints populations growing
// geometrically from start to end (inclusive).
func geometricCheckpoints(start, end, maxPoints int) []int {
	if end <= start {
		return []int{end}
	}
	ratio := float64(end) / float64(start)
	steps := maxPoints - 1
	var out []int
	prev := 0
	for i := 0; i <= steps; i++ {
		v := int(float64(start) * math.Pow(ratio, float64(i)/float64(steps)))
		if v <= prev {
			v = prev + 1
		}
		out = append(out, v)
		prev = v
	}
	out[len(out)-1] = end
	return out
}
