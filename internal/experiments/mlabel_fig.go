package experiments

import (
	"fmt"

	"p2b/internal/core"
	"p2b/internal/mlabel"
	"p2b/internal/rng"
	"p2b/internal/stats"
)

// Figure6 reproduces the multi-label classification accuracy curves: for
// MediaMill-shaped (d=20, A=40) and TextMining-shaped (d=20, A=20) data,
// each agent holds up to 100 samples, 70% of agents contribute and accuracy
// is the mean reward of the remaining 30% as a function of how many local
// interactions every agent has. Scale=1 uses 6000/4000 instances; Scale=7
// reaches the papers' dataset sizes (43,907 / 28,596).
func Figure6(opts Options) (*Result, error) {
	opts.fill()
	res := &Result{
		Name:        "Figure 6",
		Description: "Multi-label accuracy vs local interactions (70% of agents contribute, accuracy on the held-out 30%, k=2^5).",
	}
	type dataset struct {
		name string
		cfg  mlabel.Config
	}
	sets := []dataset{
		{"mediamill-like", mlabel.MediaMillLike(opts.scaled(12000))},
		{"textmining-like", mlabel.TextMiningLike(opts.scaled(8000))},
	}
	grid := []int{5, 10, 25, 50, 100}
	var cells []cell
	for si, set := range sets {
		ds, err := mlabel.Generate(set.cfg, rng.New(opts.Seed).SplitIndex("fig6-data", si))
		if err != nil {
			return nil, err
		}
		// Up to 100 samples per agent; at tiny scales keep at least 10
		// agents so the 70/30 split stays meaningful.
		perAgent := 100
		agents := ds.N() / perAgent
		if agents < 10 {
			agents = 10
			perAgent = ds.N() / agents
		}
		parts, err := ds.Partition(agents, perAgent, rng.New(opts.Seed).SplitIndex("fig6-part", si))
		if err != nil {
			return nil, err
		}
		env, err := mlabel.NewEnv(ds, parts)
		if err != nil {
			return nil, err
		}
		trainN := agents * 70 / 100
		trainIDs := idRange(0, trainN)
		testIDs := idRange(trainN, agents-trainN)
		for _, n := range grid {
			for _, mode := range modes {
				cells = append(cells, cell{cfg: core.Config{
					Mode:         mode,
					T:            n,
					P:            0.5,
					Alpha:        1,
					K:            1 << 5,
					Threshold:    2,
					ReportWindow: 10,
					Seed:         opts.Seed + uint64(si*1000+n),
				}, env: env, train: trainIDs, eval: testIDs})
			}
		}
	}
	runs, err := trainEval(opts.Workers, cells)
	if err != nil {
		return nil, err
	}
	for _, set := range sets {
		tab, np, pv := gridTable(fmt.Sprintf("local interactions (%s)", set.name), grid, runs[:len(grid)*len(modes)])
		runs = runs[len(grid)*len(modes):]
		res.Tables = append(res.Tables, tab)
		// Headline gap at the largest interaction count.
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: non-private minus private accuracy at n=%d is %+.4f (paper: ~0.026 MediaMill / ~0.036 TextMining)",
			set.name, grid[len(grid)-1], np-pv))
	}
	return res, nil
}

// gridTable lays out one panel of Figures 6 and 7: runs holds one cell per
// (n, mode) in grid-major order, and each mode becomes a series over n. It
// also returns the non-private and private means at the largest n, which
// the figures' headline gaps compare.
func gridTable(xLabel string, grid []int, runs []cellResult) (tab *stats.Table, nonPrivate, private float64) {
	tab = &stats.Table{XLabel: xLabel}
	for _, mode := range modes {
		tab.Series = append(tab.Series, &stats.Series{Name: mode.String()})
	}
	for _, n := range grid {
		for _, s := range tab.Series {
			s.Append(float64(n), runs[0].eval.Overall.Mean(), runs[0].eval.Overall.CI95())
			runs = runs[1:]
		}
	}
	// Series follow modes: cold, warm-nonprivate, warm-private.
	last := float64(grid[len(grid)-1])
	nonPrivate, _ = tab.Series[1].YAt(last)
	private, _ = tab.Series[2].YAt(last)
	return tab, nonPrivate, private
}

func idRange(start, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = start + i
	}
	return ids
}
