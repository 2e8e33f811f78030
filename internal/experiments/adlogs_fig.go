package experiments

import (
	"fmt"

	"p2b/internal/adlogs"
	"p2b/internal/core"
	"p2b/internal/rng"
)

// Figure7 reproduces the online-advertising CTR curves on the Criteo-shaped
// log: d=10 numeric context, A=40 hashed product categories, shuffler
// threshold 10, one panel per encoder size k = 2^5 and 2^7. CTR is the mean
// reward (1 only when the proposal matches a clicked logged action) of
// held-out agents as a function of their local interaction count. The paper
// runs 3000 agents with 300 interactions each; Scale=1 runs 300 agents and
// Scale=10 the full population.
func Figure7(opts Options) (*Result, error) {
	opts.fill()
	agents := opts.scaled(600)
	perAgent := 300
	log, err := adlogs.Generate(adlogs.CriteoLike(agents*perAgent*11/10), // headroom for top-K discards
		rng.New(opts.Seed).Split("fig7-log"))
	if err != nil {
		return nil, err
	}
	env, err := adlogs.NewEnv(log, perAgent)
	if err != nil {
		return nil, err
	}
	if env.Agents() < agents {
		agents = env.Agents()
	}
	trainN := agents * 70 / 100
	trainIDs := idRange(0, trainN)
	testIDs := idRange(trainN, agents-trainN)
	grid := []int{10, 25, 50, 100, 200, 300}

	res := &Result{
		Name: "Figure 7",
		Description: fmt.Sprintf(
			"Online advertising: CTR vs local interactions on a Criteo-shaped log (d=10, A=40, %d agents, threshold 10).", agents),
	}
	kbitsList := []int{5, 7}
	var cells []cell
	for _, kbits := range kbitsList {
		for _, n := range grid {
			for _, mode := range modes {
				cells = append(cells, cell{cfg: core.Config{
					Mode:         mode,
					T:            n,
					P:            0.5,
					Alpha:        1,
					K:            1 << kbits,
					Threshold:    10,
					ReportWindow: 10,
					Seed:         opts.Seed + uint64(kbits*10000+n),
				}, env: env, train: trainIDs, eval: testIDs})
			}
		}
	}
	runs, err := trainEval(opts.Workers, cells)
	if err != nil {
		return nil, err
	}
	for _, kbits := range kbitsList {
		tab, np, pv := gridTable(fmt.Sprintf("local interactions (k=2^%d)", kbits), grid, runs[:len(grid)*len(modes)])
		runs = runs[len(grid)*len(modes):]
		res.Tables = append(res.Tables, tab)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"k=2^%d: private minus non-private CTR at n=%d is %+.4f (paper: about +0.0025 in favour of private)",
			kbits, grid[len(grid)-1], pv-np))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("logging-policy CTR of the generated stream: %.4f", log.CTR()))
	return res, nil
}

// Headline aggregates the numbers quoted in the paper's abstract and
// conclusion: epsilon at p=0.5, the multi-label accuracy gaps, and the
// advertising CTR difference. It reuses Figure6 and Figure7 at the given
// scale.
func Headline(opts Options) (*Result, error) {
	opts.fill()
	fig6, err := Figure6(opts)
	if err != nil {
		return nil, err
	}
	fig7, err := Figure7(opts)
	if err != nil {
		return nil, err
	}
	fig3, err := Figure3(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:        "Headline numbers",
		Description: "The abstract's quantitative claims, recomputed on this build.",
	}
	res.Notes = append(res.Notes, fig3.Notes...)
	res.Notes = append(res.Notes, fig6.Notes...)
	res.Notes = append(res.Notes, fig7.Notes...)
	return res, nil
}
