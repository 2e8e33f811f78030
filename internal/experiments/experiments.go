// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the ablations called out in DESIGN.md. Each Figure*
// function is self-contained: it builds the workload, runs the three
// regimes (cold / warm-non-private / warm-private) and returns the same
// series the paper plots, as text tables.
//
// Scale semantics: the paper's full populations (up to 10^6 users) are
// reachable but slow; Options.Scale multiplies the population/data sizes,
// with Scale=1 tuned so every figure regenerates in seconds. Each figure's
// doc comment states its Scale=1 sizes and the factor that reaches the
// paper's; no reproduced numbers are committed yet (ROADMAP item 5).
package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"p2b/internal/core"
	"p2b/internal/encoding"
	"p2b/internal/shuffler"
	"p2b/internal/stats"
)

// Options are shared by all experiment runners.
type Options struct {
	// Seed is the root seed. Runs with the same seed and scale give the
	// same bytes at any Workers.
	Seed uint64
	// Scale multiplies population sizes. 1 (default) is bench scale;
	// the per-figure doc comments state the factor that reaches the
	// paper's full scale.
	Scale float64
	// Workers is how many independent cells (one core.System each) an
	// experiment runs at once (default 4); results do not depend on it.
	// For http-pipeline and model_path it is the HTTP client concurrency.
	Workers int
}

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Seed == 0 {
		o.Seed = 20200302 // MLSys 2020 opening day; any fixed value works
	}
}

func (o Options) scaled(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 1 {
		return 1
	}
	return n
}

// Result is one regenerated figure: a set of text tables (one per panel)
// and free-form notes (headline numbers, drop rates, epsilons).
type Result struct {
	Name        string
	Description string
	Tables      []*stats.Table
	Notes       []string
}

// Render returns the result as human-readable text, the tool's output
// format.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n%s\n", r.Name, r.Description)
	for _, tab := range r.Tables {
		b.WriteString("\n")
		if tab.XLabel != "" {
			fmt.Fprintf(&b, "[%s]\n", tab.XLabel)
		}
		b.WriteString(tab.Render())
	}
	if len(r.Notes) > 0 {
		b.WriteString("\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	return b.String()
}

// CSV returns all tables in CSV form, separated by blank lines.
func (r *Result) CSV() string {
	var b strings.Builder
	for i, tab := range r.Tables {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(tab.CSV())
	}
	return b.String()
}

// modes lists the paper's three regimes in presentation order.
var modes = []core.Mode{core.Cold, core.WarmNonPrivate, core.WarmPrivate}

// averageSeries pointwise-averages replica series sharing an X grid. The
// reported uncertainty is the 95% CI of the between-replica spread, which
// captures model-to-model variation that a single run's within-cohort CI
// misses.
func averageSeries(name string, replicas []*stats.Series) *stats.Series {
	out := &stats.Series{Name: name}
	if len(replicas) == 0 {
		return out
	}
	for i := range replicas[0].Points {
		var agg stats.Running
		for _, rep := range replicas {
			agg.Add(rep.Points[i].Y)
		}
		out.Append(replicas[0].Points[i].X, agg.Mean(), agg.CI95())
	}
	return out
}

// runCells runs independent cells on up to workers goroutines and returns
// their results by index, so the output does not depend on workers or on
// the order in which cells finish. Each cell must own its state (its own
// core.System); inputs they share, such as an environment, are read-only.
// The errors of failing cells are joined in index order.
func runCells[T any](workers int, cells []func() (T, error)) ([]T, error) {
	out := make([]T, len(cells))
	errs := make([]error, len(cells))
	slots := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, cell := range cells {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = cell()
			<-slots
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// cell is one System of an experiment: its config, workload and encoder
// (nil lets core fit one), the contributing users and the evaluation
// cohort.
type cell struct {
	cfg         core.Config
	env         core.Environment
	enc         encoding.Encoder
	train, eval []int
}

// cellResult is what an experiment reads back from a cell.
type cellResult struct {
	eval     core.RunResult
	shuffler shuffler.Stats
}

// trainEval runs cells on up to workers goroutines, each the same way:
// build the System, run the contributing users, flush the shuffler, then
// measure the evaluation cohort against the global model. Results come
// back by cell index.
func trainEval(workers int, cells []cell) ([]cellResult, error) {
	fns := make([]func() (cellResult, error), len(cells))
	for i, c := range cells {
		fns[i] = func() (cellResult, error) {
			sys, err := core.NewSystem(c.cfg, c.env, c.enc)
			if err != nil {
				return cellResult{}, err
			}
			sys.RunUsers(c.train, true)
			sys.Flush()
			eval := sys.RunUsers(c.eval, false)
			return cellResult{eval, sys.Shuffler().Stats()}, nil
		}
	}
	return runCells(workers, fns)
}

// Registry maps experiment ids (as accepted by cmd/p2bbench) to runners.
var Registry = map[string]func(Options) (*Result, error){
	"fig2":       Figure2,
	"fig3":       Figure3,
	"fig4":       Figure4,
	"fig5":       Figure5,
	"fig6":       Figure6,
	"fig7":       Figure7,
	"headline":   Headline,
	"ab-encoder": AblationEncoders,
	"ab-p":       AblationParticipation,
	"ab-l":       AblationThreshold,
	"ab-k":       AblationCodeSpace,
	"ab-policy":  AblationPolicies,
	"ab-learner": AblationLearners,

	// Systems experiments (no paper counterpart).
	"http-pipeline": HTTPPipeline,
	"model_path":    ModelPath,
}

// Names returns the registry keys in a stable order.
func Names() []string {
	return []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "headline",
		"ab-encoder", "ab-p", "ab-l", "ab-k", "ab-policy", "ab-learner",
		"http-pipeline", "model_path"}
}
