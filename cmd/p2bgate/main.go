// Command p2bgate is the CI bench-regression gate. It compares freshly
// produced benchmark results against the baselines committed under
// testdata/bench_baseline/ and exits non-zero when throughput regressed
// beyond the configured tolerance (default 30%).
//
// The gate configuration (which files and series to compare, tolerances)
// is itself committed next to the baselines as gate.json, so tightening or
// extending the gate is an ordinary reviewed change. The two same-host
// speedup floors (batched-vs-single, cached-vs-rebuild) are not in it: the
// experiments that measure them return an error below the floor, so
// p2bbench fails before there is a result to gate.
//
// Usage (what the CI workflow runs; $GUARD_BENCH_REGEX is defined in
// .github/workflows/ci.yml and must stay equal to
// benchgate.GuardBenchRegex):
//
//	go test -run '^$' -bench "$GUARD_BENCH_REGEX" -benchmem . ./internal/httpapi/ | tee results/guard_bench.txt
//	go run ./cmd/p2bbench -experiment http-pipeline -json -quiet -out results
//	go run ./cmd/p2bgate -baseline testdata/bench_baseline -results results
//
// Refreshing the baselines after an intentional performance change:
//
//	go run ./cmd/p2bgate -update
//
// -update reruns the exact benchmark commands CI runs (same regex, same
// packages — both taken from internal/benchgate, so refreshed baselines
// can never silently drop benchmarks from the gate) and rewrites the
// baseline directory from the fresh run. Run it on the reference machine,
// inspect the diff, and commit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"p2b/internal/benchgate"
)

func main() {
	var (
		baseline  = flag.String("baseline", "testdata/bench_baseline", "directory holding committed baselines and gate.json")
		results   = flag.String("results", "results", "directory holding freshly produced results")
		config    = flag.String("config", "", "gate config path (default <baseline>/gate.json)")
		tolerance = flag.Float64("tolerance", 0, "override the config's default tolerance (0 = use config)")
		update    = flag.Bool("update", false, "regenerate the baseline directory from a fresh benchmark run instead of gating")
	)
	flag.Parse()

	if *update {
		if err := refreshBaselines(*baseline); err != nil {
			fmt.Fprintln(os.Stderr, "p2bgate:", err)
			os.Exit(2)
		}
		fmt.Printf("p2bgate: baselines in %s refreshed; inspect the diff and commit\n", *baseline)
		return
	}

	cfgPath := *config
	if cfgPath == "" {
		cfgPath = filepath.Join(*baseline, "gate.json")
	}
	cfg, err := benchgate.LoadConfig(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2bgate:", err)
		os.Exit(2)
	}
	if *tolerance != 0 {
		cfg.Tolerance = *tolerance
	}
	findings, err := benchgate.Run(*baseline, *results, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2bgate:", err)
		os.Exit(2)
	}
	fmt.Print(benchgate.Render(findings))
	if fails := benchgate.Failures(findings); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "p2bgate: %d of %d checks regressed beyond tolerance\n", len(fails), len(findings))
		os.Exit(1)
	}
	fmt.Printf("p2bgate: all %d checks within tolerance\n", len(findings))
}

// refreshBaselines reruns the gate's benchmark commands and rewrites dir.
// The commands mirror the CI workflow exactly; the guard regex and package
// list come from internal/benchgate so the two cannot drift apart here.
func refreshBaselines(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	for _, exp := range benchgate.GateExperiments {
		fmt.Printf("p2bgate: running %s experiment (p2bbench)\n", exp)
		bench := exec.Command("go", "run", "./cmd/p2bbench", "-experiment", exp, "-json", "-quiet", "-out", dir)
		bench.Stdout, bench.Stderr = os.Stdout, os.Stderr
		if err := bench.Run(); err != nil {
			return fmt.Errorf("p2bbench %s: %w", exp, err)
		}
	}

	fmt.Printf("p2bgate: running guard benchmarks %s\n", benchgate.GuardBenchRegex)
	args := []string{"test", "-run", "^$", "-bench", benchgate.GuardBenchRegex, "-benchmem"}
	args = append(args, benchgate.GuardBenchPackages...)
	guard := exec.Command("go", args...)
	out, err := os.Create(filepath.Join(dir, "guard_bench.txt"))
	if err != nil {
		return err
	}
	defer out.Close()
	guard.Stdout = out
	guard.Stderr = os.Stderr
	if err := guard.Run(); err != nil {
		return fmt.Errorf("guard benchmarks: %w", err)
	}
	return out.Close()
}
