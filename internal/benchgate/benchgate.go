// Package benchgate implements the CI bench-regression gate: it compares
// freshly produced benchmark results against baselines committed under
// testdata/bench_baseline/ and fails when throughput regresses beyond a
// tolerance.
//
// Two result formats are understood:
//
//   - "bench_series": a BENCH_<id>.json file emitted by `p2bbench -json`.
//     One named series is compared pointwise; values default to
//     throughput-like (higher is better, regression of a point
//     is 1 − current/base), while a check with direction "lower" treats
//     them as latency-like (lower is better, regression is current/base
//     − 1) and may also pin an absolute ceiling with max.
//   - "go_bench": the text output of `go test -bench`. Each benchmark's
//     ns/op is compared by name; ns/op is inverse throughput, so the
//     regression is 1 − base/current.
//
// Absolute numbers move with the host, which is why the default tolerance
// is a generous 30% and why the most load-bearing checks are
// machine-relative (the batched-vs-single speedup series, or a benchmark
// measured against its reference twin on the same box).
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// DefaultTolerance is the maximum accepted fractional throughput loss
// when neither the config nor the check specifies one.
const DefaultTolerance = 0.30

// GuardBenchRegex selects the hot-path guard benchmarks the gate compares.
// It is the single source of truth: `p2bgate -update` runs it, and the
// GUARD_BENCH_REGEX env var in .github/workflows/ci.yml must stay equal to
// it (the workflow cannot import Go constants).
const GuardBenchRegex = "^(BenchmarkKMeansEncode|BenchmarkLinUCBSelect|BenchmarkLinUCBUpdate|BenchmarkTabularSelect|BenchmarkServerDeliver|BenchmarkServerDeliverSerial|BenchmarkShufflerThroughput|BenchmarkIngestBinary|BenchmarkModelGet|BenchmarkFleetWarmStart|BenchmarkLinSnapshotBuild)$"

// GuardBenchPackages are the package paths `go test -bench` runs the guard
// regex against, in the exact order the CI workflow uses.
var GuardBenchPackages = []string{".", "./internal/httpapi/"}

// GateExperiments are the p2bbench experiments whose BENCH_<id>.json
// outputs the gate compares. Like GuardBenchRegex it is the single source
// of truth: `p2bgate -update` regenerates every listed experiment, and the
// CI workflow must run the same list (pinned by a test in sync_test.go).
var GateExperiments = []string{"http-pipeline", "model_path"}

// Config is the committed gate description (gate.json in the baseline
// directory).
type Config struct {
	// Tolerance is the maximum fractional throughput regression accepted
	// by every check that does not override it (default 0.30).
	Tolerance float64 `json:"tolerance"`
	Checks    []Check `json:"checks"`
}

// Check names one file to compare between the baseline and results
// directories.
type Check struct {
	// File must exist in both directories.
	File string `json:"file"`
	// Kind is "bench_series" or "go_bench".
	Kind string `json:"kind"`
	// Series names the series inside a bench_series file.
	Series string `json:"series,omitempty"`
	// Min, when non-zero, is an absolute floor every current value of a
	// bench_series check must clear regardless of the baseline.
	Min float64 `json:"min,omitempty"`
	// Direction is "higher" (default: values are throughput-like) or
	// "lower" (values are latency-like; growing is regressing).
	Direction string `json:"direction,omitempty"`
	// Max, when non-zero, is an absolute ceiling no current value of a
	// direction-"lower" bench_series check may exceed regardless of the
	// baseline (e.g. ingest p99 must stay under the SLO).
	Max float64 `json:"max,omitempty"`
	// Tolerance overrides Config.Tolerance for this check when non-zero.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// Finding is the outcome of comparing one measured value.
type Finding struct {
	Check      string  // "<file>:<series>" or "<file>:go_bench"
	Name       string  // point label or benchmark name
	Base       float64 // baseline value
	Current    float64 // freshly measured value
	Regression float64 // fraction of throughput lost relative to baseline
	OK         bool
	Detail     string // set when a bound was violated
}

// LoadConfig reads a gate.json.
func LoadConfig(path string) (Config, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("benchgate: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return Config{}, fmt.Errorf("benchgate: parsing %s: %w", path, err)
	}
	if cfg.Tolerance == 0 {
		cfg.Tolerance = DefaultTolerance
	}
	if cfg.Tolerance < 0 || cfg.Tolerance >= 1 {
		return Config{}, fmt.Errorf("benchgate: tolerance %v outside (0, 1)", cfg.Tolerance)
	}
	if len(cfg.Checks) == 0 {
		return Config{}, fmt.Errorf("benchgate: %s declares no checks", path)
	}
	return cfg, nil
}

// Run evaluates every check and returns one finding per compared value.
// A malformed or missing input is an error — a gate that cannot read its
// inputs must fail loudly, not pass silently.
func Run(baselineDir, resultsDir string, cfg Config) ([]Finding, error) {
	var out []Finding
	for _, c := range cfg.Checks {
		tol := cfg.Tolerance
		if c.Tolerance != 0 {
			tol = c.Tolerance
		}
		basePath := filepath.Join(baselineDir, c.File)
		curPath := filepath.Join(resultsDir, c.File)
		var (
			fs  []Finding
			err error
		)
		switch c.Kind {
		case "bench_series":
			fs, err = runSeriesCheck(c, tol, basePath, curPath)
		case "go_bench":
			fs, err = runGoBenchCheck(c, tol, basePath, curPath)
		default:
			err = fmt.Errorf("benchgate: unknown check kind %q", c.Kind)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

// benchFile mirrors just enough of p2bbench's BENCH_*.json schema.
type benchFile struct {
	Tables []struct {
		Series []struct {
			Name   string `json:"name"`
			Points []struct {
				X float64 `json:"x"`
				Y float64 `json:"y"`
			} `json:"points"`
		} `json:"series"`
	} `json:"tables"`
}

func loadSeries(path, name string) (map[float64]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchgate: %w", err)
	}
	var f benchFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("benchgate: parsing %s: %w", path, err)
	}
	for _, tab := range f.Tables {
		for _, s := range tab.Series {
			if s.Name != name {
				continue
			}
			points := make(map[float64]float64, len(s.Points))
			for _, p := range s.Points {
				points[p.X] = p.Y
			}
			return points, nil
		}
	}
	return nil, fmt.Errorf("benchgate: %s has no series %q", path, name)
}

func runSeriesCheck(c Check, tol float64, basePath, curPath string) ([]Finding, error) {
	lower := false
	switch c.Direction {
	case "", "higher":
	case "lower":
		lower = true
	default:
		return nil, fmt.Errorf("benchgate: unknown direction %q (want higher or lower)", c.Direction)
	}
	base, err := loadSeries(basePath, c.Series)
	if err != nil {
		return nil, err
	}
	cur, err := loadSeries(curPath, c.Series)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, 0, len(base))
	for x := range base {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	var out []Finding
	for _, x := range xs {
		f := Finding{
			Check: c.File + ":" + c.Series,
			Name:  fmt.Sprintf("x=%g", x),
			Base:  base[x],
			OK:    true,
		}
		y, ok := cur[x]
		if !ok {
			f.OK = false
			f.Detail = "point missing from current results"
			out = append(out, f)
			continue
		}
		f.Current = y
		kind := "throughput"
		if f.Base > 0 {
			if lower {
				// Latency-like: growing relative to baseline is regressing.
				f.Regression = y/f.Base - 1
				kind = "latency"
			} else {
				f.Regression = 1 - y/f.Base
			}
		}
		if f.Regression > tol {
			f.OK = false
			f.Detail = fmt.Sprintf("%s regressed %.1f%% (tolerance %.0f%%)", kind, 100*f.Regression, 100*tol)
		}
		if c.Min != 0 && y < c.Min {
			f.OK = false
			f.Detail = strings.TrimPrefix(f.Detail+fmt.Sprintf("; below absolute floor %g", c.Min), "; ")
		}
		if c.Max != 0 && y > c.Max {
			f.OK = false
			f.Detail = strings.TrimPrefix(f.Detail+fmt.Sprintf("; above absolute ceiling %g", c.Max), "; ")
		}
		out = append(out, f)
	}
	return out, nil
}

// benchLine matches one `go test -bench` result line, e.g.
// "BenchmarkKMeansEncode-8   	  400000	      2822 ns/op	 0 B/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// ParseGoBench extracts ns/op per benchmark name from `go test -bench`
// text output. A benchmark that appears multiple times (e.g. several
// packages or -count > 1) keeps its fastest run — the usual way to damp
// scheduler noise.
func ParseGoBench(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("benchgate: %w", err)
	}
	defer f.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if old, ok := out[m[1]]; !ok || ns < old {
			out[m[1]] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchgate: reading %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchgate: %s contains no benchmark lines", path)
	}
	return out, nil
}

func runGoBenchCheck(c Check, tol float64, basePath, curPath string) ([]Finding, error) {
	base, err := ParseGoBench(basePath)
	if err != nil {
		return nil, err
	}
	cur, err := ParseGoBench(curPath)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Finding
	for _, name := range names {
		f := Finding{
			Check: c.File + ":go_bench",
			Name:  name,
			Base:  base[name],
			OK:    true,
		}
		ns, ok := cur[name]
		if !ok {
			f.OK = false
			f.Detail = "benchmark missing from current results"
			out = append(out, f)
			continue
		}
		f.Current = ns
		if ns > 0 {
			// ns/op is inverse throughput: throughput ratio = base/current.
			f.Regression = 1 - f.Base/ns
		}
		if f.Regression > tol {
			f.OK = false
			f.Detail = fmt.Sprintf("throughput regressed %.1f%% (tolerance %.0f%%)", 100*f.Regression, 100*tol)
		}
		out = append(out, f)
	}
	return out, nil
}

// Failures filters the findings that violated a bound.
func Failures(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if !f.OK {
			out = append(out, f)
		}
	}
	return out
}

// Render formats findings as an aligned report, failures marked.
func Render(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		status := "ok  "
		if !f.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%s  %-55s %-28s base %12.2f  current %12.2f  regression %+6.1f%%",
			status, f.Check, f.Name, f.Base, f.Current, 100*f.Regression)
		if f.Detail != "" {
			fmt.Fprintf(&b, "  (%s)", f.Detail)
		}
		b.WriteString("\n")
	}
	return b.String()
}
