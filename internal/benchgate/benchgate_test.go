package benchgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

const benchJSONTmpl = `{
  "name": "http-pipeline",
  "tables": [
    {
      "x_label": "workers",
      "series": [
        {"name": "batched_rps", "points": [{"x": 8, "y": %s}]},
        {"name": "speedup_batched_vs_single", "points": [{"x": 8, "y": %s}]}
      ]
    }
  ]
}`

func tmpl(rps, speedup string) string {
	out := strings.Replace(benchJSONTmpl, "%s", rps, 1)
	return strings.Replace(out, "%s", speedup, 1)
}

func TestSeriesCheckPassesWithinTolerance(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeFile(t, baseDir, "BENCH_http_pipeline.json", tmpl("1000000", "30"))
	writeFile(t, curDir, "BENCH_http_pipeline.json", tmpl("800000", "25")) // -20%, inside 30%
	cfg := Config{Tolerance: 0.30, Checks: []Check{
		{File: "BENCH_http_pipeline.json", Kind: "bench_series", Series: "batched_rps"},
		{File: "BENCH_http_pipeline.json", Kind: "bench_series", Series: "speedup_batched_vs_single", Min: 10},
	}}
	fs, err := Run(baseDir, curDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("findings %d, want 2", len(fs))
	}
	if len(Failures(fs)) != 0 {
		t.Fatalf("unexpected failures:\n%s", Render(fs))
	}
}

func TestSeriesCheckFailsBeyondTolerance(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeFile(t, baseDir, "BENCH_http_pipeline.json", tmpl("1000000", "30"))
	writeFile(t, curDir, "BENCH_http_pipeline.json", tmpl("500000", "30")) // -50%
	cfg := Config{Tolerance: 0.30, Checks: []Check{
		{File: "BENCH_http_pipeline.json", Kind: "bench_series", Series: "batched_rps"},
	}}
	fs, err := Run(baseDir, curDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fails := Failures(fs)
	if len(fails) != 1 {
		t.Fatalf("want 1 failure, got:\n%s", Render(fs))
	}
	if fails[0].Regression < 0.49 || fails[0].Regression > 0.51 {
		t.Fatalf("regression %v, want ~0.5", fails[0].Regression)
	}
}

func TestSeriesCheckAbsoluteFloor(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	// A collapse from 200x to 12x passes the relative bar only because the
	// baseline was generous; it must still clear the absolute floor — and
	// an 8x must not.
	writeFile(t, baseDir, "BENCH_http_pipeline.json", tmpl("1000000", "12"))
	writeFile(t, curDir, "BENCH_http_pipeline.json", tmpl("1000000", "8"))
	cfg := Config{Tolerance: 0.50, Checks: []Check{
		{File: "BENCH_http_pipeline.json", Kind: "bench_series", Series: "speedup_batched_vs_single", Min: 10},
	}}
	fs, err := Run(baseDir, curDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fails := Failures(fs)
	if len(fails) != 1 || !strings.Contains(fails[0].Detail, "absolute floor") {
		t.Fatalf("floor violation not caught:\n%s", Render(fs))
	}
}

func TestSeriesCheckImprovementIsNegativeRegression(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeFile(t, baseDir, "BENCH_http_pipeline.json", tmpl("1000000", "30"))
	writeFile(t, curDir, "BENCH_http_pipeline.json", tmpl("2000000", "60"))
	cfg := Config{Tolerance: 0.30, Checks: []Check{
		{File: "BENCH_http_pipeline.json", Kind: "bench_series", Series: "batched_rps"},
	}}
	fs, err := Run(baseDir, curDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(Failures(fs)) != 0 || fs[0].Regression >= 0 {
		t.Fatalf("improvement mishandled:\n%s", Render(fs))
	}
}

const loadJSONTmpl = `{
  "name": "latency",
  "tables": [
    {
      "x_label": "percentile",
      "series": [
        {"name": "ingest_latency_ms", "points": [{"x": 99, "y": %s}]}
      ]
    }
  ]
}`

func TestSeriesCheckDirectionLower(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeFile(t, baseDir, "BENCH_latency.json", strings.Replace(loadJSONTmpl, "%s", "10", 1))
	writeFile(t, curDir, "BENCH_latency.json", strings.Replace(loadJSONTmpl, "%s", "12", 1)) // +20%: fine
	cfg := Config{Tolerance: 0.50, Checks: []Check{
		{File: "BENCH_latency.json", Kind: "bench_series", Series: "ingest_latency_ms", Direction: "lower"},
	}}
	fs, err := Run(baseDir, curDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(Failures(fs)) != 0 {
		t.Fatalf("20%% latency growth inside 50%% tolerance failed:\n%s", Render(fs))
	}
	if fs[0].Regression < 0.19 || fs[0].Regression > 0.21 {
		t.Fatalf("regression %v, want ~0.2", fs[0].Regression)
	}

	// Tripled latency breaches the tolerance.
	writeFile(t, curDir, "BENCH_latency.json", strings.Replace(loadJSONTmpl, "%s", "30", 1))
	fs, err = Run(baseDir, curDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fails := Failures(fs)
	if len(fails) != 1 || !strings.Contains(fails[0].Detail, "latency regressed") {
		t.Fatalf("tripled latency not caught:\n%s", Render(fs))
	}

	// And a latency improvement must read as negative regression.
	writeFile(t, curDir, "BENCH_latency.json", strings.Replace(loadJSONTmpl, "%s", "5", 1))
	fs, err = Run(baseDir, curDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(Failures(fs)) != 0 || fs[0].Regression >= 0 {
		t.Fatalf("latency improvement mishandled:\n%s", Render(fs))
	}
}

func TestSeriesCheckAbsoluteCeiling(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	// A bloated baseline must not launder an SLO breach: +10% relative is
	// fine, but the ceiling still holds.
	writeFile(t, baseDir, "BENCH_latency.json", strings.Replace(loadJSONTmpl, "%s", "300", 1))
	writeFile(t, curDir, "BENCH_latency.json", strings.Replace(loadJSONTmpl, "%s", "330", 1))
	cfg := Config{Tolerance: 0.50, Checks: []Check{
		{File: "BENCH_latency.json", Kind: "bench_series", Series: "ingest_latency_ms",
			Direction: "lower", Max: 250},
	}}
	fs, err := Run(baseDir, curDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fails := Failures(fs)
	if len(fails) != 1 || !strings.Contains(fails[0].Detail, "absolute ceiling") {
		t.Fatalf("ceiling violation not caught:\n%s", Render(fs))
	}
}

func TestSeriesCheckUnknownDirectionIsError(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeFile(t, baseDir, "BENCH_latency.json", strings.Replace(loadJSONTmpl, "%s", "10", 1))
	writeFile(t, curDir, "BENCH_latency.json", strings.Replace(loadJSONTmpl, "%s", "10", 1))
	cfg := Config{Tolerance: 0.50, Checks: []Check{
		{File: "BENCH_latency.json", Kind: "bench_series", Series: "ingest_latency_ms", Direction: "sideways"},
	}}
	if _, err := Run(baseDir, curDir, cfg); err == nil {
		t.Fatal("unknown direction accepted")
	}
}

func TestMissingSeriesIsError(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeFile(t, baseDir, "BENCH_http_pipeline.json", tmpl("1", "1"))
	writeFile(t, curDir, "BENCH_http_pipeline.json", tmpl("1", "1"))
	cfg := Config{Tolerance: 0.30, Checks: []Check{
		{File: "BENCH_http_pipeline.json", Kind: "bench_series", Series: "no_such_series"},
	}}
	if _, err := Run(baseDir, curDir, cfg); err == nil {
		t.Fatal("missing series must be an error, not a pass")
	}
}

func TestMissingResultFileIsError(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeFile(t, baseDir, "BENCH_http_pipeline.json", tmpl("1", "1"))
	cfg := Config{Tolerance: 0.30, Checks: []Check{
		{File: "BENCH_http_pipeline.json", Kind: "bench_series", Series: "batched_rps"},
	}}
	if _, err := Run(baseDir, curDir, cfg); err == nil {
		t.Fatal("missing current file must be an error")
	}
}

const goBenchBase = `goos: linux
goarch: amd64
pkg: p2b
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKMeansEncode-8     	  400000	      2800 ns/op	       0 B/op	       0 allocs/op
BenchmarkLinUCBSelect-8     	  600000	      2000 ns/op	       0 B/op	       0 allocs/op
BenchmarkServerDeliver-8    	 1000000	       700 ns/op
PASS
`

func TestGoBenchCheck(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeFile(t, baseDir, "guard_bench.txt", goBenchBase)
	cur := strings.Replace(goBenchBase, "2800 ns/op", "2900 ns/op", 1) // ~3% slower: fine
	cur = strings.Replace(cur, "2000 ns/op", "4000 ns/op", 1)          // 2x slower: fail
	writeFile(t, curDir, "guard_bench.txt", cur)
	cfg := Config{Tolerance: 0.30, Checks: []Check{
		{File: "guard_bench.txt", Kind: "go_bench"},
	}}
	fs, err := Run(baseDir, curDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 {
		t.Fatalf("findings %d, want 3:\n%s", len(fs), Render(fs))
	}
	fails := Failures(fs)
	if len(fails) != 1 || fails[0].Name != "BenchmarkLinUCBSelect" {
		t.Fatalf("want exactly BenchmarkLinUCBSelect to fail:\n%s", Render(fs))
	}
	// Throughput halved: regression 50%.
	if fails[0].Regression < 0.49 || fails[0].Regression > 0.51 {
		t.Fatalf("regression %v, want ~0.5", fails[0].Regression)
	}
}

func TestGoBenchParserKeepsFastestDuplicate(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "b.txt",
		"BenchmarkX-8 100 200 ns/op\nBenchmarkX-8 100 150 ns/op\nBenchmarkX-8 100 250 ns/op\n")
	m, err := ParseGoBench(filepath.Join(dir, "b.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if m["BenchmarkX"] != 150 {
		t.Fatalf("kept %v, want the fastest 150", m["BenchmarkX"])
	}
}

func TestGoBenchMissingBenchmarkFails(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeFile(t, baseDir, "guard_bench.txt", goBenchBase)
	writeFile(t, curDir, "guard_bench.txt",
		"BenchmarkKMeansEncode-8 400000 2800 ns/op\n")
	cfg := Config{Tolerance: 0.30, Checks: []Check{{File: "guard_bench.txt", Kind: "go_bench"}}}
	fs, err := Run(baseDir, curDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fails := Failures(fs)
	if len(fails) != 2 {
		t.Fatalf("want 2 missing-benchmark failures:\n%s", Render(fs))
	}
	for _, f := range fails {
		if !strings.Contains(f.Detail, "missing") {
			t.Fatalf("detail %q", f.Detail)
		}
	}
}

func TestLoadConfigValidation(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "gate.json", `{"tolerance": 0.3, "checks": [{"file": "f", "kind": "go_bench"}]}`)
	cfg, err := LoadConfig(filepath.Join(dir, "gate.json"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tolerance != 0.3 || len(cfg.Checks) != 1 {
		t.Fatalf("cfg %+v", cfg)
	}
	writeFile(t, dir, "empty.json", `{"tolerance": 0.3, "checks": []}`)
	if _, err := LoadConfig(filepath.Join(dir, "empty.json")); err == nil {
		t.Fatal("empty checks accepted")
	}
	writeFile(t, dir, "tol.json", `{"tolerance": 1.5, "checks": [{"file": "f", "kind": "go_bench"}]}`)
	if _, err := LoadConfig(filepath.Join(dir, "tol.json")); err == nil {
		t.Fatal("tolerance 1.5 accepted")
	}
}

func TestUnknownKindIsError(t *testing.T) {
	cfg := Config{Tolerance: 0.3, Checks: []Check{{File: "f", Kind: "mystery"}}}
	if _, err := Run(t.TempDir(), t.TempDir(), cfg); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
