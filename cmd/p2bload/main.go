// Command p2bload is the fleet-scale load harness: it drives a running
// p2bnode over real HTTP with open-loop Poisson arrivals — tens of
// thousands of simulated device identities posting reports and polling
// the model with conditional GETs — and reports the latency quantiles and
// achieved throughput that define the node's service-level objectives.
//
// Usage:
//
//	p2bload -node http://localhost:8080 -rate 2000 -fetch-rate 400 -duration 30s
//	p2bload -node $NODE -smoke -json results/BENCH_load_slo.json   # CI preset
//	p2bload -node $NODE -check-metrics                             # exposition check only
//
// With -json the run is written in p2bbench's BENCH_*.json schema, so
// p2bgate can compare it against the committed baseline in
// testdata/bench_baseline/load_slo (throughput floor, p99 ceiling).
// -check-metrics scrapes the node's /metrics route and fails unless it is
// valid Prometheus text exposition covering the instrumented subsystems.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"p2b/agent"
	"p2b/internal/loadgen"
)

func main() {
	var (
		node      = flag.String("node", "", "base URL of the p2bnode under test (required)")
		rate      = flag.Float64("rate", 1000, "offered ingest load, reports/sec")
		fetchRate = flag.Float64("fetch-rate", 200, "offered conditional model-fetch load, requests/sec")
		duration  = flag.Duration("duration", 30*time.Second, "how long to generate arrivals")
		devices   = flag.Int("devices", 10000, "simulated device-identity pool size")
		workers   = flag.Int("workers", 64, "max in-flight requests per traffic class")
		seed      = flag.Uint64("seed", 1, "arrival-process seed")
		smoke     = flag.Bool("smoke", false, "CI smoke preset: 600 rps ingest, 150 rps fetch, 15s")
		jsonOut   = flag.String("json", "", "write the run as BENCH_load_slo.json to this path")
		checkOnly = flag.Bool("check-metrics", false, "only verify the node's /metrics exposition, generate no load")
	)
	flag.Parse()

	if *node == "" {
		fmt.Fprintln(os.Stderr, "p2bload: -node is required")
		os.Exit(2)
	}
	if *smoke {
		*rate, *fetchRate, *duration, *workers = 600, 150, 15*time.Second, 32
	}

	// Preflight: fail fast with a useful message if the node is absent or
	// misconfigured, instead of counting a whole run of refused connections.
	if _, err := agent.FetchHealth(*node); err != nil {
		fmt.Fprintf(os.Stderr, "p2bload: preflight failed: %v\n", err)
		os.Exit(1)
	}

	if *checkOnly {
		if err := loadgen.VerifyMetrics(nil, *node, loadgen.NodeMetricFamilies); err != nil {
			fmt.Fprintln(os.Stderr, "p2bload:", err)
			os.Exit(1)
		}
		fmt.Printf("p2bload: /metrics exposition valid, %d required families present\n", len(loadgen.NodeMetricFamilies))
		return
	}

	res, err := loadgen.Run(loadgen.Config{
		NodeURL:   *node,
		Rate:      *rate,
		FetchRate: *fetchRate,
		Duration:  *duration,
		Devices:   *devices,
		Workers:   *workers,
		Seed:      *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2bload:", err)
		os.Exit(1)
	}
	fmt.Print(loadgen.Summary(res))

	if *jsonOut != "" {
		blob, err := loadgen.BenchJSON(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p2bload:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "p2bload: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("p2bload: wrote %s\n", *jsonOut)
	}

	// A run where nothing was accepted is a failed run regardless of what
	// the gate would later say about the numbers.
	if res.IngestOK == 0 {
		fmt.Fprintln(os.Stderr, "p2bload: node accepted no reports")
		os.Exit(1)
	}
}
