// Command p2bbench regenerates the paper's tables and figures.
//
// Usage:
//
//	p2bbench -list
//	p2bbench -experiment fig4 [-scale 1] [-seed 7] [-workers 8] [-csv]
//	p2bbench -experiment all -json [-out results/]
//
// Scale 1 regenerates every figure in seconds at reduced population sizes;
// the per-figure doc comments in internal/experiments state the scale that
// reaches the paper's full sizes (e.g. -scale 100 for Figure 4's 10^6
// users).
//
// With -json, each experiment additionally writes a machine-readable
// BENCH_<id>.json file (schema below) so successive PRs can diff result
// and runtime trajectories without scraping text tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"p2b/internal/experiments"
	"p2b/internal/stats"
)

// benchJSON is the stable machine-readable schema emitted by -json.
type benchJSON struct {
	Name        string      `json:"name"`
	Description string      `json:"description"`
	Seed        uint64      `json:"seed"`
	Scale       float64     `json:"scale"`
	Workers     int         `json:"workers"`
	ElapsedMS   float64     `json:"elapsed_ms"`
	Tables      []tableJSON `json:"tables"`
	Notes       []string    `json:"notes,omitempty"`
}

type tableJSON struct {
	XLabel string       `json:"x_label,omitempty"`
	Series []seriesJSON `json:"series"`
}

type seriesJSON struct {
	Name   string      `json:"name"`
	Points []pointJSON `json:"points"`
}

type pointJSON struct {
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
	Err float64 `json:"err,omitempty"`
}

func toBenchJSON(res *experiments.Result, opts experiments.Options, elapsed time.Duration) benchJSON {
	out := benchJSON{
		Name:        res.Name,
		Description: res.Description,
		Seed:        opts.Seed,
		Scale:       opts.Scale,
		Workers:     opts.Workers,
		ElapsedMS:   float64(elapsed.Microseconds()) / 1000,
		Notes:       res.Notes,
	}
	for _, tab := range res.Tables {
		tj := tableJSON{XLabel: tab.XLabel}
		for _, s := range tab.Series {
			tj.Series = append(tj.Series, toSeriesJSON(s))
		}
		out.Tables = append(out.Tables, tj)
	}
	return out
}

func toSeriesJSON(s *stats.Series) seriesJSON {
	sj := seriesJSON{Name: s.Name, Points: make([]pointJSON, 0, len(s.Points))}
	for _, p := range s.Points {
		sj.Points = append(sj.Points, pointJSON{X: p.X, Y: p.Y, Err: p.Err})
	}
	return sj
}

func main() {
	var (
		name     = flag.String("experiment", "", "experiment id (see -list) or 'all'")
		scale    = flag.Float64("scale", 1, "population scale factor (1 = seconds-fast, larger = closer to paper scale)")
		seed     = flag.Uint64("seed", 20200302, "root random seed")
		workers  = flag.Int("workers", 8, "simulation worker goroutines")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut  = flag.Bool("json", false, "also write BENCH_<experiment>.json files")
		outDir   = flag.String("out", ".", "directory for -json output files")
		list     = flag.Bool("list", false, "list available experiments")
		quietRun = flag.Bool("quiet", false, "suppress table output (useful with -json)")
	)
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, n := range experiments.Names() {
			fmt.Printf("  %s\n", n)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "p2bbench: -experiment is required (use -list to see options)")
		os.Exit(2)
	}
	opts := experiments.Options{Seed: *seed, Scale: *scale, Workers: *workers}
	if *jsonOut {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "p2bbench: creating -out directory: %v\n", err)
			os.Exit(1)
		}
	}

	names := []string{*name}
	if *name == "all" {
		names = experiments.Names()
	}
	for _, n := range names {
		run, ok := experiments.Registry[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "p2bbench: unknown experiment %q (use -list)\n", n)
			os.Exit(2)
		}
		start := time.Now()
		res, err := run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p2bbench: %s failed: %v\n", n, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		switch {
		case *quietRun:
		case *csv:
			fmt.Print(res.CSV())
		default:
			// The timing line goes to stderr: stdout at a fixed seed holds
			// only results, so two runs can be compared byte for byte.
			fmt.Printf("%s\n\n", res.Render())
			fmt.Fprintf(os.Stderr, "(%s completed in %v at scale %g)\n", n, elapsed.Round(time.Millisecond), *scale)
		}
		if *jsonOut {
			blob, err := json.MarshalIndent(toBenchJSON(res, opts, elapsed), "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "p2bbench: marshaling %s: %v\n", n, err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, "BENCH_"+n+".json")
			if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "p2bbench: writing %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "p2bbench: wrote %s\n", path)
		}
	}
}
