// Command benchmark is the repo's performance ledger: it boots real p2bnode
// processes built from this tree, drives them from one generator process
// with pre-encoded P2B1 bodies, checks mass conservation, the crowd
// threshold, convergence and durability while it times, and prints every
// metric by name with its unit. BENCHMARK.json at the repo root is its
// contract; README.md in this directory defines every metric.
//
//	go run ./benchmark -workload ingest_strict -seed 1            untraced: end-to-end metrics
//	go run ./benchmark -workload fleet_relay -seed 1 -trace 1     traced: per-layer metrics
//	go run ./benchmark -workload model_sync -seed 1 -smoke        1s phases, same code paths
//	go run ./benchmark -compare a.json b.json                     compare two -out files
//	go run ./benchmark -manifest                                  print BENCHMARK.json
//
// The last line of standard output of a measuring run is one JSON object
// {"correct","attempted","failed","metrics"}. The exit status is non-zero
// when a correctness check fails, an operation fails or the run cannot be
// made.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: ingest_strict, ingest_interval, fleet_relay or model_sync")
		seed     = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "how long the run measures (warm-up, closed loop and open loop together)")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics with tracing off; 1 = per-layer metrics (traced replica, stage ledger, node counters)")
		smoke    = flag.Bool("smoke", false, "shrink every phase and fixed count (1s phases, same code paths)")
		out      = flag.String("out", "", "append the run's full result, with its machine stamp, to this file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare base.json change.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it and exit")
	)
	flag.Parse()
	switch {
	case *manifest:
		fmt.Println(string(manifestJSON()))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalUsage("-compare needs two result files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatalUsage(fmt.Sprintf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatalUsage("-trace takes 0 or 1")
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, scale: 1}
	if *smoke {
		cfg.seconds, cfg.scale = smokeSeconds, 10
	}
	if cfg.seconds <= 0 {
		fatalUsage("-seconds must be positive")
	}

	// SIGINT/SIGTERM cancel the run; every exit path below goes through the
	// deferred clean-ups, which kill the nodes and remove their data dirs.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	res, err := run(ctx, cfg, *trace == 1)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := res.appendTo(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	flag.Usage()
	os.Exit(2)
}

// result is one run's record: what the last output line summarises and
// what -out appends for -compare.
type result struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Machine    machine            `json:"machine"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Violations []string           `json:"violations,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`

	specs []metricSpec // the metrics this run reports, in order
}

// run builds the node, stamps the machine and makes the measurement.
func run(ctx context.Context, cfg runConfig, traced bool) (*result, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	bin, err := buildNode(ctx, root)
	if err != nil {
		return nil, err
	}
	env, err := stampMachine(scratchRoot(root))
	if err != nil {
		return nil, err
	}
	// The generator shares the machine with the nodes it measures. Its heap
	// is a few megabytes, so at the default GOGC it would collect every few
	// milliseconds under load; a larger headroom keeps its collector off the
	// cores the nodes need.
	debug.SetGCPercent(400)
	res := &result{
		Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: traced,
		Machine: env, Metrics: map[string]float64{}, specs: endToEnd,
	}
	var m *measured
	if traced {
		res.specs = perLayer()
		m, err = tracedRun(ctx, root, bin, cfg)
	} else {
		m, err = realRun(ctx, root, bin, cfg)
	}
	if err != nil {
		return nil, err
	}
	m.values["env.fsync_probe_us"] = env.FsyncProbeUS
	for _, s := range res.specs {
		v, ok := m.values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		res.Metrics[s.Name] = v
	}
	res.Attempted, res.Failed = m.attempted, m.failed
	res.Violations, res.Notes = m.violations, m.notes
	res.Correct = len(m.violations) == 0
	return res, nil
}

// print writes the human-readable report and, as the last line, the JSON
// object the driver reads.
func (r *result) print(w *os.File) {
	mc := r.Machine
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "# machine nproc=%d gomaxprocs=%d cpu=%q go=%s fs=%s fsync_probe_us=%.1f\n",
		mc.NProc, mc.GOMAXPROCS, mc.CPUModel, mc.GoVersion, mc.FSType, mc.FsyncProbeUS)
	fmt.Fprintln(w, "# the kill -9 in the recovery step keeps the OS page cache: crash-of-process durability, not power loss")
	type line struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]line{}
	for _, s := range r.specs {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", s.Name, r.Metrics[s.Name], s.Unit)
		metrics[s.Name] = line{r.Metrics[s.Name], s.Unit}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "# note:", n)
	}
	for _, v := range r.Violations {
		fmt.Fprintln(w, "# VIOLATION:", v)
	}
	fmt.Fprintf(w, "# ops attempted %d failed %d; correctness %v\n", r.Attempted, r.Failed, r.Correct)
	last, _ := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]line `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Fprintln(w, string(last))
}

// appendTo appends the record as one JSON line.
func (r *result) appendTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	blob, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	_, werr := f.Write(append(blob, '\n'))
	return errors.Join(werr, f.Close())
}

// manifestJSON renders BENCHMARK.json from the tables in spec.go, so the
// committed file and the program cannot name different metrics.
func manifestJSON() []byte {
	type workloadRow struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadRow `json:"workloads"`
		EndToEnd   []metricSpec  `json:"end_to_end"`
		PerLayer   []metricSpec  `json:"per_layer"` // bound is zero there, so the key is omitted
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadRow{w.name, w.why})
	}
	blob, _ := json.MarshalIndent(doc, "", "  ")
	return blob
}
