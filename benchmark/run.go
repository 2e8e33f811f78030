package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is one invocation's request.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	// scale shrinks every fixed count (tail records, set-up repetitions,
	// restarts, traced operations, ledger iterations): 1 for a real run,
	// 10 for -smoke.
	scale int
}

func (c runConfig) scaled(n int) int {
	if n = n / c.scale; n < 1 {
		n = 1
	}
	return n
}

// measured is everything one real-node run produced.
type measured struct {
	values     map[string]float64 // metric name -> value
	attempted  int64
	failed     int64
	violations []string
	notes      []string // estimator caveats worth a line in the output
}

// workerCount is the generator's total number of workers and connections.
func workerCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// liveRun is one set-up topology plus the generator bound to it.
type liveRun struct {
	c   *cluster
	gen *generator
}

// setUp boots w's topology once and returns it ready: every node answers
// /healthz, the pre-load (if any) is acknowledged and every model node has
// served a first model. took is the metric setup_s: it starts when the
// first process is spawned and excludes compiling the node.
func setUp(ctx context.Context, root, bin string, w workload, in *inputs) (lr *liveRun, took time.Duration, err error) {
	c, err := newCluster(root, bin)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			c.close(true)
		}
	}()
	if err := c.plan(w); err != nil {
		return nil, 0, err
	}
	gen := newGenerator(w, in, workerCount(), c.ingestNodes(), c.modelNodes())
	start := time.Now()
	if err := c.startAll(); err != nil {
		return nil, 0, err
	}
	for _, n := range c.nodes {
		if err := c.awaitReady(ctx, gen.client, n); err != nil {
			return nil, 0, err
		}
	}
	if err := gen.sendBodies(ctx, 0, w.preload); err != nil {
		return nil, 0, fmt.Errorf("pre-load: %w", err)
	}
	wk := gen.newWorker()
	for t := range gen.modelURLs {
		if _, err := wk.fetch(t, fetchShape{}); err != nil {
			return nil, 0, fmt.Errorf("first model fetch: %w", err)
		}
	}
	return &liveRun{c, gen}, time.Since(start), nil
}

// sendBodies posts exactly count bodies to ingest node t, closed loop over
// all workers. It is the fixed-work primitive behind the pre-load and the
// WAL tail of the recovery step.
func (g *generator) sendBodies(ctx context.Context, t, count int) error {
	var next atomic.Int64
	errs := make(chan error, g.workers)
	var wg sync.WaitGroup
	for id := 0; id < g.workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wk := g.newWorker()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				if _, err := wk.post(t, g.in.bodies[i%len(g.in.bodies)]); err != nil {
					errs <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return ctx.Err()
	}
}

// realRun measures w against real p2bnode processes: repeated set-up, the
// closed and open loops, the correctness checks and the recovery step.
func realRun(ctx context.Context, root, bin string, cfg runConfig) (*measured, error) {
	w := cfg.w
	in := generate(w, cfg.seed)
	ph := splitSeconds(cfg.seconds)
	m := &measured{values: map[string]float64{}}

	// Set-up, several times over: the run keeps the last topology and
	// reports the median boot time.
	var lr *liveRun
	var setups []float64
	for i, n := 0, cfg.scaled(w.setupRuns); i < n; i++ {
		if lr != nil {
			lr.c.close(false)
		}
		var took time.Duration
		var err error
		if lr, took, err = setUp(ctx, root, bin, w, in); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	failedRun := true
	defer func() { lr.c.close(failedRun) }()
	c, gen := lr.c, lr.gen
	m.values["setup_s"] = median(setups)

	gen.closedLoop(ctx, ph.warm)
	before, err := takeCounters(gen.client, c)
	if err != nil {
		return nil, err
	}
	genCPU := selfCPU()
	closed := gen.closedLoop(ctx, ph.closed)
	time.Sleep(100 * time.Millisecond) // let the last closed-loop responses' side effects settle
	open := gen.openLoop(ctx, ph.open)
	after, err := takeCounters(gen.client, c)
	if err != nil {
		return nil, err
	}
	m.values["loadgen.cpu_s"] = selfCPU() - genCPU
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	reportRates := windowRates(closed.reports, ph.closed, closedWindows)
	m.notes = append(m.notes, fmt.Sprintf("closed-loop windows (reports/s): %.0f", reportRates))
	m.values["reports_per_s"] = median(reportRates)
	m.values["fetches_per_s"] = median(windowRates(closed.fetches, ph.closed, closedWindows))
	for _, e := range []struct {
		name    string
		samples []sample
		q       float64
	}{
		{"report_p50_ms", open.reports, 0.50},
		{"report_p99_ms", open.reports, 0.99},
		{"fetch_p50_ms", open.fetches, 0.50},
		{"fetch_p99_ms", open.fetches, 0.99},
	} {
		v, ok := windowPercentile(e.samples, ph.open, ph.openWindows(), e.q)
		m.values[e.name] = v
		if !ok {
			m.notes = append(m.notes, fmt.Sprintf("%s rests on %d samples, fewer than %d beyond the percentile", e.name, len(e.samples), minBeyond))
		}
	}

	// Freshness: on the fleet the probes enter at relay-1 and are read at
	// analyzer-2, behind the peer hop; analyzer-1 gives the local figure.
	models := c.modelNodes()
	vis, unresolved := visibility(open, len(models)-1)
	local, _ := visibility(open, 0)
	gen.attempted.Add(int64(len(open.probes)))
	gen.failed.Add(int64(unresolved))
	if len(vis) == 0 || len(local) == 0 {
		return nil, fmt.Errorf("no freshness probe became visible (%d sent)", len(open.probes))
	}
	sort.Float64s(vis)
	sort.Float64s(local)
	m.values["visible_p50_ms"] = percentile(vis, 0.50)
	m.values["visible_p90_ms"] = percentile(vis, 0.90)
	m.values["node.visible_local_p50_ms"] = percentile(local, 0.50)

	sort.Float64s(open.lateness)
	m.values["loadgen.lateness_p99_ms"] = percentile(open.lateness, 0.99)
	m.values["loadgen.missed"] = float64(open.missed)
	nodeDeltas(m.values, before, after)

	// Correctness on the quiescent topology.
	ingest := c.ingestNodes()
	m.violations = append(m.violations, checkConservation(gen.client, ingest, models, gen.ackedCounts())...)
	for _, n := range models {
		m.violations = append(m.violations, checkCrowd(gen.client, n, w)...)
	}
	if w.fleet {
		m.violations = append(m.violations, converge(ctx, gen.client, ingest, models)...)
	}

	if err := recoveryStep(ctx, cfg, c, gen, m); err != nil {
		return nil, err
	}

	gen.mu.Lock()
	m.violations = append(m.violations, gen.violations...)
	gen.mu.Unlock()
	m.attempted, m.failed = gen.attempted.Load(), gen.failed.Load()
	failedRun = len(m.violations) > 0 || m.failed > 0
	return m, nil
}

func (g *generator) ackedCounts() []int64 {
	out := make([]int64, len(g.acked))
	for i := range g.acked {
		out[i] = g.acked[i].Load()
	}
	return out
}

// converge flushes every relay and waits for the analyzers to agree: one
// sync interval is the expectation, a handful the limit.
func converge(ctx context.Context, client *http.Client, ingest, models []*node) []string {
	for _, n := range ingest {
		if err := postEmpty(client, n.url+"/shuffler/flush"); err != nil {
			return []string{"convergence: " + err.Error()}
		}
	}
	var bad []string
	for i := 0; i < 8; i++ {
		select {
		case <-ctx.Done():
			return []string{"convergence: interrupted"}
		case <-time.After(peerSync + 50*time.Millisecond):
		}
		if bad = checkConvergence(client, models); len(bad) == 0 {
			return nil
		}
	}
	return bad
}

// recoveryStep measures crash recovery on the first ingest node: force a
// checkpoint, append a fixed WAL tail, record what the node acknowledged
// and what the fleet serves, kill -9, restart on the same data directory
// and time until /healthz answers — several times over the same tail, the
// median being recovery_s. A killed process leaves the OS page cache
// intact, so this proves "acknowledged survives a crash of the process",
// not power-loss durability.
func recoveryStep(ctx context.Context, cfg runConfig, c *cluster, gen *generator, m *measured) error {
	target, model := c.ingestNodes()[0], c.modelNodes()[0]
	// The node checkpoints on its own every ckptInterval after boot; one of
	// those in the middle of the tail would shorten the replay. Start only
	// when the next automatic checkpoint is comfortably far away.
	const tailBudget = 3 * time.Second
	if sinceTick := time.Since(target.started) % ckptInterval; sinceTick > ckptInterval-tailBudget {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(ckptInterval - sinceTick + 250*time.Millisecond):
		}
	}
	if err := postEmpty(gen.client, target.url+"/admin/checkpoint"); err != nil {
		return err
	}
	walBefore, ackedBefore := walBytes(c, target), gen.acked[0].Load()
	if err := gen.sendBodies(ctx, 0, cfg.scaled(cfg.w.tail)); err != nil {
		return fmt.Errorf("WAL tail: %w", err)
	}
	if reports := gen.acked[0].Load() - ackedBefore; reports > 0 {
		m.values["node.wal_bytes_per_report"] = float64(walBytes(c, target)-walBefore) / float64(reports)
	}
	if cfg.w.fleet {
		time.Sleep(2 * peerSync) // the tail moved analyzer-1; let its push land before the model is recorded
	}
	before, err := captureDurable(gen.client, target, model)
	if err != nil {
		return err
	}
	var took []float64
	for i, n := 0, cfg.scaled(9); i < n; i++ {
		c.kill(target)
		start := time.Now()
		if err := c.start(target); err != nil {
			return err
		}
		if err := c.awaitReady(ctx, gen.client, target); err != nil {
			return err
		}
		took = append(took, time.Since(start).Seconds())
	}
	m.notes = append(m.notes, fmt.Sprintf("restarts (s): %.3f", took))
	m.values["recovery_s"] = median(took)
	m.violations = append(m.violations, checkDurability(gen.client, target, model, gen.acked[0].Load(), before)...)
	return nil
}

// counters is one scrape of everything the per-layer node metrics are
// deltas of.
type counters struct {
	prom    map[string]float64
	cpu     float64
	peakRSS float64
}

func takeCounters(client *http.Client, c *cluster) (counters, error) {
	prom, err := scrapeMetrics(client, c.nodes)
	if err != nil {
		return counters{}, err
	}
	out := counters{prom: prom}
	for _, n := range c.nodes {
		cpu, rss, err := procUsage(n.cmd.Process.Pid)
		if err != nil {
			return counters{}, err
		}
		out.cpu += cpu
		out.peakRSS += rss
	}
	return out, nil
}

// nodeDeltas fills the node.* per-layer metrics from two scrapes. Counts
// and times are summed over the nodes; shares are useful outcomes over
// attempts within the interval.
func nodeDeltas(values map[string]float64, a, b counters) {
	d := func(series string) float64 { return b.prom[series] - a.prom[series] }
	share := func(part, rest float64) float64 {
		if part+rest == 0 {
			return 0
		}
		return part / (part + rest)
	}
	received := d("p2b_shuffler_received_total")
	values["node.wal_appends"] = d("p2b_wal_append_seconds_count")
	values["node.wal_fsyncs"] = d("p2b_wal_fsync_seconds_count")
	values["node.fsyncs_per_kreport"] = 0
	if received > 0 {
		values["node.fsyncs_per_kreport"] = 1000 * d("p2b_wal_fsync_seconds_count") / received
	}
	values["node.wal_append_ms_total"] = 1000 * d("p2b_wal_append_seconds_sum")
	values["node.wal_fsync_ms_total"] = 1000 * d("p2b_wal_fsync_seconds_sum")
	values["node.checkpoints"] = d("p2b_checkpoints_total")
	values["node.checkpoint_ms_total"] = 1000 * d("p2b_checkpoint_seconds_sum")
	values["node.shuffler_batches"] = d("p2b_shuffler_batches_total")
	values["node.kept_share"] = share(d("p2b_shuffler_forwarded_total"), d("p2b_shuffler_dropped_total"))
	values["node.forward_batches"] = d("p2b_forward_batches_total")
	values["node.forward_retries"] = d("p2b_forward_retries_total")
	values["node.forward_duplicates"] = d("p2b_forward_duplicates_total")
	values["node.peer_pushes"] = d("p2b_peer_sync_pushes_total")
	values["node.peer_merges_applied"] = d("p2b_peer_merges_applied_total")
	values["node.peer_merges_rejected"] = d("p2b_peer_merges_rejected_total")
	values["node.snapshot_builds"] = d("p2b_snapshot_cache_builds_total")
	values["node.snapshot_hit_share"] = share(d("p2b_snapshot_cache_hits_total"), d("p2b_snapshot_cache_builds_total"))
	values["node.payload_builds"] = d("p2b_model_payload_builds_total")
	values["node.payload_hit_share"] = share(d("p2b_model_payload_hits_total"), d("p2b_model_payload_builds_total"))
	values["node.not_modified_share"] = share(d("p2b_model_not_modified_total"),
		d("p2b_model_payload_hits_total")+d("p2b_model_payload_builds_total"))
	values["node.shed_429"] = d("p2b_ingest_shed_total")
	values["node.shard_contention"] = d("p2b_server_shard_contention_total")
	values["node.cpu_s"] = b.cpu - a.cpu
	values["node.peak_rss_mb"] = b.peakRSS
}
