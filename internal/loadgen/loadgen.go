// Package loadgen is the fleet-scale load harness behind cmd/p2bload: an
// open-loop generator that drives a running p2bnode over real HTTP with
// Poisson arrivals and measures the service-level objectives that matter
// to a deployment — ingest latency quantiles, conditional model-fetch
// latency, achieved throughput, and shed/error rates.
//
// Open loop means arrivals are scheduled by the clock, not by completions:
// every event has an intended start time drawn from the arrival process,
// and its latency is measured from that intended start, so time an
// overloaded node makes requests wait in the generator's queue is charged
// to the node. A closed loop (issue, wait, issue) would silently slow the
// offered load to whatever the node can absorb and hide exactly the
// tail-latency collapse this harness exists to catch (coordinated
// omission).
//
// Latencies accumulate in log-bucketed histograms (internal/metrics) whose
// relative bucket width is ~9%, fine enough for honest p50/p99/p999
// estimates across five orders of magnitude without per-sample storage.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"p2b/internal/metrics"
	"p2b/internal/rng"
	"p2b/internal/transport"
)

// Config describes one load run. Rate and Duration are required.
type Config struct {
	// NodeURL is the base URL of the p2bnode under test.
	NodeURL string
	// Rate is the offered ingest load in reports per second.
	Rate float64
	// FetchRate is the offered conditional model-fetch load in requests
	// per second (0 = no fetch traffic).
	FetchRate float64
	// Duration is how long arrivals are generated.
	Duration time.Duration
	// Devices is the size of the simulated device-identity pool; report
	// metadata cycles through it (default 10000). The node scrubs these,
	// but a realistic identity spread keeps request bodies honest.
	Devices int
	// Workers bounds concurrent in-flight requests per traffic class
	// (default 64). In an open loop workers are capacity, not load: too
	// few workers only shows up as queue wait inside the measured latency.
	Workers int
	// Seed seeds the arrival processes (default 1).
	Seed uint64
	// Client overrides the HTTP client (default: pooled transport with
	// Workers*2 idle connections and a 10s timeout).
	Client *http.Client
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Devices <= 0 {
		out.Devices = 10000
	}
	if out.Workers <= 0 {
		out.Workers = 64
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Client == nil {
		tr := &http.Transport{
			MaxIdleConns:        out.Workers * 2,
			MaxIdleConnsPerHost: out.Workers * 2,
		}
		out.Client = &http.Client{Transport: tr, Timeout: 10 * time.Second}
	}
	return out
}

// latencyBuckets spans 50µs to ~12s at ~9% relative width — the HDR-style
// resolution the quantile estimates interpolate within.
func latencyBuckets() []float64 { return metrics.ExpBuckets(50e-6, 1.09, 145) }

// Result is the outcome of one load run.
type Result struct {
	Config  Config
	Elapsed time.Duration

	// Ingest-path outcome counts.
	IngestSent   int64 // requests issued
	IngestOK     int64 // 202 Accepted
	IngestShed   int64 // 429 (admission gate)
	IngestUnaval int64 // 503 (fail-closed WAL)
	IngestErrs   int64 // transport errors and unexpected statuses
	IngestMissed int64 // arrivals dropped because the generator queue overflowed

	// Fetch-path outcome counts.
	FetchSent   int64
	FetchOK     int64 // 200 with a model payload
	FetchNotMod int64 // 304 (the steady-state fleet answer)
	FetchErrs   int64
	FetchMissed int64
	ModelBytes  int64 // payload bytes transferred on 200s

	// Latency distributions, measured from intended arrival time.
	IngestLatency *metrics.Histogram
	FetchLatency  *metrics.Histogram
}

// IngestThroughput is the achieved accepted-report rate in reports/sec.
func (r *Result) IngestThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.IngestOK) / r.Elapsed.Seconds()
}

// event is one scheduled arrival: its offset from the run start.
type event struct {
	due time.Duration
	seq int64
}

// Run executes one load run against cfg.NodeURL and blocks until every
// issued request has completed. The node must already be serving; callers
// typically preflight with agent.FetchHealth first.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeURL == "" {
		return nil, fmt.Errorf("loadgen: NodeURL is required")
	}
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: Rate and Duration must be positive")
	}
	res := &Result{
		Config:        cfg,
		IngestLatency: metrics.NewHistogram(latencyBuckets()),
		FetchLatency:  metrics.NewHistogram(latencyBuckets()),
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runClass(cfg, start, cfg.Rate, "ingest", res)
	}()
	if cfg.FetchRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClass(cfg, start, cfg.FetchRate, "fetch", res)
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res, nil
}

// runClass generates one Poisson arrival stream and drives it through a
// bounded worker pool. The queue is sized for several seconds of backlog:
// latency measured from the intended arrival already charges queue wait to
// the node, so the buffer exists only to keep the open loop honest through
// transient stalls; overflowing it (a node seconds behind the offered
// load) is counted as missed arrivals rather than blocking the schedule.
func runClass(cfg Config, start time.Time, rate float64, class string, res *Result) {
	queueCap := int(rate * 4)
	if queueCap < 1024 {
		queueCap = 1024
	}
	queue := make(chan event, queueCap)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if class == "ingest" {
				ingestWorker(cfg, start, queue, res)
			} else {
				fetchWorker(cfg, start, queue, res)
			}
		}(w)
	}

	r := rng.New(cfg.Seed).Split("loadgen-" + class)
	missed := &res.IngestMissed
	if class == "fetch" {
		missed = &res.FetchMissed
	}
	var due time.Duration
	var seq int64
	for {
		// Exponential inter-arrival: a Poisson process in the small.
		due += time.Duration(-math.Log(1-r.Float64()) / rate * float64(time.Second))
		if due >= cfg.Duration {
			break
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		// The sleep may overshoot by scheduler granularity; the event still
		// carries its intended due time, so measured latency stays honest.
		select {
		case queue <- event{due: due, seq: seq}:
		default:
			atomic.AddInt64(missed, 1)
		}
		seq++
	}
	close(queue)
	wg.Wait()
}

// ingestWorker posts one report per event to /shuffler/report and buckets
// the outcome by status.
func ingestWorker(cfg Config, start time.Time, queue <-chan event, res *Result) {
	url := cfg.NodeURL + "/shuffler/report"
	for ev := range queue {
		e := transport.Envelope{
			Meta: transport.Metadata{
				DeviceID: fmt.Sprintf("load-%05d", ev.seq%int64(cfg.Devices)),
				SentAt:   start.Add(ev.due).UnixNano(),
			},
			Tuple: transport.Tuple{
				Code:   int(ev.seq % 64),
				Action: int(ev.seq % 8),
				Reward: float64(ev.seq%2) * 0.5,
			},
		}
		blob, err := json.Marshal(e)
		if err != nil {
			atomic.AddInt64(&res.IngestErrs, 1)
			continue
		}
		atomic.AddInt64(&res.IngestSent, 1)
		resp, err := cfg.Client.Post(url, "application/json", bytes.NewReader(blob))
		if err != nil {
			atomic.AddInt64(&res.IngestErrs, 1)
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			atomic.AddInt64(&res.IngestOK, 1)
			// Only accepted reports enter the latency distribution: a shed
			// 429 returns in microseconds and would drag the quantiles down
			// exactly when the node is refusing work.
			res.IngestLatency.Observe(time.Since(start.Add(ev.due)).Seconds())
		case http.StatusTooManyRequests:
			atomic.AddInt64(&res.IngestShed, 1)
		case http.StatusServiceUnavailable:
			atomic.AddInt64(&res.IngestUnaval, 1)
		default:
			atomic.AddInt64(&res.IngestErrs, 1)
		}
	}
}

// fetchWorker performs one conditional model GET per event, caching its
// ETag like a polling device: the first fetch downloads a payload, the
// steady state is 304s.
func fetchWorker(cfg Config, start time.Time, queue <-chan event, res *Result) {
	url := cfg.NodeURL + "/server/model?kind=tabular"
	etag := ""
	for ev := range queue {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			atomic.AddInt64(&res.FetchErrs, 1)
			continue
		}
		req.Header.Set("Accept", transport.ContentTypeModel)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		atomic.AddInt64(&res.FetchSent, 1)
		resp, err := cfg.Client.Do(req)
		if err != nil {
			atomic.AddInt64(&res.FetchErrs, 1)
			continue
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			atomic.AddInt64(&res.FetchOK, 1)
			atomic.AddInt64(&res.ModelBytes, n)
			etag = resp.Header.Get("ETag")
			res.FetchLatency.Observe(time.Since(start.Add(ev.due)).Seconds())
		case http.StatusNotModified:
			atomic.AddInt64(&res.FetchNotMod, 1)
			res.FetchLatency.Observe(time.Since(start.Add(ev.due)).Seconds())
		default:
			atomic.AddInt64(&res.FetchErrs, 1)
		}
	}
}

// VerifyMetrics scrapes nodeURL's /metrics route, validates it as
// Prometheus text exposition, and checks that every family in want is
// present. It is p2bload's -check-metrics mode and the CI exposition
// check.
func VerifyMetrics(client *http.Client, nodeURL string, want []string) error {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	resp, err := client.Get(nodeURL + "/metrics")
	if err != nil {
		return fmt.Errorf("loadgen: scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		return fmt.Errorf("loadgen: /metrics Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	fams, err := metrics.CheckExposition(resp.Body)
	if err != nil {
		return fmt.Errorf("loadgen: invalid exposition: %w", err)
	}
	var missing []string
	for _, f := range want {
		if !fams[f] {
			missing = append(missing, f)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("loadgen: exposition is missing families %v", missing)
	}
	return nil
}

// NodeMetricFamilies is the family set a fully instrumented durable
// p2bnode must expose — the list -check-metrics and the CI load-slo job
// verify.
var NodeMetricFamilies = []string{
	"p2b_http_requests_total",
	"p2b_http_request_duration_seconds",
	"p2b_http_request_body_bytes",
	"p2b_shuffler_received_total",
	"p2b_shuffler_forwarded_total",
	"p2b_shuffler_batch_size",
	"p2b_server_tuples_delivered_total",
	"p2b_model_version",
	"p2b_snapshot_cache_hits_total",
	"p2b_model_payload_hits_total",
	"p2b_model_not_modified_total",
}
