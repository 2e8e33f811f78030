// Command p2bagent simulates a fleet of P2B devices against a running
// p2bnode, driving the same public p2b/agent SDK a real deployment embeds:
// every simulated user is an agent.Agent that warm-starts from the node's
// versioned model route, runs its local interactions on the synthetic
// preference benchmark, and participates in randomized reporting through
// the node's shuffler surface.
//
// Model sync is versioned: the fleet shares one agent.HTTPSource, so a
// thousand warm starts cost one model payload plus conditional re-fetches
// (If-None-Match against the node's model-version ETag) that come back as
// 304s while the global model is unchanged. Reports travel over the
// batched binary wire protocol through a shared agent.HTTPTransport.
//
// On startup the command preflights the node: /healthz must answer ok, and
// the -d/-arms/-k flags must match the node's model shapes — a mismatch
// fails fast with a clear error instead of silently producing
// shape-mismatched reports the server would drop.
//
// Usage (with `p2bnode -addr :8080 -k 64 -arms 20 -d 10 -threshold 4` running):
//
//	p2bagent -node http://localhost:8080 -users 2000 -k 64 -arms 20 -d 10
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"p2b/agent"
	"p2b/internal/encoding"
	"p2b/internal/metrics"
	"p2b/internal/privacy"
	"p2b/internal/rng"
	"p2b/internal/synthetic"
	"p2b/internal/topology"
)

// options is the parsed command line. OPERATIONS.md documents the same flag
// set; a test holds the two together.
type options struct {
	node, board, metricsAddr    string
	users, t, d, arms, k, every int
	p                           float64
	seed                        uint64
	transport                   agent.HTTPTransportOptions
	source                      agent.HTTPSourceOptions
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.node, "node", "http://localhost:8080", "base URL of the p2bnode (ignored with -registry)")
	fs.StringVar(&o.board, "registry", "", "bulletin-board URL to discover a report target and a model server from instead of -node (see cmd/p2bboard)")
	fs.IntVar(&o.users, "users", 1000, "number of simulated devices")
	fs.IntVar(&o.t, "T", 10, "local interactions per device")
	fs.Float64Var(&o.p, "p", 0.5, "participation probability")
	fs.IntVar(&o.d, "d", 10, "context dimension (must match the node; preflighted)")
	fs.IntVar(&o.arms, "arms", 20, "number of actions (must match the node; preflighted)")
	fs.IntVar(&o.k, "k", 64, "encoder code-space size (must match the node; preflighted)")
	fs.Uint64Var(&o.seed, "seed", 1, "root random seed (also the discovery pick seed)")
	fs.IntVar(&o.every, "report-every", 500, "progress line frequency in users")
	fs.IntVar(&o.transport.MaxBatch, "max-batch", 256, "reports per batch POST")
	fs.DurationVar(&o.transport.MaxAge, "max-age", 250*time.Millisecond, "max report age before a partial batch ships")
	fs.IntVar(&o.transport.MaxInFlight, "inflight", 4, "concurrently outstanding batch POSTs (1 = deterministic delivery order, what chaos bit-exactness runs use)")
	fs.IntVar(&o.transport.MaxRetries, "retries", 3, "per-batch retry budget for transient failures (429/503/408/5xx, resets)")
	fs.DurationVar(&o.transport.RetryBase, "retry-base", 50*time.Millisecond, "first retry backoff delay (doubles per attempt, jittered)")
	fs.DurationVar(&o.source.Refresh, "model-refresh", 2*time.Second, "background model refresh interval (0 disables; unchanged models cost a 304)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve the fleet's client-side telemetry as Prometheus text exposition on this address (e.g. :9100; empty = off)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	o.transport.Seed, o.source.Seed = o.seed, o.seed // one root seed drives every jitter stream

	// Fleet discovery: reports go through the SDK's FailoverTransport,
	// which owns the board fetch, picks a live report target
	// deterministically from the seed (so a fleet launcher with spread
	// seeds spreads its load across the relay tier) and — when that
	// target's circuit breaker trips mid-run — re-discovers and fails over
	// to a surviving relay without restarting the fleet. Model syncs may
	// land on a different process: a relay accepts reports but holds no
	// model, so model traffic picks from the analyzers.
	modelNode := o.node
	var tr reportTransport
	if o.board != "" {
		var ft *agent.FailoverTransport
		err := withRetries(10, func() error {
			doc, err := topology.FetchDocument(o.board)
			if err != nil {
				return err
			}
			models, err := topology.Pick(doc.Analyzers(), o.seed)
			if err != nil {
				return fmt.Errorf("no model-serving node: %w", err)
			}
			ft, err = agent.NewFailoverTransport(o.board, agent.FailoverOptions{
				Seed:      o.seed,
				Transport: o.transport,
				Logf:      log.Printf,
			})
			if err != nil {
				return err
			}
			modelNode = models.URL
			st := ft.Status()
			o.node = st.URL
			fmt.Printf("p2bagent: board %s assigned reports -> %q (%s), models -> %s %q (%s)\n",
				o.board, st.Node, st.URL, models.Role, models.Name, models.URL)
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "p2bagent: discovering the fleet on %s: %v\n", o.board, err)
			os.Exit(1)
		}
		tr = ft
	} else {
		tr = agent.NewHTTPTransport(o.node, o.transport)
	}

	root := rng.New(o.seed)
	env, err := synthetic.New(synthetic.Config{D: o.d, Arms: o.arms, Beta: 0.1, Sigma: 0.1}, root.Split("env"))
	if err != nil {
		log.Fatal(err)
	}
	// The encoder is fitted locally from the public context distribution,
	// mirroring a real deployment where the encoder ships inside the app.
	enc, err := encoding.FitKMeans(
		env.SampleContexts(4096, root.Split("encoder-sample")),
		o.k, 50, 1e-6, root.Split("encoder-fit"))
	if err != nil {
		log.Fatal(err)
	}

	src := agent.NewHTTPSource(modelNode, o.source)
	defer src.Close()
	// Preflight and the first model fetch ride plain GETs with no retry
	// layer of their own; behind a chaos proxy (or against a node still
	// coming up) a transient failure here should not kill the fleet.
	if err := withRetries(10, func() error { return preflight(o.node, o.d, o.arms, o.k) }); err != nil {
		fmt.Fprintf(os.Stderr, "p2bagent: preflight failed: %v\n", err)
		os.Exit(1)
	}
	if err := withRetries(10, func() error { return src.Refresh(agent.ModelTabular) }); err != nil {
		fmt.Fprintf(os.Stderr, "p2bagent: warm-start model fetch failed: %v\n", err)
		os.Exit(1)
	}

	if o.metricsAddr != "" {
		go serveMetrics(o.metricsAddr, tr, src)
	}

	fmt.Printf("p2bagent: %d devices -> %s (epsilon per disclosure %.4f)\n",
		o.users, o.node, privacy.Epsilon(o.p))

	var totalReward float64
	var interactions, submitted int64
	start := time.Now()
	for u := 0; u < o.users; u++ {
		ur := root.SplitIndex("user", u)
		device := fmt.Sprintf("device-%08d", u)
		ag, err := agent.New(agent.Config{
			Policy:    agent.PolicyTabular,
			P:         o.p,
			Arms:      o.arms,
			Encoder:   enc,
			Source:    src,
			Transport: tr,
			Rand:      ur,
			ReportMeta: func(int) agent.Metadata {
				return agent.Metadata{DeviceID: device, SentAt: time.Now().UnixNano()}
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "p2bagent: building device agent: %v\n", err)
			os.Exit(1)
		}
		session := env.User(u, ur.Split("session"))
		for step := 0; step < o.t; step++ {
			x := session.Context(step)
			a := ag.Select(x)
			reward := session.Reward(step, a)
			ag.Observe(a, reward)
			totalReward += reward
			interactions++
		}
		n, err := ag.Finish()
		if err != nil {
			fmt.Fprintf(os.Stderr, "p2bagent: report failed: %v\n", err)
			os.Exit(1)
		}
		submitted += int64(n)
		if o.every > 0 && (u+1)%o.every == 0 {
			fmt.Printf("  %6d devices done, mean reward %.5f, %d tuples submitted\n",
				u+1, totalReward/float64(interactions), submitted)
		}
	}
	if err := tr.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "p2bagent: settling batches: %v\n", err)
		os.Exit(1)
	}
	if err := tr.FlushNode(); err != nil {
		fmt.Fprintf(os.Stderr, "p2bagent: flush failed: %v\n", err)
		os.Exit(1)
	}
	st := src.Stats()
	fmt.Printf("done in %v: %d devices, mean reward %.5f, %d tuples submitted (rate %.3f)\n",
		time.Since(start).Round(time.Millisecond), o.users,
		totalReward/float64(interactions), submitted, float64(submitted)/float64(o.users))
	fmt.Printf("model sync: %d fetches, %d not-modified (304), %d refreshed\n",
		st.Fetches, st.NotModified, st.Refreshed)
	bst := tr.Stats()
	fmt.Printf("delivery: %d batches, %d retries, %d dropped batches, %d dropped reports\n",
		bst.Batches, bst.Retries, bst.DroppedBatches, bst.DroppedReports)
}

// serveMetrics exposes the fleet's client-side telemetry — batch delivery,
// retry backoff, and model-sync counters — as GET /metrics. Every family is
// a Func collector sampling the same Stats() the end-of-run summary prints,
// so a scrape mid-run costs a few atomic loads and two mutexes, never a
// simulation stall.
func serveMetrics(addr string, tr reportTransport, src *agent.HTTPSource) {
	reg := metrics.NewRegistry()
	reg.CounterFunc("p2b_agent_reports_total", "",
		"Reports handed to the transport.",
		func() float64 { return float64(tr.Stats().Reported) })
	reg.CounterFunc("p2b_agent_batches_total", "",
		"Batch POSTs delivered.",
		func() float64 { return float64(tr.Stats().Batches) })
	reg.CounterFunc("p2b_agent_retries_total", "",
		"Batch delivery retries after transient failures.",
		func() float64 { return float64(tr.Stats().Retries) })
	reg.CounterFunc("p2b_agent_backoff_waits_total", "",
		"Retry backoff sleeps taken.",
		func() float64 { return float64(tr.Stats().BackoffWaits) })
	reg.CounterFunc("p2b_agent_backoff_seconds_total", "",
		"Total time spent sleeping between retries.",
		func() float64 { return float64(tr.Stats().BackoffNanos) / 1e9 })
	reg.CounterFunc("p2b_agent_dropped_batches_total", "",
		"Batches abandoned after exhausting their retry budget.",
		func() float64 { return float64(tr.Stats().DroppedBatches) })
	reg.CounterFunc("p2b_agent_model_fetches_total", "",
		"Model GETs issued by the shared source.",
		func() float64 { return float64(src.Stats().Fetches) })
	reg.CounterFunc("p2b_agent_model_not_modified_total", "",
		"Model fetches answered 304 Not Modified.",
		func() float64 { return float64(src.Stats().NotModified) })
	reg.CounterFunc("p2b_agent_model_refreshed_total", "",
		"Model fetches that replaced the cached model.",
		func() float64 { return float64(src.Stats().Refreshed) })
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metrics.Handler(reg))
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	if err := srv.ListenAndServe(); err != nil {
		log.Printf("p2bagent: metrics listener: %v", err)
	}
}

// reportTransport is the method set the fleet drives on its report path,
// satisfied by both the plain HTTPTransport (-node) and the board-driven
// FailoverTransport (-registry).
type reportTransport interface {
	agent.Transport
	FlushNode() error
	Close() error
	Stats() agent.BatchStats
}

// withRetries runs fn up to attempts times, 200ms apart.
func withRetries(attempts int, fn func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = fn(); err == nil {
			return nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return err
}

// preflight fails fast when the node is unreachable, unhealthy, or shaped
// differently from the fleet's flags. One /healthz probe carries the
// node's model shapes, so no model payload is downloaded before the fleet
// actually needs one.
func preflight(node string, d, arms, k int) error {
	h, err := agent.FetchHealth(node)
	if err != nil {
		return err
	}
	if h.Model.K != k {
		return fmt.Errorf("-k %d does not match the node's code space K=%d", k, h.Model.K)
	}
	if h.Model.Arms != arms {
		return fmt.Errorf("-arms %d does not match the node's action count Arms=%d", arms, h.Model.Arms)
	}
	if h.Model.D != d {
		return fmt.Errorf("-d %d does not match the node's context dimension D=%d", d, h.Model.D)
	}
	return nil
}
