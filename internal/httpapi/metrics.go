// Node telemetry: the /metrics surface and the per-route HTTP
// instrumentation behind it.
//
// The design rule is one source of truth per counter. Everything /metrics
// exports about overload, degradation, the model read path, the snapshot
// caches and the shuffler pipeline is a scrape-time Func collector reading
// the very same atomics and closures that /healthz, /shuffler/stats and
// /server/stats serialize to JSON — so the Prometheus view and the JSON
// stats views cannot drift apart. Only genuinely per-event data (request
// latency, body sizes, batch-size distributions, WAL timings) lives in
// push-style instruments, and those are nil-safe so un-instrumented nodes
// pay nothing.
package httpapi

import (
	"net/http"
	"sync"
	"time"

	"p2b/internal/metrics"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
)

// Status classes for p2b_http_requests_total. The two shed statuses get
// their own class (and are excluded from 4xx/5xx): 429s and 503s are the
// node's overload signals, and burying them in the generic classes would
// hide exactly the series an operator alerts on.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx", "429", "503"}

// classIndex maps an HTTP status to its statusClasses slot.
//
//p2b:hotpath
func classIndex(status int) int {
	switch {
	case status == http.StatusTooManyRequests:
		return 4
	case status == http.StatusServiceUnavailable:
		return 5
	case status >= 500:
		return 3
	case status >= 400:
		return 2
	case status >= 300:
		return 1
	default:
		return 0
	}
}

// routeInstruments is the pre-registered instrument set of one route: the
// wrap middleware only ever bumps existing series, so a request can never
// mint new metric cardinality.
type routeInstruments struct {
	requests [len(statusClasses)]*metrics.Counter
	duration *metrics.Histogram
	bodySize *metrics.Histogram // nil on routes without ingest bodies
}

// nodeMetrics owns the node handler's telemetry. A nil *nodeMetrics (node
// built without a registry) turns every hook into the identity, matching
// the nil-*Admission idiom.
type nodeMetrics struct {
	routes map[string]*routeInstruments
}

// instrumentedRoutes lists the wrapped routes and whether their request
// bodies are worth a size histogram.
var instrumentedRoutes = []struct {
	name string
	body bool
}{
	{"report", true},
	{"reports", true},
	{"flush", false},
	{"model", false},
	{"healthz", false},
	{"peer_ingest", true},
	{"peer_merge", true},
	{"peer_digest", false},
	{"peer_contrib", false},
}

// newRouteInstruments registers the per-route HTTP families. Every role
// registers the full route set — unused routes just stay at zero, and a
// fixed set means dashboards never chase role-dependent series names.
func newRouteInstruments(reg *metrics.Registry) map[string]*routeInstruments {
	routes := map[string]*routeInstruments{}
	for _, r := range instrumentedRoutes {
		ri := &routeInstruments{
			duration: reg.Histogram("p2b_http_request_duration_seconds",
				`route="`+r.name+`"`,
				"HTTP request latency by route.", metrics.DurationBuckets()),
		}
		for i, class := range statusClasses {
			ri.requests[i] = reg.Counter("p2b_http_requests_total",
				`route="`+r.name+`",class="`+class+`"`,
				"HTTP requests by route and status class (429/503 sheds are their own classes).")
		}
		if r.body {
			ri.bodySize = reg.Histogram("p2b_http_request_body_bytes",
				`route="`+r.name+`"`,
				"Declared request body size by ingest route.", metrics.SizeBuckets())
		}
		routes[r.name] = ri
	}
	return routes
}

// registerShufflerMetrics registers the shuffler pipeline families, the
// same on every role.
func registerShufflerMetrics(reg *metrics.Registry, shuf *shuffler.Shuffler) {
	reg.CounterFunc("p2b_shuffler_received_total", "",
		"Envelopes submitted to the shuffler.",
		func() float64 { return float64(shuf.Stats().Received) })
	reg.CounterFunc("p2b_shuffler_forwarded_total", "",
		"Tuples delivered to the sink after shuffling and thresholding.",
		func() float64 { return float64(shuf.Stats().Forwarded) })
	reg.CounterFunc("p2b_shuffler_dropped_total", "",
		"Tuples removed by crowd-blending thresholding.",
		func() float64 { return float64(shuf.Stats().Dropped) })
	reg.CounterFunc("p2b_shuffler_batches_total", "",
		"Privacy batches processed.",
		func() float64 { return float64(shuf.Stats().Batches) })
	reg.GaugeFunc("p2b_shuffler_pending", "",
		"Tuples buffered between admission and the next privacy batch.",
		func() float64 { return float64(shuf.Pending()) })
	shuf.SetMetrics(shuffler.Metrics{
		BatchSizes: reg.Histogram("p2b_shuffler_batch_size", "",
			"Tuples per processed privacy batch.", metrics.ExpBuckets(1, 2, 16)),
		SizeBatches: reg.Counter("p2b_shuffler_cuts_total", `reason="size"`,
			"Privacy batches cut by reason: the size trigger or an explicit flush."),
		FlushBatches: reg.Counter("p2b_shuffler_cuts_total", `reason="flush"`,
			"Privacy batches cut by reason: the size trigger or an explicit flush."),
	})
}

// registerOverloadMetrics registers the admission-gate and degrade
// families against the same closure the JSON surfaces read.
func registerOverloadMetrics(reg *metrics.Registry, overload func() OverloadStats) {
	reg.GaugeFunc("p2b_ingest_inflight_requests", "",
		"Admitted ingest requests currently executing.",
		func() float64 { return float64(overload().InFlight) })
	reg.GaugeFunc("p2b_ingest_inflight_bytes", "",
		"Summed declared body bytes of in-flight ingest requests.",
		func() float64 { return float64(overload().InFlightBytes) })
	reg.CounterFunc("p2b_ingest_admitted_total", "",
		"Lifetime admitted ingest requests.",
		func() float64 { return float64(overload().Admitted) })
	reg.CounterFunc("p2b_ingest_shed_total", "",
		"Lifetime 429s issued at the admission gate.",
		func() float64 { return float64(overload().Shed) })
	reg.GaugeFunc("p2b_wal_degraded", "",
		"1 while report admission is bypassing a failing write-ahead log.",
		func() float64 {
			if overload().Degraded {
				return 1
			}
			return 0
		})
	reg.CounterFunc("p2b_wal_degraded_ops_total", "",
		"Ingest operations accepted without durability under the degrade policy.",
		func() float64 { return float64(overload().DegradedOps) })
}

// newNodeMetrics registers the node's metric families on reg and wires the
// push-style instruments into the shuffler. Like the /healthz sections,
// which families exist is which components the node runs: sh is nil on a
// node without a server, opts.Forward and opts.Peer are nil without a
// forwarder or a peer surface. overload is the same closure /healthz and
// the stats routes read; nil means the node is unbounded and
// non-degradable, and the overload families are omitted (exactly like the
// JSON sections). opts.Board is the registration-health closure the
// /healthz "board" section serves; nil (no bulletin board) omits its
// families.
func newNodeMetrics(reg *metrics.Registry, shuf *shuffler.Shuffler, sh *serverHandler, overload func() OverloadStats, opts *NodeOptions) *nodeMetrics {
	nm := &nodeMetrics{routes: newRouteInstruments(reg)}

	// Shuffler pipeline: counters mirror the mutex-guarded Stats that
	// GET /shuffler/stats serves; the batch-size distribution and cut
	// reasons are push-style (they exist only at process time).
	registerShufflerMetrics(reg, shuf)
	if overload != nil {
		registerOverloadMetrics(reg, overload)
	}
	if opts.Board != nil {
		registerBoardMetrics(reg, opts.Board)
	}
	if fwd := opts.Forward; fwd != nil {
		reg.CounterFunc("p2b_forward_batches_total", "",
			"Privacy batches forwarded downstream (including duplicate-acked).",
			func() float64 { return float64(fwd.Stats().Batches) })
		reg.CounterFunc("p2b_forward_tuples_total", "",
			"Tuples inside forwarded batches.",
			func() float64 { return float64(fwd.Stats().Tuples) })
		reg.CounterFunc("p2b_forward_duplicates_total", "",
			"Forwarded batches the analyzer acked as already applied.",
			func() float64 { return float64(fwd.Stats().Duplicates) })
		reg.CounterFunc("p2b_forward_retries_total", "",
			"Forward send attempts beyond the first.",
			func() float64 { return float64(fwd.Stats().Retries) })
		reg.CounterFunc("p2b_forward_dropped_total", "",
			"Batches abandoned after the retry budget; alert on any growth.",
			func() float64 { return float64(fwd.Stats().Dropped) })
	}
	if sh == nil {
		return nm
	}
	srv, peer := sh.s, opts.Peer

	// Server ingestion and read path: all lock-free atomic mirrors, so a
	// scrape never serializes against Deliver.
	reg.CounterFunc("p2b_server_tuples_delivered_total", "",
		"Tuples folded into the global model through the privacy pipeline.",
		func() float64 { d, _ := srv.IngestCounters(); return float64(d) })
	reg.CounterFunc("p2b_server_shard_contention_total", "",
		"Ingestion calls displaced from their affinity shard by lock contention.",
		func() float64 { _, c := srv.IngestCounters(); return float64(c) })
	reg.GaugeFunc("p2b_model_version", "",
		"Monotonic model version (increases on every ingestion).",
		func() float64 { return float64(srv.ModelVersion()) })
	reg.CounterFunc("p2b_snapshot_cache_hits_total", "",
		"Model snapshot reads answered from the shared per-version build.",
		func() float64 { h, _ := srv.SnapshotCacheStats(); return float64(h) })
	reg.CounterFunc("p2b_snapshot_cache_builds_total", "",
		"Model snapshot rebuilds (model version advanced).",
		func() float64 { _, b := srv.SnapshotCacheStats(); return float64(b) })

	// Encoded-payload cache: the same atomics ReadStats snapshots for
	// /healthz and /server/stats. not_modified over (hits + builds +
	// not_modified) is the fleet's 304 ratio.
	reg.CounterFunc("p2b_model_payload_hits_total", "",
		"Model responses served from cached encoded bytes.",
		func() float64 { return float64(sh.payloadHits.Load()) })
	reg.CounterFunc("p2b_model_payload_builds_total", "",
		"Model payload rebuilds (snapshot fetch + encode).",
		func() float64 { return float64(sh.payloadBuilds.Load()) })
	reg.CounterFunc("p2b_model_not_modified_total", "",
		"Conditional model fetches answered 304 Not Modified.",
		func() float64 { return float64(sh.notModified.Load()) })

	if peer != nil {
		// Replication counters: the same atomics PeerStatus snapshots for
		// the JSON surfaces. Aggregate totals only — per-origin positions
		// stay in the JSON views so scrape cardinality is fixed no matter
		// how many relays and peers the fleet runs.
		reg.CounterFunc("p2b_peer_merges_applied_total", "",
			"Peer state updates stored or replaced.",
			func() float64 { a, _, _, _ := srv.PeerCounters(); return float64(a) })
		reg.CounterFunc("p2b_peer_merges_rejected_total", "",
			"Stale or duplicate peer state updates ignored.",
			func() float64 { _, r, _, _ := srv.PeerCounters(); return float64(r) })
		reg.CounterFunc("p2b_peer_relay_batches_total", "",
			"Relay-forwarded batches folded into the local model.",
			func() float64 { _, _, b, _ := srv.PeerCounters(); return float64(b) })
		reg.CounterFunc("p2b_peer_relay_duplicates_total", "",
			"Relay batches suppressed by the (epoch, seq) duplicate guard.",
			func() float64 { _, _, _, d := srv.PeerCounters(); return float64(d) })
		if peer.Sync != nil {
			// Outbound anti-entropy health, from the same Status() the
			// JSON surfaces serialize. Lag is the age of the OLDEST peer's
			// last successful push — the alerting-relevant worst case.
			syncTotal := func(field func(topology.SyncStatus) int64) float64 {
				var n int64
				for _, st := range peer.Sync() {
					n += field(st)
				}
				return float64(n)
			}
			reg.CounterFunc("p2b_peer_sync_pushes_total", "",
				"Successful outbound peer state pushes, summed over peers.",
				func() float64 { return syncTotal(func(st topology.SyncStatus) int64 { return st.Pushes }) })
			reg.CounterFunc("p2b_peer_sync_errors_total", "",
				"Failed outbound peer state pushes, summed over peers.",
				func() float64 { return syncTotal(func(st topology.SyncStatus) int64 { return st.Errors }) })
			reg.CounterFunc("p2b_peer_sync_triggered_total", "",
				"Push rounds started by a local state change rather than the repair ticker, summed over peers.",
				func() float64 { return syncTotal(func(st topology.SyncStatus) int64 { return st.Triggered }) })
			reg.GaugeFunc("p2b_peer_sync_last_round_seconds", "",
				"Wall time of the most recent background push round (export, encode, POST and merge at every peer).",
				func() float64 { return peerSyncLastRound(peer.Sync()) })
			reg.GaugeFunc("p2b_peer_sync_max_lag_seconds", "",
				"Age of the oldest peer's last successful state push (-1 until every peer has been reached once).",
				func() float64 { return peerSyncMaxLag(peer.Sync(), time.Now()) })
			// Digest-round (pull) health, from the same Status() snapshot.
			// All zero on a push-only node.
			reg.CounterFunc("p2b_peer_sync_pulls_total", "",
				"Completed digest rounds, summed over peers.",
				func() float64 { return syncTotal(func(st topology.SyncStatus) int64 { return st.Pulls }) })
			reg.CounterFunc("p2b_peer_sync_pull_errors_total", "",
				"Failed digest rounds (digest fetch, contrib fetch or apply), summed over peers.",
				func() float64 { return syncTotal(func(st topology.SyncStatus) int64 { return st.PullErrors }) })
			reg.CounterFunc("p2b_peer_sync_fetched_total", "",
				"Contributions fetched and applied via digest rounds, summed over peers.",
				func() float64 { return syncTotal(func(st topology.SyncStatus) int64 { return st.Fetched }) })
		}
	}
	return nm
}

// peerSyncLastRound reads the loop's last push-round time, in seconds. The
// loop stamps each round onto every peer's status, so the entries agree.
func peerSyncLastRound(sts []topology.SyncStatus) float64 {
	ms := 0.0
	for _, st := range sts {
		ms = max(ms, st.LastRoundMs)
	}
	return ms / 1000
}

// peerSyncMaxLag computes the worst-case peer staleness: the age of the
// least recently synced peer. A peer never reached at all makes the whole
// gauge -1 — "lag unknown" must alert at least as loudly as "lag large".
func peerSyncMaxLag(sts []topology.SyncStatus, now time.Time) float64 {
	lag := 0.0
	for _, st := range sts {
		if st.LastSyncUnixNano == 0 {
			return -1
		}
		if l := now.Sub(time.Unix(0, st.LastSyncUnixNano)).Seconds(); l > lag {
			lag = l
		}
	}
	return lag
}

// registerBoardMetrics registers the bulletin-board registration families
// against the same closure the /healthz "board" section serializes.
// failures == attempts growing together is the alert: the fleet cannot
// discover this node.
func registerBoardMetrics(reg *metrics.Registry, board func() topology.HeartbeatStatus) {
	reg.CounterFunc("p2b_board_register_attempts_total", "",
		"Bulletin-board registrations attempted (startup retries and heartbeats).",
		func() float64 { return float64(board().Attempts) })
	reg.CounterFunc("p2b_board_register_failures_total", "",
		"Bulletin-board registrations the board refused or that never reached it.",
		func() float64 { return float64(board().Failures) })
	reg.GaugeFunc("p2b_board_registered", "",
		"1 once this node has registered on the bulletin board at least once this boot.",
		func() float64 {
			if board().Registered {
				return 1
			}
			return 0
		})
}

// statusRecorder captures the response status for the class counters.
// Unwrap exposes the real writer so http.NewResponseController (the
// admission gate's read-deadline path) still reaches the connection.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// recorders recycles statusRecorders so instrumentation adds no
// per-request allocation.
var recorders = sync.Pool{New: func() any { return &statusRecorder{} }}

// wrap instruments one route handler: request count by status class,
// latency histogram, and (on ingest routes) declared body size. A nil
// receiver is the identity. wrap goes OUTSIDE the admission guard, so shed
// 429s and fail-closed 503s are counted per route like everything else.
func (nm *nodeMetrics) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	if nm == nil {
		return h
	}
	ri := nm.routes[route]
	return func(w http.ResponseWriter, r *http.Request) {
		if ri.bodySize != nil && r.ContentLength >= 0 {
			ri.bodySize.Observe(float64(r.ContentLength))
		}
		rec := recorders.Get().(*statusRecorder)
		rec.ResponseWriter = w
		rec.status = 0
		start := time.Now()
		h(rec, r)
		status := rec.status
		rec.ResponseWriter = nil
		recorders.Put(rec)
		if status == 0 {
			status = http.StatusOK // implicit 200: the handler just wrote
		}
		ri.duration.Observe(time.Since(start).Seconds())
		ri.requests[classIndex(status)].Inc()
	}
}
