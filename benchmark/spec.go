package main

import "time"

// Node shapes shared by the three ingest workloads. Their bodies carry 200
// reports against a 256-tuple shuffler batch, so request boundaries and
// batch cuts never align and every request exercises both the "append
// only" and the "append and cut" paths.
const (
	ingestK       = 64
	ingestArms    = 8
	modelD        = 10
	threshold     = 4
	shufflerBatch = 256
	distinctBody  = 512
	devicePool    = 10000
	probeCodes    = 16 // the last probeCodes codes of the space are reserved for freshness probes
	peerToken     = "bench-token"
	peerSync      = 250 * time.Millisecond
	digestSync    = 2 * time.Second
	ckptInterval  = 5 * time.Second
)

// probePeriod spaces the freshness probes. It is deliberately coprime (in
// milliseconds) with the 250ms peer-sync timer: a period that divides the
// timer samples only a handful of timer phases, and the median visibility
// latency then depends on the arbitrary phase between the analyzer's boot
// and the schedule's start.
const probePeriod = 103 * time.Millisecond

// workload is one traffic mix plus the topology it runs against. All rates
// are constants: the open loop never adapts to what the node absorbs.
type workload struct {
	name string
	why  string

	fleet       bool   // 2 durable relays -> 2 peered durable analyzers (else one combined durable node)
	k, arms, d  int    // model shapes the nodes are started with
	walSync     string // p2bnode -wal-sync value
	bodyReports int    // reports per POST body

	// Phase A (closed loop): every worker cycles through a mix of mixLen
	// operations of which mixPosts are report POSTs and the rest model GETs.
	mixLen, mixPosts int
	// Phase B (open loop): fixed schedules in operations per second.
	postRate, fetchRate float64
	// deviceMix selects the device-fleet fetch mix (kinds, encodings, cold
	// versus conditional) instead of the single conditional binary tabular
	// observer stream.
	deviceMix bool

	preload   int // bodies posted during set-up, before the first model GET
	tail      int // WAL records appended between the forced checkpoint and the kill
	traceOps  int // report POSTs of the traced replica run; see traceCounts for the fetches and probes
	setupRuns int // how often set-up is repeated; the run reports the median
}

var workloads = []workload{
	{
		name: "ingest_strict",
		why:  "one durable node, fsync per append (-wal-sync 0): fsync dominates, WAL group commit must show here; proves acked reports survive kill -9",
		k:    ingestK, arms: ingestArms, d: modelD, walSync: "0", bodyReports: 200,
		mixLen: 32, mixPosts: 31,
		postRate: 750, fetchRate: 500,
		tail: 2000, traceOps: 4000, setupRuns: 9,
	},
	{
		name: "ingest_interval",
		why:  "same node, -wal-sync 25ms: one write() per chunk, so decode, admission, shuffler lock, cut and shard Deliver dominate; group commit should not move it",
		k:    ingestK, arms: ingestArms, d: modelD, walSync: "25ms", bodyReports: 200,
		mixLen: 32, mixPosts: 31,
		postRate: 2000, fetchRate: 500,
		tail: 4000, traceOps: 4000, setupRuns: 9,
	},
	{
		name:  "fleet_relay",
		why:   "2 durable relays feeding 2 peered analyzers: forward round trip, cursor fsync, /peer/ingest WAL and peer merge dominate; times report to model-visible at the peer analyzer",
		fleet: true,
		k:     ingestK, arms: ingestArms, d: modelD, walSync: "25ms", bodyReports: 200,
		mixLen: 32, mixPosts: 31,
		postRate: 700, fetchRate: 500,
		tail: 1000, traceOps: 4000, setupRuns: 5,
	},
	{
		name: "model_sync",
		why:  "one durable node at default shapes (k=1024, 20 arms, 328KB tabular payload), 12 device fetches per 20-report POST: snapshot build, payload encode and cache under version churn",
		k:    1024, arms: 20, d: modelD, walSync: "25ms", bodyReports: 20,
		mixLen: 13, mixPosts: 1,
		postRate: 110, fetchRate: 1320,
		deviceMix: true,
		preload:   1000, tail: 1000, traceOps: 400, setupRuns: 5,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// probeBase is the first reserved probe code of w's code space.
func (w workload) probeBase() int { return w.k - probeCodes }

// metricSpec is one row of BENCHMARK.json. Bound is zero for per-layer
// metrics, which carry no regression bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the fleet sees. Every workload
// reports every one of them (the driver's contract), so each is defined on
// all four topologies; README.md says what each means where. The bounds
// are all the contract's maximum: on the 2-vCPU sandbox this was sized on,
// raw single-thread CPU speed alone drifts by a tenth from minute to
// minute, and the A/A spreads in README.md leave no room for less.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"reports_per_s", "1/s", "higher", 0.25},
	{"report_p50_ms", "ms", "lower", 0.25},
	{"fetches_per_s", "1/s", "higher", 0.25},
	{"fetch_p50_ms", "ms", "lower", 0.25},
	{"visible_p50_ms", "ms", "lower", 0.25},
	{"visible_p90_ms", "ms", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
}

// ledgerStages are the single-layer micro measurements of the stage ledger,
// in pipeline order. Each yields <stage>.ns_per_op and <stage>.allocs_per_op.
var ledgerStages = []string{
	"transport.frame_decode",
	"httpapi.reports_handler",
	"shuffler.submit_cut",
	"persist.wal_append_sync0",
	"persist.wal_append_nosync",
	"persist.cursor_append",
	"persist.checkpoint",
	"server.deliver",
	"server.deliver_peer",
	"server.export_state",
	"server.merge_peer",
	"server.tabular_build",
	"server.linucb_build",
	"server.snapshot_hit",
	"transport.tabular_encode",
	"transport.linear_encode",
	"transport.model_decode",
	"httpapi.model_handler_hit",
	"httpapi.model_handler_304",
	"topology.forward_roundtrip",
	"agent.report",
	"agent.select_observe",
}

// traceSpans are the span names of the traced replica run, root first. Each
// yields trace.<span>.calls and trace.<span>.share.
var traceSpans = []string{
	"loadgen.wire",
	"httpapi.reports",
	"persist.submit",
	"persist.wal_append",
	"persist.wal_fsync",
	"shuffler.cut",
	"server.deliver",
	"topology.forward",
	"persist.cursor_sync",
	"httpapi.peer_ingest",
	"httpapi.model",
}

// nodeCounters are deltas scraped from the real nodes over phases A and B.
var nodeCounters = []metricSpec{
	{"node.wal_appends", "count", "lower", 0},
	{"node.wal_fsyncs", "count", "lower", 0},
	{"node.fsyncs_per_kreport", "1/kreport", "lower", 0},
	{"node.wal_append_ms_total", "ms", "lower", 0},
	{"node.wal_fsync_ms_total", "ms", "lower", 0},
	{"node.wal_bytes_per_report", "B", "lower", 0},
	{"node.checkpoints", "count", "lower", 0},
	{"node.checkpoint_ms_total", "ms", "lower", 0},
	{"node.shuffler_batches", "count", "higher", 0},
	{"node.kept_share", "share", "higher", 0},
	{"node.forward_batches", "count", "higher", 0},
	{"node.forward_retries", "count", "lower", 0},
	{"node.forward_duplicates", "count", "lower", 0},
	{"node.peer_pushes", "count", "lower", 0},
	{"node.peer_merges_applied", "count", "lower", 0},
	{"node.peer_merges_rejected", "count", "lower", 0},
	{"node.snapshot_builds", "count", "lower", 0},
	{"node.snapshot_hit_share", "share", "higher", 0},
	{"node.payload_builds", "count", "lower", 0},
	{"node.payload_hit_share", "share", "higher", 0},
	{"node.not_modified_share", "share", "higher", 0},
	{"node.shed_429", "count", "lower", 0},
	{"node.shard_contention", "count", "lower", 0},
	{"node.cpu_s", "s", "lower", 0},
	{"node.peak_rss_mb", "MB", "lower", 0},
	{"node.visible_local_p50_ms", "ms", "lower", 0},
}

// generatorMetrics describe the benchmark's own generator and the machine.
var generatorMetrics = []metricSpec{
	// The open loop's tail latencies are measured and reported, but not
	// gated: their A/A spread on the sandbox is 20-70%, several times the
	// largest bound the contract allows.
	{"report_p99_ms", "ms", "lower", 0},
	{"fetch_p99_ms", "ms", "lower", 0},
	{"loadgen.lateness_p99_ms", "ms", "lower", 0},
	{"loadgen.missed", "count", "lower", 0},
	{"loadgen.cpu_s", "s", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"env.fsync_probe_us", "us", "lower", 0},
}

// perLayer returns all per-layer metric rows in reporting order.
func perLayer() []metricSpec {
	var out []metricSpec
	for _, s := range ledgerStages {
		out = append(out,
			metricSpec{s + ".ns_per_op", "ns", "lower", 0},
			metricSpec{s + ".allocs_per_op", "count", "lower", 0})
	}
	for _, s := range traceSpans {
		out = append(out,
			metricSpec{"trace." + s + ".calls", "count", "lower", 0},
			metricSpec{"trace." + s + ".share", "share", "lower", 0})
	}
	out = append(out, nodeCounters...)
	return append(out, generatorMetrics...)
}

// phases splits a run's measured seconds: a tenth warms caches and
// connections, three tenths run the closed loop (four windows) and six
// tenths the open loop (half-second windows).
type phases struct {
	warm, closed, open time.Duration
}

const (
	closedWindows = 4
	openWindow    = 500 * time.Millisecond
	// runSeconds is BENCHMARK.json's run_seconds: with it a half-second
	// open-loop window holds >= 200 samples (two beyond a p99) of every
	// stream a p99 is taken from, and 92 runs fit the driver's time cap.
	runSeconds = 20
	// smokeSeconds is the shortest run that still works: a 2s open loop,
	// of which the first second carries probes the second can resolve.
	smokeSeconds = 3.4
)

// openWindows is how many whole windows the open loop's phase holds.
func (p phases) openWindows() int {
	if n := int(p.open / openWindow); n > 1 {
		return n
	}
	return 1
}

func splitSeconds(seconds float64) phases {
	s := time.Duration(seconds * float64(time.Second))
	return phases{warm: s / 10, closed: s * 3 / 10, open: s * 6 / 10}
}
