// Command p2bnode runs the P2B server-side components as a network
// service: the trusted shuffler and the analyzer server, wired together in
// one process and exposed over HTTP.
//
// The agent SDK POSTs encoded reports to the shuffler surface as binary
// batch streams and GETs model snapshots from the server surface; the
// per-envelope and NDJSON forms are there for curl and the gate scripts:
//
//	POST /shuffler/report   {"meta":{...},"tuple":{"code":5,"action":1,"reward":1}}
//	POST /shuffler/reports  batch stream: length-prefixed binary frames
//	                        (Content-Type application/x-p2b-batch, see
//	                        internal/transport/wire.go) or NDJSON envelopes
//	                        (application/x-ndjson)
//	POST /shuffler/flush
//	GET  /shuffler/stats
//	GET  /server/model      versioned model sync for agent fleets: the
//	                        model version is the ETag, so an If-None-Match
//	                        poll of an unchanged model costs a 304; the
//	                        body is binary (Accept: application/x-p2b-model)
//	                        or JSON; ?kind=tabular|linucb
//	POST /server/raw        (non-private baseline ingestion)
//	GET  /server/stats
//	GET  /healthz           liveness + persistence status
//	GET  /metrics           Prometheus text exposition: per-route request
//	                        counts/latency, shuffler and server pipeline
//	                        counters, overload and WAL telemetry
//	POST /admin/checkpoint  force a checkpoint (with -data-dir only)
//
// # Multi-node topology
//
// -role splits the process into fleet roles (see internal/topology and the
// "Multi-node topology" section of DESIGN.md). A role is which components
// the process runs; internal/node assembles them, and this command is its
// flag surface:
//
//	-role combined  the default: shuffler + analyzer in one process
//	-role relay     shuffler only; finished privacy batches are forwarded
//	                over the P2B1 wire to the analyzer named by -downstream
//	                instead of a local server
//	-role analyzer  full node that additionally expects relay traffic on
//	                POST /peer/ingest and sibling state on POST /peer/merge
//	                (binary P2BS peer updates, as GET /peer/contrib serves)
//
// Analyzers (and combined nodes) push their local model contribution to
// every -peers URL whenever it changes — at once when idle, otherwise
// after a hold-off of 19x the last push's measured time, so pushing
// stays near 5% of wall time at any model shape — and any analyzer can
// serve GET /server/model with the fleet-wide model. The -peer-sync
// interval is the repair path behind that: it retries failed pushes and
// caps the hold-off. On the -digest-sync interval they additionally pull: each round fetches every peer's
// /peer/digest high-water vector and retrieves only the contributions
// this node is missing, so an analyzer that was partitioned away (and
// whose siblings have nothing new to push) still converges on its own
// schedule. -peer-token authenticates the peer routes in both
// directions. With -registry the node announces itself on a p2bboard
// bulletin board so agents can discover it.
//
// # Durability
//
// With -data-dir the node is crash-safe: every accepted report batch is
// appended to a write-ahead log before it enters the shuffler, and
// checkpoints capture the server accumulators, the shuffler's pending
// buffer and its permutation-stream position. On boot the node restores
// the last checkpoint and replays the log tail, truncating a torn final
// record; a kill -9 therefore loses at most the appends not yet fsynced
// (none with -wal-sync 0), and the recovered model is bit-identical to an
// uninterrupted run over the logged input. See internal/persist and the
// durability section of DESIGN.md.
//
// On SIGINT/SIGTERM the node shuts down gracefully, draining in-flight
// requests for at most -drain (see node.Shutdown for the order).
//
// Usage:
//
//	p2bnode -addr :8080 -k 1024 -arms 20 -d 10 -threshold 10 -batch 320 \
//	        -data-dir /var/lib/p2b -checkpoint-interval 1m -wal-sync 100ms
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"p2b/internal/faultinject"
	"p2b/internal/httpapi"
	"p2b/internal/node"
	"p2b/internal/persist"
	"p2b/internal/topology"
)

// options is the parsed command line: node.Config fields are bound to
// their flags directly, and the few flags that need parsing or belong to
// the process rather than the node sit beside it. OPERATIONS.md documents
// the same flag set; a test holds the two together.
type options struct {
	node.Config
	addr, role, walPolicy, peers, faults string
	faultSeed                            uint64
	drain                                time.Duration
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.Server.K, "k", 1024, "code-space size of the tabular model")
	fs.IntVar(&o.Server.Arms, "arms", 20, "number of actions")
	fs.IntVar(&o.Server.D, "d", 10, "raw context dimension (baseline model)")
	fs.Float64Var(&o.Server.Alpha, "alpha", 1, "exploration parameter baked into snapshots")
	fs.IntVar(&o.Shuffler.Threshold, "threshold", 10, "crowd-blending threshold l")
	fs.IntVar(&o.Shuffler.BatchSize, "batch", 0, "shuffler batch size (default 32*threshold)")
	fs.Uint64Var(&o.Server.Seed, "seed", 1, "seed for the shuffler's permutation stream")
	fs.IntVar(&o.Server.Shards, "shards", 0, "server ingestion shards (0 = GOMAXPROCS capped at 16; 1 makes ingestion order fully deterministic)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown drain timeout")

	fs.StringVar(&o.DataDir, "data-dir", "", "directory for WAL + checkpoints (empty = in-memory only, state dies with the process)")
	fs.DurationVar(&o.Persist.CheckpointInterval, "checkpoint-interval", 0, "automatic checkpoint interval (0 = manual via /admin/checkpoint and shutdown)")
	fs.DurationVar(&o.Persist.SyncInterval, "wal-sync", 100*time.Millisecond, "WAL fsync batching interval (0 = fsync every append; strongest durability)")
	fs.BoolVar(&o.Persist.RetainWAL, "wal-retain", false, "keep checkpoint-covered WAL segments instead of pruning (full input stream stays replayable)")
	fs.StringVar(&o.walPolicy, "wal-policy", "fail-closed", "ingest behavior when the WAL refuses a write: fail-closed (503 + Retry-After) or degrade (accept into memory, flag degraded on /healthz)")

	fs.IntVar(&o.Admission.MaxInFlight, "max-inflight", 256, "max concurrently admitted ingest requests (0 = unbounded)")
	fs.Int64Var(&o.Admission.MaxInFlightBytes, "max-inflight-bytes", 64<<20, "max summed declared body bytes of admitted ingest requests (0 = unbounded)")
	fs.DurationVar(&o.Admission.ReadTimeout, "read-timeout", 30*time.Second, "per-request body read deadline on admitted ingest requests (0 = none)")
	fs.DurationVar(&o.Admission.RetryAfter, "retry-after", time.Second, "Retry-After hint on shed (429) responses")

	fs.StringVar(&o.faults, "faults", "", "failpoint specs for chaos runs, e.g. \"wal/sync:after=100,count=1;wal/torn:count=1\" (see internal/faultinject)")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "seed for probabilistic failpoints")

	fs.StringVar(&o.role, "role", "combined", "fleet role: combined, relay or analyzer (see internal/topology)")
	fs.StringVar(&o.Name, "name", "", "node name in peer protocols and on the bulletin board (default <role>@<addr>)")
	fs.StringVar(&o.Advertise, "advertise", "", "base URL other fleet members reach this node at (default http://localhost<addr>)")
	fs.StringVar(&o.Downstream, "downstream", "", "relay only: base URL of the analyzer finished batches are forwarded to")
	fs.StringVar(&o.peers, "peers", "", "comma-separated base URLs of sibling analyzers to push local state to")
	fs.DurationVar(&o.PeerSync, "peer-sync", 2*time.Second, "repair interval for anti-entropy pushes to -peers: pushes are triggered by local change; this retries failed ones and caps the gap between them")
	fs.DurationVar(&o.DigestSync, "digest-sync", 15*time.Second, "pull-based anti-entropy interval: each round fetches peer digests and pulls only missing contributions, so a partitioned analyzer converges without waiting for inbound pushes (0 = pushes only)")
	fs.StringVar(&o.PeerToken, "peer-token", "", "bearer token required on inbound /peer/* routes and sent on outbound peer traffic (empty = open)")
	fs.StringVar(&o.Registry, "registry", "", "bulletin-board base URL to announce this node on (see cmd/p2bboard; empty = no announcement)")
	fs.DurationVar(&o.RegistryTTL, "registry-ttl", topology.DefaultTTL, "announcement TTL on the bulletin board")
	return o
}

// resolve parses the string-valued flags into the config and fills the
// defaults that depend on other flags.
func (o *options) resolve() error {
	var err error
	if o.WALPolicy, err = httpapi.ParseWALPolicy(o.walPolicy); err != nil {
		return err
	}
	if o.Role, err = topology.ParseRole(o.role); err != nil {
		return err
	}
	if o.Shuffler.BatchSize == 0 {
		o.Shuffler.BatchSize = 32 * o.Shuffler.Threshold
		if o.Shuffler.BatchSize == 0 {
			o.Shuffler.BatchSize = 256
		}
	}
	for _, p := range strings.Split(o.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			o.Peers = append(o.Peers, p)
		}
	}
	if o.Name == "" {
		o.Name = fmt.Sprintf("%s@%s", o.Role, o.addr)
	}
	if o.Advertise == "" {
		o.Advertise = "http://" + o.addr
		if strings.HasPrefix(o.addr, ":") {
			o.Advertise = "http://localhost" + o.addr
		}
	}
	return nil
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := o.resolve(); err != nil {
		log.Fatalf("p2bnode: %v", err)
	}
	if o.faults != "" {
		specs, err := faultinject.ParseSpecs(o.faults)
		if err != nil {
			log.Fatalf("p2bnode: %v", err)
		}
		reg := faultinject.NewRegistry(o.faultSeed)
		reg.EnableAll(specs)
		persist.SetFSHooks(&persist.FSHooks{
			BeforeWrite:    reg.FSWrite,
			BeforeSync:     reg.FSSync,
			BeforeTruncate: reg.FSTruncate,
		})
		log.Printf("p2bnode: CHAOS MODE: failpoints armed (%s, seed %d) — not for production", o.faults, o.faultSeed)
	}

	n, err := node.Open(o.Config)
	if err != nil {
		log.Fatalf("p2bnode: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- n.ListenAndServe(o.addr) }()
	log.Printf("p2bnode listening on %s as %s %q (k=%d arms=%d d=%d threshold=%d batch=%d)",
		o.addr, o.Role, o.Name, o.Server.K, o.Server.Arms, o.Server.D, o.Shuffler.Threshold, o.Shuffler.BatchSize)

	select {
	case err := <-errCh:
		// The listener died on its own (port in use, ...): nothing to drain.
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	log.Printf("p2bnode: shutting down (drain %v)", o.drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := n.Shutdown(drainCtx); err != nil {
		log.Printf("p2bnode: %v", err)
	}

	sst, shst := n.Server().Stats(), n.Shuffler().Stats()
	log.Printf("p2bnode: final state: %d tuples ingested, %d raw, %d batches shuffled (%d forwarded, %d thresholded)",
		sst.TuplesIngested, sst.RawIngested, shst.Batches, shst.Forwarded, shst.Dropped)
	if fwd := n.Forwarder(); fwd != nil {
		fst := fwd.Stats()
		log.Printf("p2bnode: forwarded downstream: %d batches (%d tuples), %d duplicates, %d retries, %d dropped",
			fst.Batches, fst.Tuples, fst.Duplicates, fst.Retries, fst.Dropped)
	}
}
