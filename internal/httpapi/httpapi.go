// Package httpapi exposes the shuffler and server over HTTP so that P2B
// components can run as separate processes. It is server-only: outbound
// HTTP to a node lives in the SDK (package agent), which imports this
// package for the wire types and never the other way round. The routes are:
//
//	shuffler:  POST /report         one transport.Envelope (JSON)
//	           POST /reports        a batch stream (binary frames or NDJSON)
//	           POST /flush          force the pending batch through
//	           GET  /stats          shuffler.Stats
//	server:    GET  /model          versioned model sync (ETag/304, binary
//	                                or JSON negotiated via Accept;
//	                                ?kind=tabular|linucb; served
//	                                from cached encoded payloads, one
//	                                build per model version)
//	           GET  /stats          server.Stats + model_reads counters
//	node:      GET  /healthz            liveness + model shapes + read-path
//	                                    counters + persistence status
//	           POST /admin/checkpoint   force a durable checkpoint
//	                                    (durable nodes only)
//
// /reports is the scale path: the body is a stream of length-prefixed
// binary frames (Content-Type transport.ContentTypeBinary, see
// internal/transport/wire.go for the layout) or newline-delimited JSON
// envelopes (transport.ContentTypeNDJSON). Frames are decoded in a
// streaming fashion and fed to the shuffler in chunks, so a million-report
// body never lives in memory at once and no allocation happens per
// envelope. Envelopes whose reward is not finite or whose code/action is
// negative are dropped and counted in the BatchAck response rather than
// failing the whole batch.
//
// When an incoming single report carries no source address the shuffler
// handler stamps the connection's RemoteAddr into the envelope metadata
// before submission: the shuffler must prove it can scrub real network
// metadata, not just whatever polite clients chose to send. Batched
// envelopes carry sender metadata inside their frames; the batch decoder
// skips those bytes entirely, so identity is discarded even earlier.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2b/internal/bandit"
	"p2b/internal/metrics"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

const (
	maxBodyBytes      = 1 << 20  // 1 MiB is generous for any single report
	maxBatchBodyBytes = 32 << 20 // one POST of ~100k binary frames
	// submitChunk is how many decoded tuples are handed to the shuffler
	// per SubmitTuples call on the batch route: large enough to amortize
	// the shuffler lock, small enough to keep the working set in L1.
	submitChunk = 512
)

// BatchAck is the response body of the batch report route: how many
// envelopes entered the shuffler and how many were dropped at the door for
// carrying non-finite rewards or negative coordinates.
type BatchAck struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
}

// tupleChunks recycles the per-request decode buffers of the batch route.
var tupleChunks = sync.Pool{
	New: func() any {
		s := make([]transport.Tuple, 0, submitChunk)
		return &s
	},
}

// Ingestor is the tuple-admission surface the shuffler routes write to.
// The plain deployment submits straight to the shuffler; a durable node
// interposes the persist manager, which logs every operation to the WAL
// before applying it. Errors are I/O failures (the log could not accept
// the write); under the default WALFailClosed policy they surface as
// 503 + Retry-After — an unlogged tuple must not be acked, but the
// condition is retryable, not a client bug.
type Ingestor interface {
	SubmitEnvelope(e transport.Envelope) error
	SubmitTuples(tuples []transport.Tuple) error
	Flush() error
}

// shufflerIngestor is the non-durable default: straight to the shuffler,
// which never fails.
type shufflerIngestor struct{ s *shuffler.Shuffler }

func (si shufflerIngestor) SubmitEnvelope(e transport.Envelope) error { si.s.Submit(e); return nil }
func (si shufflerIngestor) SubmitTuples(ts []transport.Tuple) error {
	si.s.SubmitTuples(ts)
	return nil
}
func (si shufflerIngestor) Flush() error { si.s.Flush(); return nil }

// NodeOptions selects a node handler's optional components. A fleet role
// is nothing more than which of them are set: a relay is a shuffler plus
// Forward, an analyzer or combined node is a shuffler plus a server plus
// Peer (see internal/node for the process-level assembly).
type NodeOptions struct {
	// Ingest handles report admission. Nil submits straight to the
	// shuffler (no durability).
	Ingest Ingestor
	// Checkpoint, when non-nil, enables POST /admin/checkpoint.
	Checkpoint func() error
	// Health, when non-nil, contributes a "persist" section to /healthz.
	Health func() any
	// Admission, when non-nil, bounds the ingest routes: requests over the
	// in-flight caps are shed with 429 + Retry-After instead of queued.
	Admission *Admission
	// WALPolicy selects the failure behavior when Ingest refuses a write:
	// fail closed with 503 (default) or degrade to the in-memory shuffler
	// with a loud Degraded flag on /healthz and the stats routes.
	WALPolicy WALPolicy
	// Metrics, when non-nil, instruments every route (request counts by
	// status class, latency and body-size histograms) plus the shuffler,
	// server, forwarder and overload counters on this registry and mounts
	// it as GET /metrics in Prometheus text exposition format. The
	// collectors read the same atomics and closures the JSON stats routes
	// serialize, so /metrics, /healthz and the stats routes can never
	// disagree.
	Metrics *metrics.Registry
	// Role names the node's fleet role on /healthz and /server/stats.
	// Empty means "combined", the single-process default.
	Role string
	// Peer, when non-nil on a node with a server, mounts the analyzer-side
	// peer routes (/peer/ingest, /peer/merge, /peer/digest, /peer/contrib)
	// and adds the "peers" section to /healthz and /server/stats.
	Peer *PeerOptions
	// Forward, when non-nil, is the forwarder wired as the shuffler's sink:
	// /healthz gains the "downstream" and "forward" sections and /metrics
	// the p2b_forward_* families, all reading the forwarder's own counters.
	Forward *topology.Forwarder
	// Shapes are the fleet's model dimensions, advertised on /healthz by a
	// node without a server so agent preflights validate against a relay
	// exactly as against a combined node (a node with a server derives
	// them from it).
	Shapes ModelShapes
	// Board, when non-nil, reports the node's bulletin-board registration
	// health (typically a topology.Heartbeat's Status method): a "board"
	// section on /healthz plus the p2b_board_* metric families, so an
	// operator can see from either surface whether discovery can find
	// this node.
	Board func() topology.HeartbeatStatus
	// Overload, when non-nil, is filled in at construction with the same
	// overload snapshot closure /healthz serves (nil is stored when the
	// node is unbounded and non-degradable). The embedding process reads
	// it to publish the degrade flag on the bulletin board — the state
	// lives inside the handler, and an out-param beats re-deriving it.
	Overload *func() OverloadStats
}

// NewNodeHandler mounts a shuffler and a server on one mux under the
// /shuffler/ and /server/ prefixes, plus a /healthz probe — the layout
// cmd/p2bnode serves and cmd/p2bagent speaks to.
func NewNodeHandler(shuf *shuffler.Shuffler, srv *server.Server) http.Handler {
	return NewNodeHandlerOpts(shuf, srv, NodeOptions{})
}

// NewNodeHandlerOpts is the one node assembly: /shuffler/* always,
// /server/* when srv is non-nil and /peer/* when opts.Peer is set on top
// of it, and /healthz, /metrics and /admin/checkpoint composed from
// whichever components are present. A nil srv is a relay-shaped node:
// agents cannot tell it from a combined one on the report path.
func NewNodeHandlerOpts(shuf *shuffler.Shuffler, srv *server.Server, opts NodeOptions) http.Handler {
	ing := opts.Ingest
	if ing == nil {
		ing = shufflerIngestor{shuf}
	}
	var deg *degradingIngestor
	if opts.WALPolicy == WALDegrade && opts.Ingest != nil {
		deg = &degradingIngestor{primary: opts.Ingest, fallback: shufflerIngestor{shuf}}
		ing = deg
	}
	// overload snapshots the admission gate's counters plus the degrade
	// state: the one overload view every surface (/healthz, both stats
	// routes) reports, so operators never reconcile divergent counters.
	// It stays nil on an unbounded, non-degradable node and the section is
	// omitted everywhere.
	var overload func() OverloadStats
	if opts.Admission != nil || deg != nil {
		overload = func() OverloadStats {
			st := opts.Admission.Stats()
			if deg != nil {
				st.Degraded = deg.degraded.Load()
				st.DegradedOps = deg.degradedOps.Load()
			}
			return st
		}
	}
	if opts.Overload != nil {
		*opts.Overload = overload
	}
	role := opts.Role
	if role == "" {
		role = string(topology.RoleCombined)
	}
	var sh *serverHandler
	if srv != nil {
		sh = newServerHandler(srv)
		sh.overload = overload
		sh.role = role
		if opts.Peer != nil {
			// peers snapshots the one replication view every surface
			// (/healthz, /server/stats and — through the same underlying
			// atomics — /metrics) reports.
			sh.peers = func() *PeerHealth {
				ph := &PeerHealth{PeerStatus: srv.PeerStatus()}
				if opts.Peer.Sync != nil {
					ph.Sync = opts.Peer.Sync()
				}
				return ph
			}
		}
	}
	mux := http.NewServeMux()
	var nm *nodeMetrics
	if opts.Metrics != nil {
		nm = newNodeMetrics(opts.Metrics, shuf, sh, overload, &opts)
		mux.Handle("GET /metrics", metrics.Handler(opts.Metrics))
	}
	mux.Handle("/shuffler/", http.StripPrefix("/shuffler", newShufflerHandlerOpts(shuf, ing, opts.Admission, overload, nm)))
	if sh != nil {
		sh.nm = nm
		mux.Handle("/server/", http.StripPrefix("/server", sh.routes()))
		if sh.peers != nil {
			mux.Handle("/peer/", http.StripPrefix("/peer", newPeerHandler(srv, opts.Peer, opts.Admission, nm)))
		}
	}
	mux.HandleFunc("GET /healthz", nm.wrap("healthz", func(w http.ResponseWriter, r *http.Request) {
		// Shapes ride along so a fleet's preflight can validate its
		// -k/-arms/-d flags with this one cheap probe instead of
		// downloading full model payloads.
		status := Health{Status: "ok", Role: role, Model: opts.Shapes}
		if sh != nil {
			cfg := srv.Config()
			status.Model = ModelShapes{K: cfg.K, Arms: cfg.Arms, D: cfg.D, Version: srv.ModelVersion()}
			// Atomic counters only — the preflight probe every device hits
			// must not lock-sweep the ingestion shards like full Stats does.
			hits, builds := srv.SnapshotCacheStats()
			status.Snapshots = &SnapshotCacheStats{Hits: hits, Builds: builds}
			reads := sh.ReadStats()
			status.ModelReads = &reads
			if sh.peers != nil {
				status.Peers = sh.peers()
			}
		}
		if opts.Forward != nil {
			fst := opts.Forward.Stats()
			status.Downstream, status.Forward = opts.Forward.Downstream(), &fst
		}
		if overload != nil {
			ov := overload()
			status.Overload = &ov
			if ov.Degraded {
				// Loud but alive: the probe still answers 200 — the node IS
				// serving — while the status string tells preflights and
				// dashboards that accepted reports are not currently durable.
				status.Status = "degraded"
			}
		}
		if opts.Board != nil {
			bs := opts.Board()
			status.Board = &bs
		}
		if opts.Health != nil {
			status.Persist = opts.Health()
		}
		writeJSON(w, status)
	}))
	if opts.Checkpoint != nil {
		mux.HandleFunc("POST /admin/checkpoint", func(w http.ResponseWriter, r *http.Request) {
			if err := opts.Checkpoint(); err != nil {
				http.Error(w, fmt.Sprintf("httpapi: checkpoint failed: %v", err), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		})
	}
	return mux
}

// newShufflerHandlerOpts mounts the shuffler routes with report admission
// going through ing (the durable path when a persist manager is wired in),
// bounded by adm (nil = unbounded), reporting overload (nil = omitted)
// on GET /stats and instrumented by nm (nil = uninstrumented). nm wraps
// OUTSIDE adm.guard so shed 429s and fail-closed 503s land in the
// per-route status-class counters.
func newShufflerHandlerOpts(s *shuffler.Shuffler, ing Ingestor, adm *Admission, overload func() OverloadStats, nm *nodeMetrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /report", nm.wrap("report", adm.guard(func(w http.ResponseWriter, r *http.Request) {
		var e transport.Envelope
		if err := decodeJSON(w, r, &e); err != nil {
			writeBodyError(w, err)
			return
		}
		// Same admission policy as the batch route, so a report stream is
		// route-independent: a tuple either enters the shuffler on both
		// routes or on neither.
		if !validTuple(e.Tuple) {
			http.Error(w, "httpapi: invalid tuple (non-finite reward or negative code/action)", http.StatusBadRequest)
			return
		}
		if e.Meta.Addr == "" {
			e.Meta.Addr = r.RemoteAddr
		}
		if e.Meta.SentAt == 0 {
			e.Meta.SentAt = time.Now().UnixNano()
		}
		if err := ing.SubmitEnvelope(e); err != nil {
			writeBodyError(w, ingestError{err})
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})))
	mux.HandleFunc("POST /reports", nm.wrap("reports", adm.guard(func(w http.ResponseWriter, r *http.Request) {
		ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
		if err != nil {
			http.Error(w, "httpapi: unparseable Content-Type", http.StatusUnsupportedMediaType)
			return
		}
		body := http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
		var ack BatchAck
		switch ct {
		case transport.ContentTypeBinary:
			ack, err = ingestBinary(ing, body)
		case transport.ContentTypeNDJSON, "application/json":
			ack, err = ingestNDJSON(ing, body)
		default:
			http.Error(w, fmt.Sprintf("httpapi: unsupported batch Content-Type %q (want %s or %s)",
				ct, transport.ContentTypeBinary, transport.ContentTypeNDJSON), http.StatusUnsupportedMediaType)
			return
		}
		if err != nil {
			// Chunks decoded before the malformed frame are already in the
			// shuffler; report how far we got alongside the error.
			writeBodyErrorMsg(w, fmt.Sprintf("httpapi: batch aborted after %d accepted: %v", ack.Accepted, err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		// The status line is already committed; an encode failure here only
		// means the client went away.
		_ = json.NewEncoder(w).Encode(ack)
	})))
	mux.HandleFunc("POST /flush", nm.wrap("flush", adm.guard(func(w http.ResponseWriter, r *http.Request) {
		if err := ing.Flush(); err != nil {
			writeBodyError(w, ingestError{err})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})))
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, shufflerStatsPayload(s, overload))
	})
	return mux
}

// ShufflerStats is the GET /shuffler/stats response: the traffic counters
// extended with the live buffer occupancy (how many tuples sit between
// admission and the next privacy batch) and, on a bounded node, the
// overload counters.
type ShufflerStats struct {
	shuffler.Stats
	Pending  int            `json:"pending"`
	Overload *OverloadStats `json:"overload,omitempty"`
}

func shufflerStatsPayload(s *shuffler.Shuffler, overload func() OverloadStats) ShufflerStats {
	st := ShufflerStats{Stats: s.Stats(), Pending: s.Pending()}
	if overload != nil {
		ov := overload()
		st.Overload = &ov
	}
	return st
}

// ModelReadStats counts the encoded-payload cache traffic of the model
// routes. Together with the server's SnapshotHits/SnapshotBuilds it tells
// a fleet operator whether the read path is healthy: steady state is
// PayloadHits and NotModified growing while PayloadBuilds tracks model
// version bumps.
type ModelReadStats struct {
	PayloadHits   int64 `json:"payload_hits"`   // responses served from cached encoded bytes
	PayloadBuilds int64 `json:"payload_builds"` // snapshot-encode rebuilds (version advanced)
	NotModified   int64 `json:"not_modified"`   // If-None-Match revalidations answered 304
}

// modelPayload is one immutable encoded model response: the exact body and
// validator headers of GET /server/model for one (kind, epoch, version,
// representation). Once published it is only ever read, so concurrent
// requests share the bytes without copying.
type modelPayload struct {
	version     uint64
	versionStr  string
	etag        string
	contentType string
	body        []byte
}

// payloadSlot caches the newest payload of one (kind, representation)
// pair. Reads are one atomic load; rebuilds are serialized per slot.
type payloadSlot struct {
	cur atomic.Pointer[modelPayload]
	mu  sync.Mutex
}

// serverHandler owns the analyzer's HTTP surface plus the encoded-payload
// cache that makes the model read path O(1): steady-state GETs compare a
// version counter and write cached bytes; If-None-Match revalidations are
// answered from the version counters alone, never building a snapshot.
type serverHandler struct {
	s *server.Server
	// payload slots: 2 kinds x 2 representations, indexed by payloadIndex.
	payloads [4]payloadSlot

	payloadHits   atomic.Int64
	payloadBuilds atomic.Int64
	notModified   atomic.Int64

	// Node-level wiring (nil on a standalone server handler): overload
	// contributes the overload section to GET /stats, nm instruments the
	// model route. role and peers extend GET /stats with the node's fleet
	// role and replication status.
	overload func() OverloadStats
	nm       *nodeMetrics
	role     string
	peers    func() *PeerHealth
}

func newServerHandler(s *server.Server) *serverHandler {
	return &serverHandler{s: s}
}

// ReadStats returns a snapshot of the payload-cache counters.
func (h *serverHandler) ReadStats() ModelReadStats {
	return ModelReadStats{
		PayloadHits:   h.payloadHits.Load(),
		PayloadBuilds: h.payloadBuilds.Load(),
		NotModified:   h.notModified.Load(),
	}
}

// routes mounts the analyzer server's HTTP surface. Routes are registered
// with method patterns, so a wrong-method request gets the mux's 405 (with
// an Allow header) without per-handler boilerplate.
func (h *serverHandler) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /model", h.nm.wrap("model", h.serveModel))
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		p := serverStatsPayload{Stats: h.s.Stats(), Role: h.role, ModelReads: h.ReadStats()}
		if h.overload != nil {
			ov := h.overload()
			p.Overload = &ov
		}
		if h.peers != nil {
			p.Peers = h.peers()
		}
		writeJSON(w, p)
	})
	return mux
}

// serverStatsPayload is the GET /server/stats response: the ingestion
// counters extended with the node role, the read-path health counters
// and, on a bounded node, the overload counters. Peers is the same
// replication view /healthz serves.
type serverStatsPayload struct {
	server.Stats
	Role       string         `json:"role,omitempty"`
	ModelReads ModelReadStats `json:"model_reads"`
	Overload   *OverloadStats `json:"overload,omitempty"`
	Peers      *PeerHealth    `json:"peers,omitempty"`
}

// Model kinds accepted by GET /server/model?kind=...; the default is
// tabular, the production P2B warm-start model.
const (
	ModelKindTabular = "tabular"
	ModelKindLinUCB  = "linucb"
)

// ModelVersionHeader carries the model version alongside the ETag, so
// clients can log or compare versions without parsing entity tags.
const ModelVersionHeader = "X-P2b-Model-Version"

// modelETag renders the strong entity tag of one model response. The
// encoding is part of the tag: a strong ETag names one exact
// representation (RFC 9110 §8.8.3), and the route serves two (binary and
// JSON), so a shared cache must never validate one against the other. The
// epoch (the server's boot nonce) qualifies the in-memory version counter,
// which restarts after crash recovery — without it, a version collision
// across a restart could answer a stale client with a false 304.
func modelETag(kind string, epoch, version uint64, binary bool) string {
	enc := "json"
	if binary {
		enc = "bin"
	}
	return fmt.Sprintf("%q", fmt.Sprintf("p2b-%s-e%x-v%d-%s", kind, epoch, version, enc))
}

// etagMatches implements the If-None-Match comparison: a comma-separated
// list of entity tags (possibly weak-prefixed) or the wildcard "*". It is
// allocation-free — it runs on every revalidation of every polling device.
//
//p2b:hotpath
func etagMatches(header, etag string) bool {
	for len(header) > 0 {
		var tag string
		if i := strings.IndexByte(header, ','); i >= 0 {
			tag, header = header[:i], header[i+1:]
		} else {
			tag, header = header, ""
		}
		tag = strings.TrimSpace(tag)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == "*" || tag == etag {
			return true
		}
	}
	return false
}

// acceptsBinaryModel reports whether the request prefers the binary model
// encoding: an Accept member with the exact binary media type and a
// non-zero quality selects it, everything else (including no Accept header
// at all, or the binary type refused with q=0 per RFC 9110 §12.4.2) falls
// back to JSON. The exact-match fast paths keep the steady-state fleet
// request (Accept set to precisely one media type) allocation-free.
func acceptsBinaryModel(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	switch accept {
	case "":
		return false
	case transport.ContentTypeModel:
		return true
	case "application/json":
		return false
	}
	// Anything else takes the full parse: media types are case-insensitive
	// (RFC 9110 §8.3.1), so a byte-level Contains shortcut would wrongly
	// downgrade e.g. "Application/X-P2B-Model" to JSON.
	for _, part := range strings.Split(accept, ",") {
		mt, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil || mt != transport.ContentTypeModel {
			continue
		}
		if q, ok := params["q"]; ok {
			if qv, err := strconv.ParseFloat(q, 64); err == nil && qv <= 0 {
				continue
			}
		}
		return true
	}
	return false
}

// modelKindParam extracts the ?kind= query parameter. The switch on the
// raw query covers every value real clients send without parsing a
// url.Values map per request.
func modelKindParam(r *http.Request) string {
	switch r.URL.RawQuery {
	case "":
		return ModelKindTabular
	case "kind=" + ModelKindTabular:
		return ModelKindTabular
	case "kind=" + ModelKindLinUCB:
		return ModelKindLinUCB
	}
	if kind := r.URL.Query().Get("kind"); kind != "" {
		return kind
	}
	return ModelKindTabular
}

// payloadIndex maps a (kind, representation) pair to its cache slot.
//
//p2b:hotpath
func payloadIndex(kind string, binary bool) int {
	i := 0
	if kind == ModelKindLinUCB {
		i = 1
	}
	if binary {
		i += 2
	}
	return i
}

// serveModel is GET /server/model: the versioned model-sync surface. The
// snapshot version doubles as a strong ETag, so a fleet whose model has not
// changed since its last fetch is answered with 304 Not Modified; the body
// is the P2BM binary encoding when the client Accepts it, JSON otherwise.
func (h *serverHandler) serveModel(w http.ResponseWriter, r *http.Request) {
	kind := modelKindParam(r)
	switch kind {
	case ModelKindTabular, ModelKindLinUCB:
	default:
		http.Error(w, fmt.Sprintf("httpapi: unknown model kind %q (want %s or %s)",
			kind, ModelKindTabular, ModelKindLinUCB), http.StatusBadRequest)
		return
	}
	h.servePayload(w, r, kind, acceptsBinaryModel(r))
}

// servePayload answers one model request from the encoded-payload cache.
//
// The order of operations is what makes the read path cheap under fleet
// load: the model version is read first (a handful of atomic loads — no
// locks, no snapshot), so an If-None-Match revalidation at an unchanged
// version is answered 304 from the version counters alone. Only a request
// that actually needs bytes consults the payload cache, and only a version
// bump rebuilds: snapshot fetch (shared, one build per version) + encode,
// once per (kind, version, representation) for the whole fleet.
func (h *serverHandler) servePayload(w http.ResponseWriter, r *http.Request, kind string, binary bool) {
	version := h.s.ModelVersion()
	slot := &h.payloads[payloadIndex(kind, binary)]
	p := slot.cur.Load()
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		etag := ""
		if p != nil && p.version == version {
			etag = p.etag // steady state: no formatting, no allocation
		} else {
			etag = modelETag(kind, h.s.ModelEpoch(), version, binary)
		}
		if etagMatches(inm, etag) {
			hd := w.Header()
			hd.Set("ETag", etag)
			hd.Set("Vary", "Accept")
			hd.Set(ModelVersionHeader, strconv.FormatUint(version, 10))
			w.WriteHeader(http.StatusNotModified)
			h.notModified.Add(1)
			return
		}
	}
	if p == nil || p.version != version {
		p = h.buildPayload(slot, kind, binary, version)
	} else {
		h.payloadHits.Add(1)
	}
	hd := w.Header()
	hd.Set("ETag", p.etag)
	hd.Set("Vary", "Accept")
	hd.Set(ModelVersionHeader, p.versionStr)
	hd.Set("Content-Type", p.contentType)
	_, _ = w.Write(p.body)
}

// buildPayload encodes the current snapshot of one (kind, representation)
// into an immutable payload and publishes it in slot. Concurrent builders
// of one slot collapse: the loser of the lock race finds a fresh payload
// and returns it. wantVersion is the version the caller observed; the
// snapshot getter may return a newer one (ingestion racing the read), in
// which case the payload is keyed — consistently, headers and body — under
// the newer version.
func (h *serverHandler) buildPayload(slot *payloadSlot, kind string, binary bool, wantVersion uint64) *modelPayload {
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if p := slot.cur.Load(); p != nil && p.version >= wantVersion {
		h.payloadHits.Add(1)
		return p
	}
	var (
		version uint64
		tab     *bandit.TabularState
		lin     *bandit.LinUCBState
	)
	switch kind {
	case ModelKindTabular:
		tab, version = h.s.TabularModel()
	case ModelKindLinUCB:
		lin, version = h.s.LinUCBModel()
	}
	p := &modelPayload{
		version:    version,
		versionStr: strconv.FormatUint(version, 10),
		etag:       modelETag(kind, h.s.ModelEpoch(), version, binary),
	}
	if binary {
		p.contentType = transport.ContentTypeModel
		if tab != nil {
			p.body = transport.AppendTabularModel(nil, version, tab)
		} else {
			p.body = transport.AppendLinearModel(nil, version, lin)
		}
	} else {
		p.contentType = "application/json"
		var blob []byte
		var err error
		if tab != nil {
			blob, err = json.Marshal(tab)
		} else {
			blob, err = json.Marshal(lin)
		}
		if err != nil {
			// The state types marshal by construction; this is unreachable
			// short of memory corruption.
			panic("httpapi: encoding model snapshot: " + err.Error())
		}
		// Trailing newline keeps the body byte-identical to the
		// json.Encoder output the route historically produced.
		p.body = append(blob, '\n')
	}
	slot.cur.Store(p)
	h.payloadBuilds.Add(1)
	return p
}

// ingestStream drains a batch of tuples from next into the ingestor:
// tuples accumulate in a pooled chunk and each full chunk is admitted in
// one call. Invalid tuples are dropped and counted; a decode error aborts
// the stream after flushing what already decoded. next must return io.EOF
// at a clean end of stream.
func ingestStream(ing Ingestor, next func(*transport.Tuple) error) (BatchAck, error) {
	var ack BatchAck
	chunkPtr := tupleChunks.Get().(*[]transport.Tuple)
	defer tupleChunks.Put(chunkPtr)
	chunk := (*chunkPtr)[:0]
	flush := func() error {
		if err := ing.SubmitTuples(chunk); err != nil {
			// Not the client's fault: the durable log refused the write.
			return ingestError{err}
		}
		ack.Accepted += len(chunk)
		chunk = chunk[:0]
		return nil
	}
	var t transport.Tuple
	for {
		err := next(&t)
		if err == io.EOF {
			break
		}
		if err != nil {
			if ferr := flush(); ferr != nil {
				err = ferr
			}
			return ack, err
		}
		if !validTuple(t) {
			ack.Dropped++
			continue
		}
		chunk = append(chunk, t)
		if len(chunk) == submitChunk {
			if err := flush(); err != nil {
				return ack, err
			}
		}
	}
	return ack, flush()
}

// ingestBinary streams length-prefixed frames from body into the ingestor.
// Metadata bytes are skipped inside the frame buffer (never materialized),
// so identity neither allocates nor — on a durable node — reaches the WAL.
func ingestBinary(ing Ingestor, body io.Reader) (BatchAck, error) {
	fr, err := transport.NewFrameReader(body)
	if err != nil {
		return BatchAck{}, err
	}
	return ingestStream(ing, fr.NextTuple)
}

// ingestNDJSON streams newline-delimited JSON envelopes from body into the
// ingestor. It is the interoperable fallback of the batch route: slower
// than the binary framing but producible with a shell loop.
func ingestNDJSON(ing Ingestor, body io.Reader) (BatchAck, error) {
	dec := json.NewDecoder(body)
	index := 0
	return ingestStream(ing, func(t *transport.Tuple) error {
		var e transport.Envelope
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("httpapi: bad NDJSON envelope %d: %w", index, err)
		}
		index++
		*t = e.Tuple // anonymization: Meta goes no further
		return nil
	})
}

// validTuple rejects envelopes no downstream component could use: the
// server would clamp a non-finite reward to zero and skip negative
// coordinates anyway, but dropping them at the door keeps the shuffler's
// threshold counts honest and the ack informative.
func validTuple(t transport.Tuple) bool {
	return !math.IsNaN(t.Reward) && !math.IsInf(t.Reward, 0) && t.Code >= 0 && t.Action >= 0
}

// ingestError marks a server-side admission failure (the durable log could
// not accept the write), as opposed to a malformed request.
type ingestError struct{ err error }

func (e ingestError) Error() string { return e.err.Error() }
func (e ingestError) Unwrap() error { return e.err }

// statusForBodyError distinguishes "you sent too much" (413) from "we
// could not store it" (503 — the fail-closed WAL policy: retryable, the
// client did nothing wrong) from "you sent garbage" (400).
func statusForBodyError(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	var ing ingestError
	if errors.As(err, &ing) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// ingestRetryAfter is the Retry-After hint on fail-closed 503s: the WAL
// usually recovers within one fsync interval, so a short constant beats
// making clients guess.
const ingestRetryAfter = "1"

// writeBodyError renders err with statusForBodyError's mapping, stamping
// Retry-After on the retryable (503) shape so well-behaved clients pace
// their retries instead of hammering a struggling log.
func writeBodyError(w http.ResponseWriter, err error) {
	writeBodyErrorMsg(w, err.Error(), err)
}

func writeBodyErrorMsg(w http.ResponseWriter, msg string, err error) {
	status := statusForBodyError(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", ingestRetryAfter)
	}
	http.Error(w, msg, status)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	// MaxBytesReader is handed the ResponseWriter so an over-limit body
	// also closes the connection server-side — without it the server would
	// dutifully read and discard the rest of an oversized upload.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("httpapi: bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// ModelShapes advertises the node's model dimensions on /healthz, so a
// fleet can validate its configuration before simulating a single device.
type ModelShapes struct {
	K       int    `json:"k"`
	Arms    int    `json:"arms"`
	D       int    `json:"d"`
	Version uint64 `json:"version"`
}

// SnapshotCacheStats is the snapshot-cache section of /healthz: how often
// model reads were answered from the shared per-version snapshot versus
// how often a version bump forced a rebuild.
type SnapshotCacheStats struct {
	Hits   int64 `json:"hits"`
	Builds int64 `json:"builds"`
}

// Health is the /healthz document: what the node handler serves and what
// agent.FetchHealth decodes. Which sections appear is which components the node
// runs — Snapshots, ModelReads and (with a peer surface) Peers on a node
// with a server, Downstream and Forward on a relay, Overload on a bounded
// or degradable node, Board with a bulletin board, Persist with a data
// directory. Role names the fleet role ("combined", "relay" or
// "analyzer"; empty from nodes predating roles).
type Health struct {
	Status     string                    `json:"status"`
	Role       string                    `json:"role,omitempty"`
	Model      ModelShapes               `json:"model"`
	Downstream string                    `json:"downstream,omitempty"`
	Forward    *topology.ForwardStats    `json:"forward,omitempty"`
	Snapshots  *SnapshotCacheStats       `json:"snapshots,omitempty"`
	ModelReads *ModelReadStats           `json:"model_reads,omitempty"`
	Overload   *OverloadStats            `json:"overload,omitempty"`
	Peers      *PeerHealth               `json:"peers,omitempty"`
	Board      *topology.HeartbeatStatus `json:"board,omitempty"`
	Persist    any                       `json:"persist,omitempty"`
}
