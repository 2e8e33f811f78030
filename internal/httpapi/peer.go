// The multi-node HTTP surface: the analyzer-side peer routes, mounted by
// NewNodeHandlerOpts when NodeOptions.Peer is set on a node with a server:
//
//	POST /peer/ingest  one relay-forwarded privacy batch (P2B1 binary
//	                   stream, positioned by the X-P2b-Peer-* headers);
//	                   delivered straight to the analyzer server — the
//	                   relay already shuffled and thresholded it
//	POST /peer/merge   one sibling analyzer's local-state export (a
//	                   topology.PeerUpdate in the binary P2BS encoding,
//	                   application/x-p2b-state only), stored per origin
//	                   with replace-if-newer semantics
//	GET  /peer/digest  the per-origin (epoch, seq) high-water vector of
//	                   every contribution this node can serve — its own
//	                   live state plus stored sibling contributions — for
//	                   the pull side of the digest round
//	GET  /peer/contrib?origin=X  one contribution, in the same encoding:
//	                   this node's own (exported live, stamped with the
//	                   local version captured before the export) or a
//	                   stored third party's (served verbatim at its stored
//	                   position, which is what makes healing transitive)
//
// Both POST routes answer 200 with a topology.PeerAck naming whether the
// payload changed state; a duplicate or stale payload acks applied=false,
// which senders treat as success. When the node was started with a peer
// token, requests must carry it as a bearer token; the digest and contrib
// GETs are authenticated too — they hand out model state, exactly what
// the merge route accepts.
package httpapi

import (
	"crypto/subtle"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"

	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// PeerDeliverFunc durably applies one relay-forwarded batch and reports
// whether it changed state (false = duplicate). The durable node wires the
// persist manager's DeliverPeer here; without one the batch goes straight
// to the server.
type PeerDeliverFunc func(origin string, epoch, seq uint64, tuples []transport.Tuple) (bool, error)

// PeerOptions enables and configures the analyzer-side peer routes.
type PeerOptions struct {
	// Origin is this node's own contribution-stream name. Inbound traffic
	// claiming it is refused — that is always a misconfigured fleet
	// (two processes sharing one identity), never valid replication.
	Origin string
	// Token, when non-empty, requires "Authorization: Bearer <token>" on
	// every peer route.
	Token string
	// Deliver applies a relay batch. Nil delivers straight to the server
	// (no durability).
	Deliver PeerDeliverFunc
	// Sync reports the node's outbound anti-entropy status (nil when the
	// node pushes to no peers).
	Sync func() []topology.SyncStatus
	// Epoch is the boot nonce stamping this node's own contribution on
	// /peer/digest and /peer/contrib — the same epoch the node's outbound
	// peering pushes under, so a puller and a pushee agree on the
	// position they hold. Zero (together with a nil Export) omits the
	// self entry: the node serves only stored third-party contributions.
	Epoch uint64
	// Export returns the node's LOCAL state for a self-origin contrib
	// fetch (wire it to server.ExportState, the same func the peering
	// push loop uses). Nil omits the self entry from the digest.
	Export func() *server.PersistedState
}

// PeerHealth is the "peers" section of /healthz and /server/stats: the
// server's replication counters and per-origin positions plus the
// outbound sync status. The counters are the same atomics the /metrics
// peer collectors sample.
type PeerHealth struct {
	server.PeerStatus
	Sync []topology.SyncStatus `json:"sync,omitempty"`
}

// authorized checks the peer bearer token; an empty configured token
// admits everything (single-operator deployments on a private network).
func (o *PeerOptions) authorized(r *http.Request) bool {
	if o.Token == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte("Bearer "+o.Token)) == 1
}

// peerPosition parses the X-P2b-Peer-* headers of a relay batch.
func (o *PeerOptions) peerPosition(r *http.Request) (origin string, epoch, seq uint64, err error) {
	origin = r.Header.Get(topology.OriginHeader)
	if origin == "" {
		return "", 0, 0, fmt.Errorf("httpapi: missing %s header", topology.OriginHeader)
	}
	if origin == o.Origin {
		return "", 0, 0, fmt.Errorf("httpapi: peer traffic claims this node's own origin %q", origin)
	}
	epoch, err = strconv.ParseUint(r.Header.Get(topology.EpochHeader), 10, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("httpapi: bad %s header: %v", topology.EpochHeader, err)
	}
	seq, err = strconv.ParseUint(r.Header.Get(topology.SeqHeader), 10, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("httpapi: bad %s header: %v", topology.SeqHeader, err)
	}
	return origin, epoch, seq, nil
}

// newPeerHandler mounts the peer routes. srv is the analyzer server the
// batches and merges land in; adm bounds the two POST routes exactly like
// the agent ingest routes (relay and peer traffic competes for the same
// admission budget — the node's memory does not care who sent the bytes);
// nm instruments them.
func newPeerHandler(srv *server.Server, opts *PeerOptions, adm *Admission, nm *nodeMetrics) http.Handler {
	deliver := opts.Deliver
	if deliver == nil {
		deliver = func(origin string, epoch, seq uint64, tuples []transport.Tuple) (bool, error) {
			return srv.DeliverPeerBatch(origin, epoch, seq, tuples), nil
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", nm.wrap("peer_ingest", adm.guard(func(w http.ResponseWriter, r *http.Request) {
		if !opts.authorized(r) {
			http.Error(w, "httpapi: peer token required", http.StatusUnauthorized)
			return
		}
		origin, epoch, seq, err := opts.peerPosition(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !hasContentType(w, r, transport.ContentTypeBinary, "peer batches") {
			return
		}
		// The whole batch is decoded before anything is applied: the
		// (origin, epoch, seq) position deduplicates the batch as a unit,
		// so a half-applied batch must not exist.
		fr, err := transport.NewFrameReader(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
		if err != nil {
			writeBodyError(w, err)
			return
		}
		var tuples []transport.Tuple
		var t transport.Tuple
		for {
			if err := fr.NextTuple(&t); err != nil {
				if err == io.EOF {
					break
				}
				writeBodyError(w, err)
				return
			}
			tuples = append(tuples, t)
		}
		applied, err := deliver(origin, epoch, seq, tuples)
		if err != nil {
			// The durable log refused the write: retryable, same contract
			// as the agent ingest routes.
			writeBodyError(w, ingestError{err})
			return
		}
		writeJSON(w, topology.PeerAck{Applied: applied})
	})))
	mux.HandleFunc("POST /merge", nm.wrap("peer_merge", adm.guard(func(w http.ResponseWriter, r *http.Request) {
		if !opts.authorized(r) {
			http.Error(w, "httpapi: peer token required", http.StatusUnauthorized)
			return
		}
		if !hasContentType(w, r, topology.ContentTypePeerState, "peer updates") {
			return
		}
		upd, err := topology.ReadPeerUpdate(http.MaxBytesReader(w, r.Body, topology.MaxPeerUpdateBytes), r.ContentLength)
		if err != nil {
			writeBodyError(w, err)
			return
		}
		if upd.Origin == opts.Origin {
			http.Error(w, fmt.Sprintf("httpapi: peer update claims this node's own origin %q", upd.Origin), http.StatusBadRequest)
			return
		}
		applied, err := srv.MergePeerState(upd.Origin, upd.Epoch, upd.Seq, upd.State)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, topology.PeerAck{Applied: applied})
	})))
	mux.HandleFunc("GET /digest", nm.wrap("peer_digest", func(w http.ResponseWriter, r *http.Request) {
		if !opts.authorized(r) {
			http.Error(w, "httpapi: peer token required", http.StatusUnauthorized)
			return
		}
		var d topology.Digest
		if opts.Export != nil && opts.Epoch != 0 {
			// The self entry advertises the live local version, not the
			// last pushed seq: both are stamps of the same counter, so a
			// sibling holding the last push sees a gap exactly when local
			// state moved since.
			d.Entries = append(d.Entries, topology.DigestEntry{
				Origin: opts.Origin, Epoch: opts.Epoch, Seq: srv.LocalVersion(),
			})
		}
		for _, c := range srv.PeerStatus().Contributions {
			d.Entries = append(d.Entries, topology.DigestEntry{Origin: c.Origin, Epoch: c.Epoch, Seq: c.Seq})
		}
		writeJSON(w, d)
	}))
	mux.HandleFunc("GET /contrib", nm.wrap("peer_contrib", func(w http.ResponseWriter, r *http.Request) {
		if !opts.authorized(r) {
			http.Error(w, "httpapi: peer token required", http.StatusUnauthorized)
			return
		}
		origin := r.URL.Query().Get("origin")
		if origin == "" {
			http.Error(w, "httpapi: contrib fetch needs an origin query parameter", http.StatusBadRequest)
			return
		}
		if origin == opts.Origin && opts.Export != nil && opts.Epoch != 0 {
			// The version is captured BEFORE the export: the exported
			// content is at least that version, so the puller stores a
			// floor — the race with a concurrent ingest costs a redundant
			// refetch next round, never a missed update.
			version := srv.LocalVersion()
			writePeerUpdate(w, topology.PeerUpdate{Origin: origin, Epoch: opts.Epoch, Seq: version, State: opts.Export()})
			return
		}
		pos, state, ok := srv.PeerContribution(origin)
		if !ok {
			http.Error(w, fmt.Sprintf("httpapi: no stored contribution from origin %q", origin), http.StatusNotFound)
			return
		}
		writePeerUpdate(w, topology.PeerUpdate{Origin: origin, Epoch: pos.Epoch, Seq: pos.Seq, State: state})
	}))
	return mux
}

// hasContentType answers 415 unless the request body is of type want;
// what names the payload in the error.
func hasContentType(w http.ResponseWriter, r *http.Request, want, what string) bool {
	if ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err != nil || ct != want {
		http.Error(w, fmt.Sprintf("httpapi: %s are %s only", what, want), http.StatusUnsupportedMediaType)
		return false
	}
	return true
}

// writePeerUpdate answers with one binary peer update. The relay guard is
// never part of the encoding, so a puller cannot inherit this node's
// dedup state.
func writePeerUpdate(w http.ResponseWriter, u topology.PeerUpdate) {
	blob, err := topology.AppendPeerUpdate(nil, u)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", topology.ContentTypePeerState)
	// Declared, so the puller sizes its read buffer once (ReadPeerUpdate).
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	_, _ = w.Write(blob) // a failed write is the puller's read error
}

// RelayOptions is NodeOptions under its pre-unification name.
type RelayOptions = NodeOptions

// NewRelayHandler is NewNodeHandlerOpts for a node with a forwarder and no
// server. It survives as an adapter because benchmark/replica.go, which a
// change may not edit, compiles against it; new code sets
// NodeOptions.Forward directly.
func NewRelayHandler(shuf *shuffler.Shuffler, fwd *topology.Forwarder, opts RelayOptions) http.Handler {
	opts.Forward, opts.Role = fwd, string(topology.RoleRelay)
	return NewNodeHandlerOpts(shuf, nil, opts)
}
