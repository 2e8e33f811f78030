package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"p2b/agent"
	"p2b/internal/httpapi"
	"p2b/internal/metrics"
	"p2b/internal/persist"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// The stage ledger: one direct, single-threaded, fixed-count measurement
// per pipeline stage, through public functions only, on this run's
// generated inputs. It answers "what does this layer cost when nothing
// else is in the way", which is what a change to that layer moves first.

// stageCost times n calls of op. prep, when non-nil, runs before each call
// outside the timer and outside the allocation count (it sets up the state
// op consumes, such as a version bump before a snapshot build).
func stageCost(n int, prep, op func(i int)) (nsPerOp, allocsPerOp float64) {
	if prep != nil {
		prep(-1)
	}
	op(-1) // warm caches, pools and lazily built state
	var ms runtime.MemStats
	var elapsed time.Duration
	var mallocs uint64
	if prep == nil {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		elapsed = time.Since(start)
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - before
	} else {
		for i := 0; i < n; i++ {
			prep(i)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			start := time.Now()
			op(i)
			elapsed += time.Since(start)
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
		}
	}
	return float64(elapsed.Nanoseconds()) / float64(n), float64(mallocs) / float64(n)
}

// hashEncoder is the smallest agent.Encoder: the ledger times the SDK's
// select/observe bookkeeping, not an encoder.
type hashEncoder struct{ k int }

func (e hashEncoder) Encode(x []float64) int { return int(x[0]*float64(e.k)) % e.k }
func (e hashEncoder) K() int                 { return e.k }

// runLedger measures every stage of ledgerStages and stores
// <stage>.ns_per_op and <stage>.allocs_per_op in values. Shapes are the
// workload's, except persist.checkpoint which always runs at the default
// node shapes (where a checkpoint is big enough to matter).
func runLedger(ctx context.Context, dir string, cfg runConfig, in *inputs, values map[string]float64) error {
	w := cfg.w
	var failure error
	fail := func(format string, args ...any) {
		if failure == nil {
			failure = fmt.Errorf(format, args...)
		}
	}
	record := func(stage string, n int, prep, op func(i int)) {
		if ctx.Err() != nil || failure != nil {
			return
		}
		ns, allocs := stageCost(cfg.scaled(n), prep, op)
		values[stage+".ns_per_op"], values[stage+".allocs_per_op"] = ns, allocs
	}
	body := func(i int) []byte { return in.bodies[(i+len(in.bodies))%len(in.bodies)] }
	tuples := func(i int) []transport.Tuple { return in.tuples[(i+len(in.tuples))%len(in.tuples)] }
	// A realistic privacy batch: what a shuffler cut of background traffic
	// keeps after thresholding.
	var batch []transport.Tuple
	collect := shuffler.New(shuffler.Config{BatchSize: shufflerBatch, Threshold: threshold},
		shuffler.SinkFunc(func(b []transport.Tuple) {
			if batch == nil {
				batch = append(batch, b...)
			}
		}), rng.New(cfg.seed).Split("ledger"))
	for i := 0; batch == nil && i < len(in.tuples); i++ {
		collect.SubmitTuples(tuples(i))
	}
	if len(batch) == 0 {
		return fmt.Errorf("no privacy batch survived thresholding")
	}
	newServer := func(k, arms int) *server.Server {
		return server.New(server.Config{K: k, Arms: arms, D: w.d, Alpha: 1, Seed: 1})
	}
	newShuffler := func(sink shuffler.Sink) *shuffler.Shuffler {
		return shuffler.New(shuffler.Config{BatchSize: shufflerBatch, Threshold: threshold}, sink, rng.New(1).Split("shuffler"))
	}
	nodeHandler := func(srv *server.Server, opts httpapi.NodeOptions) http.Handler {
		opts.Admission = httpapi.NewAdmission(httpapi.AdmissionConfig{MaxInFlight: 256, MaxInFlightBytes: 64 << 20})
		opts.Metrics = metrics.NewRegistry()
		return httpapi.NewNodeHandlerOpts(newShuffler(srv), srv, opts)
	}

	// transport: one op is one report's frame.
	record("transport.frame_decode", 2000, nil, func(i int) {
		fr, err := transport.NewFrameReader(bytes.NewReader(body(i)))
		if err != nil {
			fail("frame_decode: %v", err)
			return
		}
		var t transport.Tuple
		for fr.NextTuple(&t) == nil {
		}
	})
	values["transport.frame_decode.ns_per_op"] /= float64(w.bodyReports)
	values["transport.frame_decode.allocs_per_op"] /= float64(w.bodyReports)

	// httpapi: one op is one POST of a whole body through the node handler.
	reports := nodeHandler(newServer(w.k, w.arms), httpapi.NodeOptions{})
	record("httpapi.reports_handler", 2000, nil, func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/shuffler/reports", bytes.NewReader(body(i)))
		req.Header.Set("Content-Type", transport.ContentTypeBinary)
		rec := httptest.NewRecorder()
		reports.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			fail("reports_handler: status %d", rec.Code)
		}
	})

	// shuffler: one op is one body's tuples submitted (cuts included).
	discard := newShuffler(shuffler.SinkFunc(func([]transport.Tuple) {}))
	record("shuffler.submit_cut", 5000, nil, func(i int) { discard.SubmitTuples(tuples(i)) })

	// persist: WAL appends of one body's tuples, the cursor record, and a
	// checkpoint at default shapes.
	walDir := filepath.Join(dir, "ledger-wal")
	if err := os.Mkdir(walDir, 0o755); err != nil {
		return err
	}
	wal, _, err := persist.OpenWAL(walDir)
	if err != nil {
		return err
	}
	defer wal.Close()
	appendOp := func(sync bool) func(int) {
		return func(i int) {
			if _, err := wal.AppendTuples(tuples(i), sync); err != nil {
				fail("wal append: %v", err)
			}
		}
	}
	record("persist.wal_append_sync0", 400, nil, appendOp(true))
	record("persist.wal_append_nosync", 5000, nil, appendOp(false))
	record("persist.cursor_append", 400, nil, func(i int) {
		if _, err := wal.AppendCursor(1, uint64(i+2), true); err != nil {
			fail("cursor append: %v", err)
		}
	})
	big := newServer(1024, 20)
	bigShuf := newShuffler(big)
	mgr, err := persist.Open(filepath.Join(dir, "ledger-ckpt"), bigShuf, big, persist.Options{SyncInterval: time.Hour, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	defer mgr.Close()
	record("persist.checkpoint", 20, func(i int) {
		// A checkpoint with no WAL movement since the last one is skipped.
		if err := mgr.SubmitTuples(tuples(i)); err != nil {
			fail("checkpoint prep: %v", err)
		}
	}, func(int) {
		if err := mgr.Checkpoint(); err != nil {
			fail("checkpoint: %v", err)
		}
	})

	// server: ingest, replication and snapshot builds.
	srv := newServer(w.k, w.arms)
	record("server.deliver", 20000, nil, func(int) { srv.Deliver(batch) })
	record("server.deliver_peer", 20000, nil, func(i int) { srv.DeliverPeerBatch("ledger-relay", 1, uint64(i+2), batch) })
	record("server.export_state", 200, nil, func(int) { _ = srv.ExportState() })
	state, sibling := srv.ExportState(), newServer(w.k, w.arms)
	record("server.merge_peer", 2000, nil, func(i int) {
		if _, err := sibling.MergePeerState("ledger-analyzer", 1, uint64(i+2), state); err != nil {
			fail("merge_peer: %v", err)
		}
	})
	bump := func(int) { srv.Deliver(batch) }
	record("server.tabular_build", 200, bump, func(int) { _, _ = srv.TabularModel() })
	record("server.linucb_build", 100, bump, func(int) { _, _ = srv.LinUCBModel() })
	record("server.snapshot_hit", 100000, nil, func(int) { _, _ = srv.TabularModel() })

	// transport: model payload encode and decode.
	tab, version := srv.TabularModel()
	lin, _ := srv.LinUCBModel()
	var buf []byte
	record("transport.tabular_encode", 2000, nil, func(int) { buf = transport.AppendTabularModel(buf[:0], version, tab) })
	payload := append([]byte(nil), buf...)
	record("transport.linear_encode", 2000, nil, func(int) { buf = transport.AppendLinearModel(buf[:0], version, lin) })
	record("transport.model_decode", 2000, nil, func(int) {
		if _, _, _, err := transport.DecodeModel(payload); err != nil {
			fail("model_decode: %v", err)
		}
	})

	// httpapi: the model route from the payload cache, and a revalidation.
	model := nodeHandler(srv, httpapi.NodeOptions{})
	get := func(etag string, want int) func(int) {
		return func(int) {
			req := httptest.NewRequest(http.MethodGet, "/server/model?kind=tabular", nil)
			req.Header.Set("Accept", transport.ContentTypeModel)
			if etag != "" {
				req.Header.Set("If-None-Match", etag)
			}
			rec := httptest.NewRecorder()
			model.ServeHTTP(rec, req)
			if rec.Code != want {
				fail("model handler: status %d, want %d", rec.Code, want)
			}
		}
	}
	record("httpapi.model_handler_hit", 5000, nil, get("", http.StatusOK))
	first := httptest.NewRecorder()
	firstReq := httptest.NewRequest(http.MethodGet, "/server/model?kind=tabular", nil)
	firstReq.Header.Set("Accept", transport.ContentTypeModel)
	model.ServeHTTP(first, firstReq)
	record("httpapi.model_handler_304", 20000, nil, get(first.Header().Get("ETag"), http.StatusNotModified))

	// topology: one privacy batch forwarded to an in-process analyzer.
	analyzer := httptest.NewServer(nodeHandler(newServer(w.k, w.arms), httpapi.NodeOptions{
		Role: "analyzer", Peer: &httpapi.PeerOptions{Origin: "ledger-analyzer", Token: peerToken},
	}))
	defer analyzer.Close()
	fwd, err := topology.NewForwarder(analyzer.URL, topology.ForwarderOptions{Origin: "ledger-relay", Token: peerToken})
	if err != nil {
		return err
	}
	record("topology.forward_roundtrip", 2000, nil, func(int) { fwd.Deliver(batch) })
	if st := fwd.Stats(); st.Dropped != 0 {
		fail("forward_roundtrip: %d batches dropped: %s", st.Dropped, st.LastError)
	}

	// agent: the SDK's report path amortised over its flushes (one op is
	// one Report; every bodyReports-th fills a batch and POSTs it), and the
	// per-interaction select/observe cost of a cold tabular learner.
	device := httptest.NewServer(nodeHandler(newServer(w.k, w.arms), httpapi.NodeOptions{}))
	defer device.Close()
	sdk := agent.NewHTTPTransport(device.URL, agent.HTTPTransportOptions{MaxBatch: w.bodyReports, MaxAge: time.Hour})
	envelope := func(i int) agent.Envelope {
		return agent.Envelope{Meta: agent.Metadata{DeviceID: "ledger-device"}, Tuple: tuples(i / w.bodyReports)[(i+w.bodyReports)%w.bodyReports]}
	}
	reportN := cfg.scaled(100000)
	record("agent.report", 100000, nil, func(i int) {
		if err := sdk.Report(envelope(i)); err != nil {
			fail("agent.report: %v", err)
		}
		if i == reportN-1 {
			// The tail flush belongs to the amortised cost.
			if err := sdk.Close(); err != nil {
				fail("agent.report: close: %v", err)
			}
		}
	})
	ag, err := agent.New(agent.Config{Policy: agent.PolicyTabular, Arms: w.arms, Encoder: hashEncoder{w.k}, Rand: rng.New(cfg.seed).Split("agent")})
	if err != nil {
		return err
	}
	xr := rng.New(cfg.seed).Split("contexts")
	contexts := make([][]float64, 256)
	for i := range contexts {
		contexts[i] = xr.Simplex(w.d)
	}
	record("agent.select_observe", 200000, nil, func(i int) {
		a := ag.Select(contexts[(i+256)%256])
		ag.Observe(a, float64(i&1))
	})
	if failure != nil {
		return failure
	}
	return ctx.Err()
}
