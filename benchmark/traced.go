package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// tracedRun produces the per-layer metrics of one workload in three parts:
// a shortened run against the real nodes for the node.* counters and the
// generator's own figures, the traced in-process replica for the trace.*
// spans, and the stage ledger. End-to-end numbers are never taken from a
// traced run.
func tracedRun(ctx context.Context, root, bin string, cfg runConfig) (*measured, error) {
	short := cfg
	short.seconds = max(0.4*cfg.seconds, smokeSeconds) // no shorter than a smoke run: the probes need their deadline
	m, err := realRun(ctx, root, bin, short)
	if err != nil {
		return nil, err
	}
	in := generate(cfg.w, cfg.seed)
	dir, err := os.MkdirTemp(scratchRoot(root), "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := traceReplica(ctx, root, dir, cfg, in, m); err != nil {
		return nil, fmt.Errorf("traced replica: %w", err)
	}
	if err := runLedger(ctx, dir, cfg, in, m.values); err != nil {
		return nil, fmt.Errorf("stage ledger: %w", err)
	}
	return m, nil
}

// replicaDriver walks one fixed operation sequence over a replica with a
// single closed-loop client.
type replicaDriver struct {
	rep  *replica
	gen  *generator
	wk   *worker
	busy time.Duration // time spent inside operations
	next int           // next step of the sequence
}

func newReplicaDriver(rep *replica, in *inputs) *replicaDriver {
	gen := newGenerator(rep.w, in, 1, rep.asNodes("combined", "relay"), rep.asNodes("combined", "analyzer"))
	return &replicaDriver{rep: rep, gen: gen, wk: gen.newWorker()}
}

// The traced sequence: posts report POSTs and fetches model GETs evenly
// interleaved, a freshness probe every 1/40 of the way, and the replica's
// background duties on a step schedule. The replica serves about 4000
// steps a second, so 100 steps stand for the 25ms WAL sync timer and 1000
// for the 250ms peer-sync timer.
const (
	traceProbes   = 40
	walSyncEvery  = 100
	peerSyncEvery = 1000
)

func traceCounts(cfg runConfig) (posts, fetches, probes int) {
	posts = cfg.scaled(cfg.w.traceOps)
	fetches = posts * (cfg.w.mixLen - cfg.w.mixPosts) / cfg.w.mixPosts
	if !cfg.w.deviceMix {
		fetches = posts / 10
	}
	return posts, fetches, cfg.scaled(traceProbes)
}

// advance runs steps [d.next, until) of the sequence.
func (d *replicaDriver) advance(cfg runConfig, until int) error {
	posts, fetches, probes := traceCounts(cfg)
	total := posts + fetches
	tr := d.rep.tr
	// The root span is the client's round trip: it ends when the response
	// has been read, not when the generator has finished checking it.
	timed := func(req int, op func() error) error {
		d.wk.req = req
		start := time.Now()
		if tr != nil {
			root := tr.begin("loadgen.wire", req)
			d.wk.onAnswer = func() { tr.end(root) }
		}
		err := op()
		d.busy += d.wk.answered.Sub(start)
		return err
	}
	for ; d.next < until; d.next++ {
		i := d.next
		// Step i is a POST when the running POST count crosses an integer:
		// the two kinds spread evenly whatever their ratio.
		err := timed(i+1, func() error {
			if n := (i + 1) * posts / total; n > i*posts/total {
				_, err := d.wk.post((n-1)%len(d.gen.ingestURLs), d.gen.in.bodies[(n-1)%len(d.gen.in.bodies)])
				return err
			}
			f := i - (i+1)*posts/total
			_, err := d.wk.fetch(f%len(d.gen.modelURLs), d.gen.in.fetches[f%len(d.gen.in.fetches)])
			return err
		})
		if err != nil {
			return err
		}
		if every := total / probes; i%every == every/2 {
			err := timed(total+1+i/every, func() error {
				_, err := d.wk.post(0, d.gen.in.probes[(i/every)%probeCodes])
				return err
			})
			if err != nil {
				return err
			}
		}
		if err := d.rep.background(i%walSyncEvery == walSyncEvery-1, i%peerSyncEvery == peerSyncEvery-1); err != nil {
			return err
		}
	}
	return nil
}

// traceReplica runs the fixed sequence on two replicas of the topology —
// one with every decorator on, one wired bare — alternating between them
// in slices so drift on the machine hits both alike, then derives the
// trace.* metrics from the spans and the replicas' own WAL histograms.
func traceReplica(ctx context.Context, root, dir string, cfg runConfig, in *inputs, m *measured) error {
	tr := newTracer()
	var drivers [2]*replicaDriver
	for i, t := range []*tracer{nil, tr} {
		sub, err := os.MkdirTemp(dir, "replica-")
		if err != nil {
			return err
		}
		rep, err := buildReplica(cfg.w, sub, t)
		if err != nil {
			return err
		}
		defer rep.close()
		drivers[i] = newReplicaDriver(rep, in)
	}
	posts, fetches, _ := traceCounts(cfg)
	total := posts + fetches
	const slices = 8
	for s := 1; s <= slices; s++ {
		for _, d := range drivers {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := d.advance(cfg, total*s/slices); err != nil {
				return err
			}
		}
	}
	bare, traced := drivers[0], drivers[1]
	rep := traced.rep
	m.values["trace.overhead_share"] = 1 - float64(bare.busy)/float64(traced.busy)
	m.violations = append(m.violations,
		checkConservation(traced.gen.client, rep.asNodes("combined", "relay"), rep.asNodes("combined", "analyzer"), traced.gen.ackedCounts())...)
	m.violations = append(m.violations, traced.gen.violations...)
	m.attempted += traced.gen.attempted.Load() + bare.gen.attempted.Load()
	m.failed += traced.gen.failed.Load() + bare.gen.failed.Load()

	agg := selfTimes(tr.spans)
	// The managers' own histograms split what the decorators cannot see
	// into: an append (with its inline fsync in strict mode) happens inside
	// persist.submit on an ingest node and inside httpapi.peer_ingest on an
	// analyzer; a relay's cursor sync is itself one fsync.
	seconds := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	var appends, fsyncs, batchesCut int64
	var appendTime, ingestAppend, peerAppend, fsyncTime time.Duration
	for _, n := range rep.nodes {
		spent := seconds(n.pm.AppendSeconds.Sum())
		appends += n.pm.AppendSeconds.Count()
		appendTime += spent
		if n.role == "analyzer" {
			peerAppend += spent
		} else {
			ingestAppend += spent
			batchesCut += n.shuf.Stats().Batches
		}
		fsyncs += n.pm.FsyncSeconds.Count()
		fsyncTime += seconds(n.pm.FsyncSeconds.Sum())
	}
	inlineFsync := time.Duration(0)
	if cfg.w.walSync == "0" {
		inlineFsync = fsyncTime
	}
	self := map[string]time.Duration{}
	calls := map[string]int64{}
	for name, a := range agg {
		self[name], calls[name] = a.self, int64(a.calls)
	}
	self["persist.wal_append"], calls["persist.wal_append"] = appendTime-inlineFsync, appends
	self["persist.wal_fsync"], calls["persist.wal_fsync"] = max(fsyncTime-agg["persist.cursor_sync"].total, 0), fsyncs
	self["shuffler.cut"], calls["shuffler.cut"] = max(self["persist.submit"]-ingestAppend, 0), batchesCut
	self["persist.submit"] = 0 // all of it is accounted to wal_append, wal_fsync and shuffler.cut
	self["httpapi.peer_ingest"] = max(self["httpapi.peer_ingest"]-peerAppend, 0)
	rootTotal := agg["loadgen.wire"].total
	for _, name := range traceSpans {
		m.values["trace."+name+".calls"] = float64(calls[name])
		m.values["trace."+name+".share"] = float64(self[name]) / float64(rootTotal)
	}
	return writeSpans(root, cfg.w.name, tr.spans)
}
