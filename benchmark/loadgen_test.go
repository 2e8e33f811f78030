package main

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"p2b/internal/rng"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

func TestWindowPercentileIgnoresStalledWindows(t *testing.T) {
	const perWindow, openWindows = 300, 24
	phase := time.Duration(openWindows) * time.Second
	var samples []sample
	for w := 0; w < openWindows; w++ {
		for i := 0; i < perWindow; i++ {
			lat := time.Duration(i+1) * time.Microsecond // p99 of 1..300us is 297us
			if w%5 == 3 {
				lat = 100 * time.Millisecond // every fifth window stalls completely
			}
			due := time.Duration(w)*time.Second + time.Duration(i)*time.Second/perWindow
			samples = append(samples, sample{due, lat})
		}
	}
	got, ok := windowPercentile(samples, phase, openWindows, 0.99)
	if !ok || math.Abs(got-0.297) > 1e-9 {
		t.Fatalf("p99 = %v ms (ok=%v), want 0.297: stalled windows must not move the median of windows", got, ok)
	}
	if p50, _ := windowPercentile(samples, phase, openWindows, 0.50); math.Abs(p50-0.150) > 1e-9 {
		t.Fatalf("p50 = %v ms, want 0.150", p50)
	}
}

func TestWindowPercentileFallsBackWhenWindowsAreThin(t *testing.T) {
	const openWindows = 24
	phase := 12 * time.Second
	var samples []sample
	for i := 0; i < 1500; i++ { // 62 per window: under two beyond a per-window p99, 15 beyond overall
		samples = append(samples, sample{time.Duration(i) * phase / 1500, time.Duration(i+1) * time.Microsecond})
	}
	got, ok := windowPercentile(samples, phase, openWindows, 0.99)
	if !ok || math.Abs(got-1.485) > 1e-9 {
		t.Fatalf("whole-phase p99 = %v ms (ok=%v), want 1.485", got, ok)
	}
	if _, ok := windowPercentile(samples[:500], phase, openWindows, 0.99); ok {
		t.Fatal("500 samples leave 5 beyond a p99: the estimate must be flagged as unsupported")
	}
}

func TestWindowRateIsTheMedianWindow(t *testing.T) {
	phase := 4 * time.Second
	var done []completion
	for w, n := range []int{100, 300, 200, 5000} { // one window bursts
		for i := 0; i < n; i++ {
			done = append(done, completion{time.Duration(w)*time.Second + time.Millisecond, 2})
		}
	}
	done = append(done, completion{phase + time.Millisecond, 1000}) // finished after the phase: not counted
	if got := median(windowRates(done, phase, closedWindows)); got != 500 {
		t.Fatalf("rate = %v units/s, want 500 (median of 200, 600, 400, 10000)", got)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spread = %v, want 1.0", got)
	}
	// statistics.quantiles([10,12,11,13,9,10,11,12,10,11], n=4) == [10.0, 11.0, 12.0]
	if got := quartileSpread([]float64{10, 12, 11, 13, 9, 10, 11, 12, 10, 11}); math.Abs(got-2.0/11) > 1e-12 {
		t.Fatalf("spread = %v, want 2/11", got)
	}
}

func TestScheduleMergesStreamsInDueOrder(t *testing.T) {
	w, _ := workloadByName("ingest_strict")
	dur := 4 * time.Second
	ops := buildSchedule(w, dur)
	if !sort.SliceIsSorted(ops, func(i, j int) bool { return ops[i].due < ops[j].due }) {
		t.Fatal("the merged schedule is not ordered by due time")
	}
	counts := map[opKind]int{}
	next := map[opKind]int{}
	for _, op := range ops {
		if op.due < 0 || op.due >= dur {
			t.Fatalf("operation due at %v lies outside the phase", op.due)
		}
		if op.n != next[op.kind] {
			t.Fatalf("stream %d is out of order: got element %d, want %d", op.kind, op.n, next[op.kind])
		}
		next[op.kind]++
		counts[op.kind]++
		if op.kind == opProbe && op.due >= dur-probeDeadline/2 {
			t.Fatalf("probe due at %v cannot be resolved before the phase ends", op.due)
		}
	}
	if want := int(w.postRate * dur.Seconds()); counts[opPost] < want-1 || counts[opPost] > want+1 {
		t.Fatalf("%d POSTs scheduled, want about %d", counts[opPost], want)
	}
	if want := int(w.fetchRate * dur.Seconds()); counts[opFetch] < want-1 || counts[opFetch] > want+1 {
		t.Fatalf("%d fetches scheduled, want about %d", counts[opFetch], want)
	}
	if want := int((dur - probeDeadline/2) / probePeriod); counts[opProbe] < want-1 || counts[opProbe] > want+1 {
		t.Fatalf("%d probes scheduled, want about %d", counts[opProbe], want)
	}
}

// TestOpenLoopChargesQueueWaitToTheSystem stalls one request of a
// single-worker open loop. The requests queued behind it must be timed
// from when they were due (so their latency contains the wait) and the
// generator must own up to having started them late.
func TestOpenLoopChargesQueueWaitToTheSystem(t *testing.T) {
	w, _ := workloadByName("ingest_strict")
	w.postRate, w.fetchRate = 100, 0
	s := newStubNode(t, w)
	const stall = 150 * time.Millisecond
	s.stall[20] = stall
	ingest := []*node{s.as("combined")}
	gen := newGenerator(w, generate(w, 3), 1, ingest, ingest)
	gen.fanout = 1 // one worker in all: everything due during the stall must queue
	res := gen.openLoop(context.Background(), time.Second)
	if gen.failed.Load() != 0 || res.missed != 0 {
		t.Fatalf("%d failed, %d missed operations against a healthy stub", gen.failed.Load(), res.missed)
	}
	queued := 0
	for _, smp := range res.reports {
		if smp.latency > stall/2 {
			queued++
		}
	}
	// At 100/s a 150ms stall delays the stalled request and the ~14 due
	// during it; a generator timing from send time would show exactly one.
	if queued < 8 {
		t.Fatalf("only %d requests carry the stall in their latency; queue wait is being hidden", queued)
	}
	sort.Float64s(res.lateness)
	if worst := res.lateness[len(res.lateness)-1]; worst < float64(stall/2)/float64(time.Millisecond) {
		t.Fatalf("worst lateness %vms: the generator did not report running late", worst)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 30, End: 60, Parent: 0},  // overlaps the first by 10
		{Name: "child", Start: 80, End: 120, Parent: 0}, // runs past the parent's end
		{Name: "grandchild", Start: 15, End: 20, Parent: 1},
	}
	agg := selfTimes(spans)
	if got := agg["parent"].self; got != 30 {
		t.Fatalf("parent self time = %d, want 30 (100 minus the 50+20 its children cover)", got)
	}
	if got := agg["child"]; got.calls != 3 || got.total != 100 || got.self != 95 {
		t.Fatalf("child totals = %+v, want 3 calls, total 100, self 95", got)
	}
}

func TestTracerNestsByContainment(t *testing.T) {
	tr := newTracer()
	root := tr.begin("loadgen.wire", 7)
	h := tr.begin("httpapi.reports", -1)
	s := tr.begin("persist.submit", -1)
	tr.end(s)
	tr.end(h)
	tr.end(root)
	next := tr.begin("loadgen.wire", 8)
	tr.end(next)
	want := []struct{ parent, req int }{{-1, 7}, {0, 7}, {1, 7}, {-1, 8}}
	for i, w := range want {
		if tr.spans[i].Parent != w.parent || tr.spans[i].Req != w.req {
			t.Fatalf("span %d has parent %d req %d, want parent %d req %d", i, tr.spans[i].Parent, tr.spans[i].Req, w.parent, w.req)
		}
	}
}

// TestProbeSurvivesThresholdAtEveryOffset is the guarantee the freshness
// probe rests on: 2*threshold identical tuples, contiguous in the
// shuffler's buffer, leave at least threshold of themselves in one batch
// wherever in the buffer they land — so a probe is never thresholded away
// entirely and always becomes visible.
func TestProbeSurvivesThresholdAtEveryOffset(t *testing.T) {
	const probeCode = ingestK - 1
	filler := func(n int) []transport.Tuple {
		out := make([]transport.Tuple, n)
		for i := range out {
			out[i] = transport.Tuple{Code: i % 8, Action: 0, Reward: 1}
		}
		return out
	}
	probe := make([]transport.Tuple, 2*threshold)
	for i := range probe {
		probe[i] = transport.Tuple{Code: probeCode, Action: 0, Reward: 1}
	}
	for offset := 0; offset < shufflerBatch; offset++ {
		best := 0
		sink := shuffler.SinkFunc(func(batch []transport.Tuple) {
			n := 0
			for _, tu := range batch {
				if tu.Code == probeCode {
					n++
				}
			}
			if n > best {
				best = n
			}
		})
		sh := shuffler.New(shuffler.Config{BatchSize: shufflerBatch, Threshold: threshold}, sink, rng.New(uint64(offset)+1))
		sh.SubmitTuples(filler(offset))
		sh.SubmitTuples(probe)
		sh.SubmitTuples(filler(2 * shufflerBatch))
		if best < threshold {
			t.Fatalf("at buffer offset %d the best batch kept %d probe tuples, want >= %d", offset, best, threshold)
		}
	}
}

func TestVisibilityResolvesProbesAgainstBaseline(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	obs := func(node, ms int, c0 float64) observation {
		o := observation{node: node, at: at(ms)}
		o.counts[0] = c0
		return o
	}
	res := openResult{
		probes: []probe{{code: 0, due: at(100)}, {code: 0, due: at(5000)}},
		seen: []observation{
			obs(0, 50, 8),   // the baseline: an earlier probe already raised the cell to 8
			obs(0, 110, 8),  // after the probe was due, nothing new yet
			obs(1, 120, 12), // another node: must not resolve node 0's probe
			obs(0, 130, 12), // visible here, 30ms after it was due
			obs(0, 5100, 12),
		},
	}
	ms, unresolved := visibility(res, 0)
	if len(ms) != 1 || ms[0] != 30 || unresolved != 1 {
		t.Fatalf("visibility = %v with %d unresolved, want [30] with 1 unresolved", ms, unresolved)
	}
}
