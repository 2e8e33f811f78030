package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p2b/internal/bandit"
	"p2b/internal/transport"
)

// requestTimeout bounds one request; an operation the open loop could not
// even start within it of its due time is counted as missed, not sent.
const requestTimeout = 5 * time.Second

// probeDeadline is how long a freshness probe may stay invisible.
const probeDeadline = 2 * time.Second

// openFanout is how many open-loop workers stand behind each closed-loop
// worker. The closed loop models C clients that each wait for their reply;
// the open loop models independent devices, so it needs enough workers that
// a slow reply delays nobody else's request — otherwise the queue forms in
// the generator and the latencies measure the generator.
const openFanout = 8

// generator drives one topology from a single process with a fixed number
// of workers, each holding at most one request in flight: workers in the
// closed loop, openFanout times as many in the open loop.
type generator struct {
	w       workload
	in      *inputs
	client  *http.Client
	workers int // closed-loop workers
	fanout  int // open-loop workers per closed-loop worker

	ingestURLs []string    // POST /shuffler/reports per ingest node
	modelURLs  [][2]string // GET /server/model?kind= per model node: [tabular, linucb]

	attempted atomic.Int64
	failed    atomic.Int64
	acked     []atomic.Int64 // accepted reports per ingest node, over the node's whole life

	mu         sync.Mutex
	violations []string // failed fetch-validity or crowd-threshold checks
}

func newGenerator(w workload, in *inputs, workers int, ingest, models []*node) *generator {
	g := &generator{
		w: w, in: in, workers: workers, fanout: openFanout,
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        4 * openFanout * workers,
				MaxIdleConnsPerHost: openFanout * workers,
			},
		},
		acked: make([]atomic.Int64, len(ingest)),
	}
	for _, n := range ingest {
		g.ingestURLs = append(g.ingestURLs, n.url+"/shuffler/reports")
	}
	for _, n := range models {
		g.modelURLs = append(g.modelURLs, [2]string{
			n.url + "/server/model?kind=tabular",
			n.url + "/server/model?kind=linucb",
		})
	}
	return g
}

// violate records one correctness failure observed on the wire.
func (g *generator) violate(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.violations) < 20 {
		g.violations = append(g.violations, fmt.Sprintf(format, args...))
	}
}

// worker is one connection's worth of client state: the validators a
// device would hold (last ETag per representation) and the last model
// version each node showed it, which must never decrease.
type worker struct {
	g    *generator
	buf  bytes.Buffer
	etag [][2][2]string // [model node][kind][encoding]
	seen []uint64       // last model version per model node
	req  int            // when positive, the request number stamped on outgoing requests for the tracer

	// answered is when the last response had been read to its end — where
	// a latency stops, before the generator spends time decoding and
	// checking the body. onAnswer, when set, is called at that instant.
	answered time.Time
	onAnswer func()
}

func (g *generator) newWorker() *worker {
	return &worker{g: g, etag: make([][2][2]string, len(g.modelURLs)), seen: make([]uint64, len(g.modelURLs))}
}

// markAnswered notes that the response in flight has been read completely.
func (wk *worker) markAnswered() {
	wk.answered = time.Now()
	if wk.onAnswer != nil {
		wk.onAnswer()
	}
}

// stamp marks req with the worker's current request number, if it has one.
func (wk *worker) stamp(req *http.Request) {
	if wk.req > 0 {
		req.Header.Set(requestHeader, strconv.Itoa(wk.req))
	}
}

// post sends one pre-encoded batch body to ingest node t and returns how
// many reports the node acknowledged. Any outcome but 202 is a failed op.
func (wk *worker) post(t int, body []byte) (int, error) {
	g := wk.g
	g.attempted.Add(1)
	accepted, err := wk.doPost(g.ingestURLs[t], body)
	if err != nil {
		g.failed.Add(1)
		return 0, err
	}
	g.acked[t].Add(int64(accepted))
	return accepted, nil
}

func (wk *worker) doPost(url string, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", transport.ContentTypeBinary)
	wk.stamp(req)
	resp, err := wk.g.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	wk.buf.Reset()
	if _, err := wk.buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	wk.markAnswered()
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(wk.buf.Bytes()))
	}
	var ack struct{ Accepted, Dropped int }
	if err := json.Unmarshal(wk.buf.Bytes(), &ack); err != nil {
		return 0, fmt.Errorf("POST %s: bad ack: %w", url, err)
	}
	return ack.Accepted, nil
}

// fetched is what one model GET told the generator.
type fetched struct {
	tabular *bandit.TabularState // non-nil on a tabular 200
}

// fetch performs one model GET against model node t and validates the
// answer: a 200 must decode at the advertised shapes and keep every code's
// crowd at 0 or >= threshold; a 304 must echo the validator this worker
// was issued by that node; versions never go backwards.
func (wk *worker) fetch(t int, shape fetchShape) (fetched, error) {
	g := wk.g
	g.attempted.Add(1)
	out, err := wk.doFetch(t, shape)
	if err != nil {
		g.failed.Add(1)
	}
	return out, err
}

func (wk *worker) doFetch(t int, shape fetchShape) (fetched, error) {
	g := wk.g
	kind, enc := 0, 0
	if shape.linucb {
		kind = 1
	}
	if shape.json {
		enc = 1
	}
	url := g.modelURLs[t][kind]
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return fetched{}, err
	}
	if shape.json {
		req.Header.Set("Accept", "application/json")
	} else {
		req.Header.Set("Accept", transport.ContentTypeModel)
	}
	sent := ""
	if shape.conditional {
		if sent = wk.etag[t][kind][enc]; sent != "" {
			req.Header.Set("If-None-Match", sent)
		}
	}
	wk.stamp(req)
	resp, err := g.client.Do(req)
	if err != nil {
		return fetched{}, err
	}
	defer resp.Body.Close()
	wk.buf.Reset()
	if _, err := wk.buf.ReadFrom(resp.Body); err != nil {
		return fetched{}, err
	}
	wk.markAnswered()
	version, verr := strconv.ParseUint(resp.Header.Get("X-P2b-Model-Version"), 10, 64)
	if verr != nil {
		g.violate("GET %s: missing or bad model version header", url)
	} else if version < wk.seen[t] {
		g.violate("GET %s: model version went back from %d to %d", url, wk.seen[t], version)
	} else {
		wk.seen[t] = version
	}
	etag := resp.Header.Get("ETag")
	switch resp.StatusCode {
	case http.StatusNotModified:
		if sent == "" || etag != sent {
			g.violate("GET %s: 304 with ETag %q for If-None-Match %q", url, etag, sent)
		}
		return fetched{}, nil
	case http.StatusOK:
	default:
		return fetched{}, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	wk.etag[t][kind][enc] = etag
	tab, lin, err := decodeModelBody(wk.buf.Bytes(), shape)
	if err != nil {
		g.violate("GET %s: %v", url, err)
		return fetched{}, nil
	}
	if tab != nil {
		if msg := checkTabular(tab, g.w); msg != "" {
			g.violate("GET %s: %s", url, msg)
		}
	} else if lin.D != g.w.d || lin.Arms != g.w.arms || len(lin.AInv) != g.w.arms || len(lin.B) != g.w.arms {
		g.violate("GET %s: linucb model has shapes d=%d arms=%d, node advertises d=%d arms=%d", url, lin.D, lin.Arms, g.w.d, g.w.arms)
	}
	return fetched{tabular: tab}, nil
}

// decodeModelBody decodes a 200 body in the encoding shape asked for.
func decodeModelBody(body []byte, shape fetchShape) (*bandit.TabularState, *bandit.LinUCBState, error) {
	if !shape.json {
		_, tab, lin, err := transport.DecodeModel(body)
		if err == nil && (tab == nil) == !shape.linucb {
			err = fmt.Errorf("binary model of the wrong kind")
		}
		return tab, lin, err
	}
	if shape.linucb {
		lin := new(bandit.LinUCBState)
		return nil, lin, json.Unmarshal(body, lin)
	}
	tab := new(bandit.TabularState)
	return tab, nil, json.Unmarshal(body, tab)
}

// checkTabular enforces the two properties every served tabular model must
// have: the advertised shapes, and the crowd-blending guarantee at the
// output — each code's count summed over actions is 0 or >= threshold,
// because every batch contributed 0 or >= threshold tuples of it.
func checkTabular(tab *bandit.TabularState, w workload) string {
	if tab.K != w.k || tab.Arms != w.arms || len(tab.Count) != w.k*w.arms || len(tab.Sum) != w.k*w.arms {
		return fmt.Sprintf("tabular model has shapes k=%d arms=%d (%d counts), node advertises k=%d arms=%d", tab.K, tab.Arms, len(tab.Count), w.k, w.arms)
	}
	for code := 0; code < w.k; code++ {
		crowd := 0.0
		for _, c := range tab.Count[code*w.arms : (code+1)*w.arms] {
			crowd += c
		}
		if crowd != 0 && crowd < threshold {
			return fmt.Sprintf("code %d is served with a crowd of %v, below the threshold %d", code, crowd, threshold)
		}
	}
	return ""
}

// probeCounts extracts the reserved probe cells of a tabular model.
func probeCounts(tab *bandit.TabularState, w workload) (out [probeCodes]float64) {
	for c := range out {
		out[c] = tab.Count[(w.probeBase()+c)*w.arms]
	}
	return out
}

// closedResult is what phase A measured.
type closedResult struct {
	reports []completion // accepted reports per finished POST
	fetches []completion // one per finished model GET (200 or 304)
}

// closedLoop runs the closed loop for dur: every worker sends its next
// operation when the previous one is acknowledged, cycling through the
// workload's mix, alternating ingest and model nodes and walking the body
// set from a worker-specific offset.
func (g *generator) closedLoop(ctx context.Context, dur time.Duration) closedResult {
	start := time.Now()
	results := make([]closedResult, g.workers)
	var wg sync.WaitGroup
	for id := 0; id < g.workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wk, res := g.newWorker(), &results[id]
			posts, fetches := 0, 0
			for i := id * g.w.mixLen / g.workers; time.Since(start) < dur && ctx.Err() == nil; i++ {
				if i%g.w.mixLen < g.w.mixPosts {
					body := g.in.bodies[(id*131+posts)%len(g.in.bodies)]
					n, err := wk.post((id+posts)%len(g.ingestURLs), body)
					posts++
					if err == nil {
						res.reports = append(res.reports, completion{time.Since(start), n})
					}
					continue
				}
				shape := g.in.fetches[(id*977+fetches)%len(g.in.fetches)]
				_, err := wk.fetch((id+fetches)%len(g.modelURLs), shape)
				fetches++
				if err == nil {
					res.fetches = append(res.fetches, completion{time.Since(start), 1})
				}
			}
		}(id)
	}
	wg.Wait()
	var out closedResult
	for _, r := range results {
		out.reports = append(out.reports, r.reports...)
		out.fetches = append(out.fetches, r.fetches...)
	}
	return out
}

// opKind tags one scheduled open-loop operation.
type opKind uint8

const (
	opPost opKind = iota
	opFetch
	opProbe
)

// scheduledOp is one entry of the open loop's merged schedule.
type scheduledOp struct {
	due  time.Duration // offset from the phase start
	kind opKind
	n    int // running index within its stream
}

// buildSchedule merges the three fixed-rate streams of phase B — report
// POSTs, model GETs and freshness probes — into one due-time-ordered
// queue. Each stream is evenly spaced; the fetch and probe streams start
// half a period in so the streams do not all fire at offset zero. Probes
// stop probeDeadline/2 before the end (half way through a phase shorter
// than the deadline) so the observer stream can still resolve the last one.
func buildSchedule(w workload, dur time.Duration) []scheduledOp {
	var ops []scheduledOp
	stream := func(kind opKind, period, first, until time.Duration) {
		for n, due := 0, first; due < until; n, due = n+1, due+period {
			ops = append(ops, scheduledOp{due, kind, n})
		}
	}
	if w.postRate > 0 {
		stream(opPost, time.Duration(float64(time.Second)/w.postRate), 0, dur)
	}
	if w.fetchRate > 0 {
		period := time.Duration(float64(time.Second) / w.fetchRate)
		stream(opFetch, period, period/2, dur)
	}
	lastProbe := dur - probeDeadline/2
	if dur < probeDeadline {
		lastProbe = dur / 2
	}
	stream(opProbe, probePeriod, probePeriod/2, lastProbe)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// observation is one tabular model seen by the open loop: which model node
// served it, when the response completed, and the reserved probe cells.
type observation struct {
	node   int
	at     time.Duration
	counts [probeCodes]float64
}

// probe is one freshness probe: the reserved code it raised and when it
// was due.
type probe struct {
	code int
	due  time.Duration
}

// openResult is what phase B measured.
type openResult struct {
	dur      time.Duration
	reports  []sample
	fetches  []sample
	lateness []float64 // ms each operation started after its due time
	missed   int
	probes   []probe
	seen     []observation
}

// openLoop runs the open loop: the workers share one due-time-ordered
// queue, each taking the next operation, waiting until it is due and
// timing it from that instant — so time an operation spends queued behind
// a slow predecessor is charged to the system, not hidden.
func (g *generator) openLoop(ctx context.Context, dur time.Duration) openResult {
	sched := buildSchedule(g.w, dur)
	var next atomic.Int64
	results := make([]openResult, g.fanout*g.workers)
	start := time.Now()
	var wg sync.WaitGroup
	for id := range results {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wk, res := g.newWorker(), &results[id]
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				op := sched[i]
				if wait := op.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				late := time.Since(start) - op.due
				res.lateness = append(res.lateness, float64(late)/float64(time.Millisecond))
				if late > requestTimeout {
					g.attempted.Add(1)
					g.failed.Add(1)
					res.missed++
					continue
				}
				g.runOpen(wk, op, start, res)
			}
		}(id)
	}
	wg.Wait()
	out := openResult{dur: dur}
	for _, r := range results {
		out.reports = append(out.reports, r.reports...)
		out.fetches = append(out.fetches, r.fetches...)
		out.lateness = append(out.lateness, r.lateness...)
		out.missed += r.missed
		out.probes = append(out.probes, r.probes...)
		out.seen = append(out.seen, r.seen...)
	}
	return out
}

// runOpen executes one scheduled operation and files its outcome. Failed
// operations yield no latency sample; they are in the failed count, and a
// run with any failure is reported as such rather than flattered.
func (g *generator) runOpen(wk *worker, op scheduledOp, start time.Time, res *openResult) {
	switch op.kind {
	case opPost:
		body := g.in.bodies[op.n%len(g.in.bodies)]
		if _, err := wk.post(op.n%len(g.ingestURLs), body); err == nil {
			res.reports = append(res.reports, sample{op.due, wk.answered.Sub(start) - op.due})
		}
	case opProbe:
		// Probes always enter at the first ingest node, so on the fleet the
		// second analyzer only ever sees them through the peer hop.
		code := op.n % probeCodes
		if _, err := wk.post(0, g.in.probes[code]); err == nil {
			res.probes = append(res.probes, probe{code, op.due})
		}
	case opFetch:
		node := op.n % len(g.modelURLs)
		got, err := wk.fetch(node, g.in.fetches[op.n%len(g.in.fetches)])
		if err != nil {
			return
		}
		done := wk.answered.Sub(start)
		res.fetches = append(res.fetches, sample{op.due, done - op.due})
		if got.tabular != nil {
			res.seen = append(res.seen, observation{node, done, probeCounts(got.tabular, g.w)})
		}
	}
}

// visibility resolves the probes against the tabular models model node
// `node` served: a probe is visible at the first response, completed after
// the probe was due, whose cell for the probe's code is above the highest
// value any response completed before the due time showed. It returns the
// visibility latencies in ms and how many probes stayed invisible past
// probeDeadline (or to the end of the phase).
func visibility(res openResult, node int) (ms []float64, unresolved int) {
	var seen []observation
	for _, o := range res.seen {
		if o.node == node {
			seen = append(seen, o)
		}
	}
	sort.Slice(seen, func(i, j int) bool { return seen[i].at < seen[j].at })
	for _, p := range res.probes {
		base, found := 0.0, false
		for _, o := range seen {
			if o.at <= p.due {
				if o.counts[p.code] > base {
					base = o.counts[p.code]
				}
				continue
			}
			if o.at-p.due > probeDeadline {
				break
			}
			if o.counts[p.code] > base {
				ms = append(ms, float64(o.at-p.due)/float64(time.Millisecond))
				found = true
				break
			}
		}
		if !found {
			unresolved++
		}
	}
	return ms, unresolved
}
