// The http-pipeline experiment: throughput of the distributed ingestion
// path. Unlike the figures, this one reproduces no paper panel — it guards
// the ROADMAP's scale story by driving a real p2bnode over loopback HTTP
// and measuring reports/sec through the per-envelope route versus the
// batched wire protocol. It fails — returns an error, so p2bbench exits 1 —
// when the two routes do not leave the server in bit-identical state, or,
// at Scale >= 1, when the batched route is under its speedup floor.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"p2b/agent"
	"p2b/internal/httpapi"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/stats"
	"p2b/internal/transport"
)

// pipelineNode is one loopback p2bnode: shuffler + server behind a real
// TCP listener, so the benchmark pays genuine HTTP costs.
type pipelineNode struct {
	srv  *server.Server
	shuf *shuffler.Shuffler
	hs   *http.Server
	url  string
}

func startPipelineNode(k, arms, batch, threshold int, seed uint64) (*pipelineNode, error) {
	srv := server.New(server.Config{K: k, Arms: arms, D: 3, Alpha: 1, Seed: seed})
	shuf := shuffler.New(shuffler.Config{BatchSize: batch, Threshold: threshold}, srv, rng.New(seed).Split("shuffler"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("http-pipeline: listen: %w", err)
	}
	n := &pipelineNode{
		srv:  srv,
		shuf: shuf,
		hs:   &http.Server{Handler: httpapi.NewNodeHandler(shuf, srv)},
		url:  "http://" + ln.Addr().String(),
	}
	go func() { _ = n.hs.Serve(ln) }()
	return n, nil
}

func (n *pipelineNode) close() { _ = n.hs.Close() }

// pipelineHTTPClient returns an http.Client whose connection pool does not
// throttle the benchmark: the default Transport keeps only two idle
// connections per host, which would bill connection churn — not protocol
// cost — to the per-envelope path.
func pipelineHTTPClient(workers int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        4 * workers,
		MaxIdleConnsPerHost: 4 * workers,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// postEnvelope is the per-envelope baseline the batched SDK wire is measured
// against: one JSON POST to the node's curl-able /shuffler/report route.
func postEnvelope(hc *http.Client, nodeURL string, e transport.Envelope) error {
	blob, err := json.Marshal(e)
	if err != nil {
		return err
	}
	resp, err := hc.Post(nodeURL+"/shuffler/report", "application/json", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("post %s/shuffler/report: status %d: %s", nodeURL, resp.StatusCode, msg)
	}
	return nil
}

// Same-host speedup floors, owned by the experiment that measures each
// ratio: numerator and denominator run back to back on one machine, so the
// ratio is portable where the absolute throughputs are not. Six
// default-scale runs each on a shared 2-vCPU sandbox read 31-48x and
// 3.7-8.3x.
const (
	pipelineSpeedupFloor  = 10 // batched wire vs one POST per envelope
	modelPathSpeedupFloor = 3  // cached vs rebuilt model GET, both serial
)

// checkFloor is the verdict both loopback experiments end on. A failed
// bit-identity check is an error at every scale; a speedup under its floor
// is one only at scale >= 1, where the phases are long enough to time.
func checkFloor(name string, identical bool, speedup, floor, scale float64) error {
	if !identical {
		return fmt.Errorf("%s: exactness check failed: the two paths are not bit-identical (speedup measured %.1fx)", name, speedup)
	}
	if scale >= 1 && speedup < floor {
		return fmt.Errorf("%s: speedup %.1fx is under the %gx floor", name, speedup, floor)
	}
	return nil
}

// pipelineTuple deterministically generates the i-th report of worker w.
func pipelineTuple(r *rng.Rand, k, arms int) transport.Tuple {
	return transport.Tuple{Code: r.IntN(k), Action: r.IntN(arms), Reward: r.Float64()}
}

// HTTPPipeline measures loopback ingestion throughput: Options.Workers
// concurrent agents pushing reports through (a) one POST /shuffler/report
// per envelope and (b) the batched POST /shuffler/reports wire protocol,
// then verifies on a fresh pair of nodes that the two routes produce
// bit-identical tabular state. Scale 1 runs in a few seconds; the batched
// path gets proportionally more traffic because it is expected to be an
// order of magnitude faster. It ends on checkFloor.
func HTTPPipeline(opts Options) (*Result, error) {
	opts.fill()
	const (
		k         = 64
		arms      = 8
		threshold = 2
		shufBatch = 256
	)
	singleN := opts.scaled(4000)
	batchedN := opts.scaled(80000)
	workers := opts.Workers
	httpClient := pipelineHTTPClient(workers)

	// Phase (a): one envelope per POST.
	nodeA, err := startPipelineNode(k, arms, shufBatch, threshold, opts.Seed)
	if err != nil {
		return nil, err
	}
	singleRPS, err := runPipelinePhase(workers, singleN, func(w int) (func(transport.Envelope) error, func() error) {
		return func(e transport.Envelope) error { return postEnvelope(httpClient, nodeA.url, e) },
			func() error { return nil }
	}, opts, k, arms)
	nodeA.close()
	if err != nil {
		return nil, fmt.Errorf("http-pipeline: single-envelope phase: %w", err)
	}

	// Phase (b): the batched wire protocol.
	nodeB, err := startPipelineNode(k, arms, shufBatch, threshold, opts.Seed)
	if err != nil {
		return nil, err
	}
	batchedRPS, err := runPipelinePhase(workers, batchedN, func(w int) (func(transport.Envelope) error, func() error) {
		tr := agent.NewHTTPTransport(nodeB.url, agent.HTTPTransportOptions{
			MaxBatch:   256,
			MaxAge:     50 * time.Millisecond,
			Seed:       opts.Seed + uint64(w) + 1,
			HTTPClient: httpClient,
		})
		return tr.Report, tr.Close
	}, opts, k, arms)
	nodeB.close()
	if err != nil {
		return nil, fmt.Errorf("http-pipeline: batched phase: %w", err)
	}

	// Exactness: the batch route must leave the server in bit-identical
	// state to the per-envelope route for the same report sequence.
	identical, err := pipelineRoutesAgree(httpClient, opts, k, arms, threshold)
	if err != nil {
		return nil, err
	}

	speedup := 0.0
	if singleRPS > 0 {
		speedup = batchedRPS / singleRPS
	}
	if err := checkFloor("http-pipeline", identical, speedup, pipelineSpeedupFloor, opts.Scale); err != nil {
		return nil, err
	}
	tab := &stats.Table{XLabel: "workers"}
	single := &stats.Series{Name: "single_envelope_rps"}
	single.Append(float64(workers), singleRPS, 0)
	batched := &stats.Series{Name: "batched_rps"}
	batched.Append(float64(workers), batchedRPS, 0)
	ratio := &stats.Series{Name: "speedup_batched_vs_single"}
	ratio.Append(float64(workers), speedup, 0)
	tab.Series = []*stats.Series{single, batched, ratio}

	return &Result{
		Name: "http-pipeline",
		Description: "Loopback distributed ingestion throughput: per-envelope POSTs vs the " +
			"batched binary wire protocol (reports/sec, higher is better).",
		Tables: []*stats.Table{tab},
		Notes: []string{
			fmt.Sprintf("single-envelope: %d reports at %.0f reports/sec", singleN, singleRPS),
			fmt.Sprintf("batched: %d reports at %.0f reports/sec", batchedN, batchedRPS),
			fmt.Sprintf("speedup: %.1fx", speedup),
			"batched and per-envelope routes leave the server in bit-identical state",
		},
	}, nil
}

// runPipelinePhase pushes total reports through `workers` goroutines, each
// reporting via the function `mk` returns for it, and returns reports/sec.
func runPipelinePhase(workers, total int, mk func(w int) (func(transport.Envelope) error, func() error), opts Options, k, arms int) (float64, error) {
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			report, finish := mk(w)
			r := rng.New(opts.Seed).SplitIndex("pipeline-worker", w)
			for {
				i := next.Add(1)
				if i > int64(total) {
					break
				}
				e := transport.Envelope{
					Meta:  transport.Metadata{DeviceID: fmt.Sprintf("device-%06d", i), SentAt: i},
					Tuple: pipelineTuple(r, k, arms),
				}
				if err := report(e); err != nil {
					firstErr.CompareAndSwap(nil, err)
					break
				}
			}
			if err := finish(); err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return 0, err
	}
	return float64(total) / elapsed.Seconds(), nil
}

// pipelineRoutesAgree replays one deterministic report stream through both
// ingestion routes on fresh nodes and compares the resulting tabular
// snapshots bit for bit.
func pipelineRoutesAgree(hc *http.Client, opts Options, k, arms, threshold int) (bool, error) {
	const shufBatch = 32
	n := opts.scaled(600)
	r := rng.New(opts.Seed).Split("pipeline-exactness")
	envs := make([]transport.Envelope, n)
	for i := range envs {
		envs[i] = transport.Envelope{
			Meta:  transport.Metadata{DeviceID: fmt.Sprintf("device-%06d", i), SentAt: int64(i)},
			Tuple: pipelineTuple(r, k, arms),
		}
	}

	nodeA, err := startPipelineNode(k, arms, shufBatch, threshold, opts.Seed+101)
	if err != nil {
		return false, err
	}
	defer nodeA.close()
	for i := range envs {
		if err := postEnvelope(hc, nodeA.url, envs[i]); err != nil {
			return false, fmt.Errorf("http-pipeline: exactness single route: %w", err)
		}
	}
	flushA := agent.NewHTTPTransport(nodeA.url, agent.HTTPTransportOptions{})
	defer flushA.Close()
	if err := flushA.FlushNode(); err != nil {
		return false, err
	}

	nodeB, err := startPipelineNode(k, arms, shufBatch, threshold, opts.Seed+101)
	if err != nil {
		return false, err
	}
	defer nodeB.close()
	// Ship in several batch POSTs to exercise chunked submission too; one
	// sender keeps them in submission order.
	tr := agent.NewHTTPTransport(nodeB.url, agent.HTTPTransportOptions{MaxBatch: 100, MaxAge: time.Hour, MaxInFlight: 1})
	for i := range envs {
		if err := tr.Report(envs[i]); err != nil {
			return false, fmt.Errorf("http-pipeline: exactness batch route: %w", err)
		}
	}
	if err := tr.Close(); err != nil {
		return false, fmt.Errorf("http-pipeline: exactness batch route: %w", err)
	}
	if err := tr.FlushNode(); err != nil {
		return false, err
	}

	return reflect.DeepEqual(nodeA.srv.TabularSnapshot(), nodeB.srv.TabularSnapshot()), nil
}
