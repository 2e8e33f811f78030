// The model_path experiment: throughput of the fleet model-sync read path.
// Like http-pipeline it reproduces no paper panel — it guards the
// ROADMAP's warm-start scale story by driving GET /server/model on a real
// loopback p2bnode in the three regimes a fleet keeps a node in:
//
//   - cached: full-body GETs at an unchanged model version (steady-state
//     polling fleet) — served from the shared encoded-payload cache;
//   - revalidate: If-None-Match GETs at an unchanged version — answered
//     304 from the version counters alone;
//   - rebuild: every GET preceded by an ingest, so each one pays a real
//     snapshot merge + encode (the worst case the cache amortizes away).
//
// The headline series is the cached-vs-rebuild speedup; the experiment
// itself holds it to modelPathSpeedupFloor at Scale >= 1, and fails at any
// scale when the cached payload is not bit-identical to the live snapshot.
package experiments

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"p2b/internal/bandit"
	"p2b/internal/stats"
	"p2b/internal/transport"
)

// modelPathGet issues one GET of url with the given headers and drains the
// body; it returns the response status and ETag.
func modelPathGet(client *http.Client, url, accept, inm string) (int, string, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Accept", accept)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("ETag"), nil
}

// runModelPhase fires total GETs across workers goroutines and returns
// requests/sec. inm, when non-empty, turns every GET into a revalidation
// that must come back 304; otherwise a 200 with a body is required.
func runModelPhase(client *http.Client, url string, workers, total int, inm string) (float64, error) {
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	wantStatus := http.StatusOK
	if inm != "" {
		wantStatus = http.StatusNotModified
	}
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if next.Add(1) > int64(total) {
					return
				}
				status, _, err := modelPathGet(client, url, transport.ContentTypeModel, inm)
				if err == nil && status != wantStatus {
					err = fmt.Errorf("model_path: GET answered %d, want %d", status, wantStatus)
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return 0, err
	}
	return float64(total) / elapsed.Seconds(), nil
}

// fetchTabularPayload downloads and decodes one binary tabular model
// payload.
func fetchTabularPayload(client *http.Client, url string) (*bandit.TabularState, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", transport.ContentTypeModel)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("model_path: GET %s answered %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	_, tab, _, err := transport.DecodeModel(body)
	if err != nil {
		return nil, fmt.Errorf("model_path: decoding payload: %w", err)
	}
	return tab, nil
}

// ModelPath measures the model-sync read path over loopback HTTP; see the
// package comment above for the three regimes. Scale 1 runs in a few
// seconds. It ends on checkFloor.
func ModelPath(opts Options) (*Result, error) {
	opts.fill()
	const (
		k    = 2048
		arms = 16
	)
	node, err := startPipelineNode(k, arms, 256, 2, opts.Seed)
	if err != nil {
		return nil, err
	}
	defer node.close()
	// A populated model: data in every cell is the worst case for any
	// read path that copies or re-encodes per request.
	batch := make([]transport.Tuple, 4*k)
	for i := range batch {
		batch[i] = transport.Tuple{Code: i % k, Action: i % arms, Reward: 0.5}
	}
	node.srv.Deliver(batch)

	workers := opts.Workers
	client := pipelineHTTPClient(workers)
	url := node.url + "/server/model?kind=tabular"

	cachedN := opts.scaled(3000)
	revalN := opts.scaled(20000)
	rebuildN := opts.scaled(300)

	cachedRPS, err := runModelPhase(client, url, workers, cachedN, "")
	if err != nil {
		return nil, fmt.Errorf("model_path: cached phase: %w", err)
	}
	// The gated speedup ratio compares cached and rebuild GETs at the
	// SAME concurrency (both serial): the rebuild phase must be serial to
	// defeat singleflight sharing, and a concurrent numerator would make
	// the ratio scale with the host's core count instead of with the
	// cache. cached_get_rps above stays concurrent — it is the absolute
	// throughput number, not the portable ratio.
	cachedSerialRPS, err := runModelPhase(client, url, 1, rebuildN, "")
	if err != nil {
		return nil, fmt.Errorf("model_path: serial cached phase: %w", err)
	}
	_, etag, err := modelPathGet(client, url, transport.ContentTypeModel, "")
	if err != nil {
		return nil, err
	}
	revalRPS, err := runModelPhase(client, url, workers, revalN, etag)
	if err != nil {
		return nil, fmt.Errorf("model_path: revalidation phase: %w", err)
	}

	// Rebuild regime: bump the model version before every GET so each one
	// pays a snapshot merge plus an encode. Single-threaded on purpose —
	// concurrent GETs would share rebuilds through the singleflight cache,
	// which is exactly the effect this phase must not benefit from.
	start := time.Now()
	for i := 0; i < rebuildN; i++ {
		node.srv.Deliver(batch[i%len(batch) : i%len(batch)+1])
		status, _, err := modelPathGet(client, url, transport.ContentTypeModel, "")
		if err != nil {
			return nil, fmt.Errorf("model_path: rebuild phase: %w", err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("model_path: rebuild GET answered %d", status)
		}
	}
	rebuildRPS := float64(rebuildN) / time.Since(start).Seconds()

	speedup := 0.0
	if rebuildRPS > 0 {
		speedup = cachedSerialRPS / rebuildRPS
	}

	// Exactness: the cached payload must decode bit-identical to the live
	// snapshot — cached bytes are an optimization, never a staleness bug.
	fetched, err := fetchTabularPayload(client, url)
	if err != nil {
		return nil, err
	}
	identical := reflect.DeepEqual(fetched, node.srv.TabularSnapshot())
	if err := checkFloor("model_path", identical, speedup, modelPathSpeedupFloor, opts.Scale); err != nil {
		return nil, err
	}

	tab := &stats.Table{XLabel: "workers"}
	for _, s := range []struct {
		name string
		y    float64
	}{
		{"cached_get_rps", cachedRPS},
		{"revalidate_304_rps", revalRPS},
		{"rebuild_get_rps", rebuildRPS},
		{"speedup_cached_vs_rebuild", speedup},
	} {
		series := &stats.Series{Name: s.name}
		series.Append(float64(workers), s.y, 0)
		tab.Series = append(tab.Series, series)
	}
	return &Result{
		Name: "model_path",
		Description: "Loopback model-sync read path: cached full-body GETs and 304 revalidations " +
			"vs per-request snapshot rebuilds (requests/sec, higher is better).",
		Tables: []*stats.Table{tab},
		Notes: []string{
			fmt.Sprintf("cached: %d GETs at %.0f req/sec (%d workers; %.0f req/sec serial)", cachedN, cachedRPS, workers, cachedSerialRPS),
			fmt.Sprintf("revalidate: %d conditional GETs at %.0f req/sec (all 304)", revalN, revalRPS),
			fmt.Sprintf("rebuild: %d GETs at %.0f req/sec (version bumped before each)", rebuildN, rebuildRPS),
			fmt.Sprintf("speedup cached vs rebuild (both serial, machine-portable): %.1fx", speedup),
			"cached payload decodes bit-identical to the live snapshot",
		},
	}, nil
}
