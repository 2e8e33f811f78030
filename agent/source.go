// HTTP model source: the model-sync half of the deployment seam, a cached
// conditional GET against a p2bnode's /server/model route.
package agent

import (
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sync"
	"time"

	"p2b/internal/rng"
	"p2b/internal/transport"
)

// HTTPSourceOptions tunes an HTTPSource. The zero value fetches on demand
// with no background refresh.
type HTTPSourceOptions struct {
	// Refresh, when positive, starts a background goroutine that
	// conditionally re-fetches every model kind the source has served, once
	// per interval. Unchanged models cost a 304, not a payload.
	Refresh time.Duration
	// Jitter spreads the refresh interval by a uniform factor in
	// [1-Jitter, 1+Jitter), so a fleet of sources started together does not
	// poll in lockstep (default 0.2; 0 < Jitter < 1).
	Jitter float64
	// Seed seeds the refresh jitter stream (default 1).
	Seed uint64
	// HTTPClient overrides the underlying client (default: 10s timeout).
	HTTPClient *http.Client
	// Breaker, when non-nil, short-circuits model fetches while the node
	// is known down: a refused Refresh fails fast with ErrBreakerOpen and
	// the cache keeps serving the last good model. Share it with the
	// HTTPTransport.
	Breaker *CircuitBreaker

	// after is the timer used by the refresh loop; tests substitute a fake
	// clock. Nil means time.After.
	after func(d time.Duration) <-chan time.Time
}

// HTTPSourceStats counts an HTTPSource's traffic.
type HTTPSourceStats struct {
	Fetches     int64 // model GETs issued (conditional or not)
	NotModified int64 // fetches answered with 304
	Refreshed   int64 // fetches that replaced a cached model
	Errors      int64 // background refresh failures (kept serving the cache)
}

type sourceEntry struct {
	model Model
	etag  string
}

// inflightFetch dedups concurrent fetches of one kind: joiners wait on
// done and share the fetch's outcome instead of stampeding the node.
type inflightFetch struct {
	done    chan struct{}
	err     error // valid after done is closed
	joiners int   // Refresh calls waiting on done, guarded by HTTPSource.mu
}

// HTTPSource serves versioned global models from a p2bnode with local
// caching: the first request for a kind fetches it, later requests are
// answered from the cache, and the cache is kept current by conditional
// re-fetches (If-None-Match against the server's version ETag) — manually
// via Refresh or periodically via Options.Refresh. A whole fleet of agents
// shares one HTTPSource, so a thousand warm starts cost one model payload
// plus 304-cheap polls.
type HTTPSource struct {
	url  string // node base URL
	opts HTTPSourceOptions

	mu       sync.Mutex
	cache    map[ModelKind]*sourceEntry
	inflight map[ModelKind]*inflightFetch
	stats    HTTPSourceStats
	jr       *rng.Rand

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewHTTPSource returns a model source fetching from the node at nodeURL.
// Callers that enable background refresh must Close the source.
func NewHTTPSource(nodeURL string, opts HTTPSourceOptions) *HTTPSource {
	if opts.Jitter <= 0 || opts.Jitter >= 1 {
		opts.Jitter = 0.2
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.after == nil {
		opts.after = time.After
	}
	if opts.HTTPClient == nil {
		opts.HTTPClient = defaultHTTPClient()
	}
	s := &HTTPSource{
		url:      nodeURL,
		opts:     opts,
		cache:    map[ModelKind]*sourceEntry{},
		inflight: map[ModelKind]*inflightFetch{},
		jr:       rng.New(opts.Seed).Split("model-refresh-jitter"),
		stop:     make(chan struct{}),
	}
	if opts.Refresh > 0 {
		s.wg.Add(1)
		go s.refreshLoop()
	}
	return s
}

// Model returns the cached model of the given kind, fetching it on first
// use. Staleness is bounded by the refresh interval (or by explicit
// Refresh calls); a model served from cache costs no network traffic and
// never waits on a fetch that happens to be in flight for the same kind.
func (s *HTTPSource) Model(kind ModelKind) (Model, error) {
	s.mu.Lock()
	if e, ok := s.cache[kind]; ok {
		m := e.model
		s.mu.Unlock()
		return m, nil
	}
	s.mu.Unlock()
	if err := s.Refresh(kind); err != nil {
		return Model{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.cache[kind]; ok {
		return e.model, nil
	}
	// Unreachable in practice: the first fetch sends no ETag, so the node
	// cannot answer 304 and a nil error implies a stored payload.
	return Model{}, errors.New("agent: model fetch completed without a model")
}

// Refresh conditionally re-fetches one model kind: the cached ETag rides
// along as If-None-Match, so an unchanged model costs a 304 and the cache
// is kept. A kind never fetched before is fetched unconditionally.
// Concurrent Refresh calls for one kind collapse into a single GET whose
// outcome they share — a fleet pointed at one source cannot stampede the
// node — while cache reads proceed untouched: the lock is never held
// across the network call.
func (s *HTTPSource) Refresh(kind ModelKind) error {
	s.mu.Lock()
	if f, ok := s.inflight[kind]; ok {
		f.joiners++
		s.mu.Unlock()
		<-f.done
		return f.err
	}
	f := &inflightFetch{done: make(chan struct{})}
	s.inflight[kind] = f
	var etag string
	if e, ok := s.cache[kind]; ok {
		etag = e.etag
	}
	s.mu.Unlock()

	// An open breaker fails the fetch fast without touching the network:
	// the node is known down, the cache keeps serving, and the next Refresh
	// after the cooldown is the probe. Refused fetches are not counted.
	e, err := s.fetchModel(kind, etag)

	s.mu.Lock()
	delete(s.inflight, kind)
	if !errors.Is(err, ErrBreakerOpen) {
		s.stats.Fetches++
	}
	switch {
	case err != nil:
	case e == nil:
		s.stats.NotModified++
	case e.model.Tabular == nil && e.model.Linear == nil:
		err = errors.New("agent: node returned an empty model payload")
	default:
		s.cache[kind] = e
		s.stats.Refreshed++
	}
	s.mu.Unlock()
	f.err = err
	close(f.done)
	return err
}

// maxModelBodyBytes caps a model response body: 256 MiB covers any
// plausible K*Arms tabular model with a wide margin.
const maxModelBodyBytes = 256 << 20

// fetchModel performs one conditional GET of /server/model for kind. A
// non-empty ifNoneMatch rides along as If-None-Match, so an unchanged model
// comes back as a cheap 304 — reported as a nil entry. The SDK always asks
// for — and only decodes — the P2BM binary encoding.
func (s *HTTPSource) fetchModel(kind ModelKind, ifNoneMatch string) (*sourceEntry, error) {
	req, err := http.NewRequest(http.MethodGet, s.url+"/server/model?kind="+kind.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("agent: building model request: %w", err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	req.Header.Set("Accept", transport.ContentTypeModel)
	resp, err := roundTrip(s.opts.HTTPClient, s.opts.Breaker, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, nil
	case http.StatusOK:
	default:
		return nil, statusError(req, resp)
	}
	if ct, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); ct != transport.ContentTypeModel {
		return nil, fmt.Errorf("agent: %s %s: node answered with Content-Type %q, want %s", req.Method, req.URL, ct, transport.ContentTypeModel)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxModelBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("agent: reading model body: %w", err)
	}
	e := &sourceEntry{etag: resp.Header.Get("ETag")}
	e.model.Version, e.model.Tabular, e.model.Linear, err = transport.DecodeModel(body)
	if err != nil {
		return nil, fmt.Errorf("agent: decoding binary model: %w", err)
	}
	return e, nil
}

// Stats returns a snapshot of the fetch counters.
func (s *HTTPSource) Stats() HTTPSourceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close stops the background refresh loop. The cache keeps serving.
func (s *HTTPSource) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// refreshLoop periodically re-fetches every cached kind, each wait scaled
// by the jitter factor so fleets decorrelate.
func (s *HTTPSource) refreshLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.opts.after(s.jitterInterval()):
		}
		s.mu.Lock()
		kinds := make([]ModelKind, 0, len(s.cache))
		for k := range s.cache {
			kinds = append(kinds, k)
		}
		s.mu.Unlock()
		for _, k := range kinds {
			if err := s.Refresh(k); err != nil {
				// A refresh failure is not fatal: the cache keeps serving
				// the last good model and the next tick retries.
				s.mu.Lock()
				s.stats.Errors++
				s.mu.Unlock()
			}
		}
	}
}

// jitterInterval scales the refresh interval by a uniform factor in
// [1-Jitter, 1+Jitter).
func (s *HTTPSource) jitterInterval() time.Duration {
	s.mu.Lock()
	f := 1 - s.opts.Jitter + 2*s.opts.Jitter*s.jr.Float64()
	s.mu.Unlock()
	return time.Duration(float64(s.opts.Refresh) * f)
}

var _ ModelSource = (*HTTPSource)(nil)
