package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"p2b/internal/bandit"
	"p2b/internal/transport"
)

// stubNode is a fake p2bnode for the checker and generator tests: a
// combined node (or, with relay/analyzer set, one half of a fleet) that
// keeps honest books unless one of the fault knobs is turned. Every kept
// tuple is "forwarded" at once (batch size 1, no thresholding), which is
// all the checkers need.
type stubNode struct {
	t  *testing.T
	ts *httptest.Server
	w  workload

	mu       sync.Mutex
	received int64 // reports the shuffler counted
	counts   []float64
	stall    map[int]time.Duration // request ordinal (1-based) on the ingest route -> artificial delay
	posts    int

	// Fault knobs.
	dropAckedBatch bool  // acknowledge the next batch but never count it
	smallCrowd     bool  // serve one code with a crowd of 1
	extraApply     int64 // analyzer: relay batches applied beyond what the relay had acknowledged
	loseTail       int64 // "restart": forget this many acknowledged reports
}

func newStubNode(t *testing.T, w workload) *stubNode {
	s := &stubNode{t: t, w: w, counts: make([]float64, w.k*w.arms), stall: map[int]time.Duration{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shuffler/reports", s.reports)
	mux.HandleFunc("GET /shuffler/stats", func(rw http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		writeStub(rw, map[string]int64{"Received": s.received, "Forwarded": s.received, "Dropped": 0, "Batches": s.received, "pending": 0})
	})
	mux.HandleFunc("GET /server/stats", func(rw http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		writeStub(rw, map[string]any{
			"TuplesIngested": s.received,
			"peers":          map[string]int64{"relay_batches": s.received + s.extraApply, "relay_duplicates": 0},
		})
	})
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		writeStub(rw, map[string]any{
			"status":  "ok",
			"forward": map[string]int64{"batches": s.received, "tuples": s.received, "duplicates": 0, "dropped": 0},
		})
	})
	mux.HandleFunc("GET /server/model", s.model)
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func writeStub(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(v)
}

// as presents the stub to the generator and the checkers under a role.
func (s *stubNode) as(role string) *node {
	return &node{name: "stub-" + role, role: role, url: s.ts.URL}
}

func (s *stubNode) reports(rw http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.posts++
	delay := s.stall[s.posts]
	s.mu.Unlock()
	time.Sleep(delay)
	fr, err := transport.NewFrameReader(r.Body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	var tuples []transport.Tuple
	var tu transport.Tuple
	for {
		if err := fr.NextTuple(&tu); err == io.EOF {
			break
		} else if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		tuples = append(tuples, tu)
	}
	s.mu.Lock()
	if s.dropAckedBatch {
		s.dropAckedBatch = false
	} else {
		s.received += int64(len(tuples))
		for _, tu := range tuples {
			s.counts[tu.Code*s.w.arms+tu.Action] += threshold // a whole crowd per report keeps the honest stub above the threshold
		}
	}
	s.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(rw).Encode(map[string]int{"accepted": len(tuples), "dropped": 0})
}

func (s *stubNode) model(rw http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	tab := &bandit.TabularState{Alpha: 1, K: s.w.k, Arms: s.w.arms,
		Count: append([]float64(nil), s.counts...), Sum: make([]float64, len(s.counts))}
	version := uint64(s.received)
	if s.smallCrowd {
		tab.Count[(s.w.k-1)*s.w.arms] = 1 // a reserved probe code no background report touches
	}
	s.mu.Unlock()
	rw.Header().Set("X-P2b-Model-Version", "1")
	rw.Header().Set("ETag", `"stub"`)
	if r.Header.Get("Accept") == transport.ContentTypeModel {
		rw.Header().Set("Content-Type", transport.ContentTypeModel)
		_, _ = rw.Write(transport.AppendTabularModel(nil, version, tab))
		return
	}
	writeStub(rw, tab)
}

// restart models a kill -9 and reboot: with loseTail set the node comes
// back without the last acknowledged reports.
func (s *stubNode) restart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loseTail > 0 {
		s.received -= s.loseTail
		clear(s.counts) // and the model they had shaped
	}
}
