// In-process transport and model source: the deployment seam the population
// simulator runs on, and the natural harness for tests and single-process
// experiments.
package agent

import (
	"fmt"

	"p2b/internal/server"
	"p2b/internal/shuffler"
)

// Loopback implements Transport, RawReporter and ModelSource against an
// in-process shuffler and analyzer server, with no serialization and no
// network. Reports enter the shuffler's privacy pipeline exactly as remote
// reports do; model fetches are versioned snapshots straight off the
// server's accumulator.
//
// The simulator in internal/core wires every simulated user through a
// Loopback, so a simulated deployment and a real one differ only in which
// Transport/ModelSource implementation the Agent holds.
type Loopback struct {
	shuf *shuffler.Shuffler
	srv  *server.Server
}

// NewLoopback wires a transport + model source to an in-process pipeline.
// Obtain the two components from a p2b.System (sys.Shuffler(), sys.Server())
// or construct them directly.
func NewLoopback(shuf *shuffler.Shuffler, srv *server.Server) *Loopback {
	if shuf == nil || srv == nil {
		panic("agent: NewLoopback needs a shuffler and a server")
	}
	return &Loopback{shuf: shuf, srv: srv}
}

// Report submits one envelope to the shuffler. In-process submission cannot
// fail; the error is always nil.
func (l *Loopback) Report(e Envelope) error {
	l.shuf.Submit(e)
	return nil
}

// ReportRaw submits one unencoded observation to the server (the
// non-private baseline path).
func (l *Loopback) ReportRaw(t RawTuple) error {
	return l.srv.IngestRaw(t)
}

// Flush pushes the shuffler's pending batch through thresholding. For the
// in-process pipeline, client-side settling and the shuffler's privacy
// batch are the same thing.
func (l *Loopback) Flush() error {
	l.shuf.Flush()
	return nil
}

// Model returns the server's current snapshot of the given kind, keyed by
// the monotonic model version. The snapshot is the server's shared
// immutable master — built once per model version and handed to every
// caller — so a simulated fleet of any size warm-starts off one build, not
// one copy per user. Warm-starting deep-copies into the local learner
// (copy-on-warm-start), so holders never need to mutate it.
func (l *Loopback) Model(kind ModelKind) (Model, error) {
	switch kind {
	case ModelTabular:
		st, v := l.srv.TabularModel()
		return Model{Version: v, Tabular: st}, nil
	case ModelLinUCB:
		st, v := l.srv.LinUCBModel()
		return Model{Version: v, Linear: st}, nil
	case ModelCentroid:
		st, v := l.srv.CentroidModel()
		if st == nil {
			return Model{}, fmt.Errorf("agent: server maintains no centroid model (no decoder configured)")
		}
		return Model{Version: v, Linear: st}, nil
	default:
		return Model{}, fmt.Errorf("agent: unknown model kind %d", int(kind))
	}
}
