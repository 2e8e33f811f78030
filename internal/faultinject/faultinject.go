// Package faultinject is P2B's deliberate-failure subsystem: a
// deterministic failpoint registry plus a chaos HTTP proxy, so every
// failure mode a multi-node deployment will hit — slow peers, dropped
// connections, 5xx bursts, truncated bodies, filesystem errors under the
// WAL — can be injected on purpose, reproducibly, before production hits
// it by accident.
//
// Everything is seeded through rng.Rand: two chaos runs with the same seed
// inject the same faults at the same points, which is what lets the chaos
// CI job assert bit-exact convergence between a faulted run and a clean
// one instead of eyeballing "it mostly worked".
//
// The registry side is a map of named failpoints. Production code never
// imports this package; instead, seams (persist.SetFSHooks, the httpapi
// admission hooks) accept plain functions, and the registry's methods have
// matching signatures so wiring a failpoint in is one assignment:
//
//	reg := faultinject.NewRegistry(seed)
//	reg.Enable("wal/sync", faultinject.Spec{After: 100, Count: 1})
//	persist.SetFSHooks(&persist.FSHooks{BeforeSync: reg.FSSync})
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"p2b/internal/rng"
)

// ErrInjected is the default error a fired failpoint returns. Seams
// translate it into whatever failure they model (a failed fsync, a refused
// write); tests can match it with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Spec configures one failpoint.
type Spec struct {
	// Prob is the per-hit fire probability. 0 means "always fire" once the
	// After/Count window admits the hit — the common case for targeted
	// faults — so enabling a point with an empty Spec makes it fire on
	// every hit.
	Prob float64
	// After skips the first After hits before the point may fire: "fail the
	// 101st fsync" is After: 100.
	After int
	// Count caps how many times the point fires (0 = unlimited).
	Count int
	// Err overrides the returned error (default ErrInjected).
	Err error
}

type point struct {
	spec  Spec
	hits  int
	fired int
}

// PointStats reports one failpoint's traffic.
type PointStats struct {
	Hits  int `json:"hits"`
	Fired int `json:"fired"`
}

// Registry is a set of named failpoints sharing one deterministic random
// stream. All methods are safe for concurrent use; probabilistic points
// draw from a mutex-guarded stream, so a fixed seed plus a fixed hit
// sequence yields a fixed fire sequence.
type Registry struct {
	mu     sync.Mutex
	r      *rng.Rand
	points map[string]*point
}

// NewRegistry returns an empty registry drawing from seed.
func NewRegistry(seed uint64) *Registry {
	return &Registry{
		r:      rng.New(seed).Split("faultinject"),
		points: map[string]*point{},
	}
}

// Enable registers (or reconfigures) the named failpoint. Hit and fire
// counters reset.
func (g *Registry) Enable(name string, s Spec) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.points[name] = &point{spec: s}
}

// Hit records one pass through the named failpoint and returns the
// injected error if the point fires, nil otherwise. Unregistered names
// never fire, so instrumented code paths cost one map lookup when chaos is
// off.
func (g *Registry) Hit(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	p, ok := g.points[name]
	if !ok {
		return nil
	}
	p.hits++
	if p.hits <= p.spec.After {
		return nil
	}
	if p.spec.Count > 0 && p.fired >= p.spec.Count {
		return nil
	}
	if p.spec.Prob > 0 && p.spec.Prob < 1 && !g.r.Bernoulli(p.spec.Prob) {
		return nil
	}
	p.fired++
	if p.spec.Err != nil {
		return p.spec.Err
	}
	return fmt.Errorf("%w: %s (hit %d)", ErrInjected, name, p.hits)
}

// Stats snapshots every registered failpoint's counters, keyed by name.
func (g *Registry) Stats() map[string]PointStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]PointStats, len(g.points))
	for name, p := range g.points {
		out[name] = PointStats{Hits: p.hits, Fired: p.fired}
	}
	return out
}

// Fired returns how many times the named failpoint has fired.
func (g *Registry) Fired(name string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if p, ok := g.points[name]; ok {
		return p.fired
	}
	return 0
}

// String renders the registry's failpoints and counters, sorted by name —
// the shutdown log line of a chaos run.
func (g *Registry) String() string {
	st := g.Stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d/%d", n, st[n].Fired, st[n].Hits)
	}
	return b.String()
}

// ParseSpecs parses a command-line failpoint description:
//
//	name[:key=value[,key=value...]][;name...]
//
// Keys are prob (float), after (int), count (int). Example:
//
//	wal/sync:after=100,count=1;wal/torn:count=1
//
// An empty string yields an empty map.
func ParseSpecs(s string) (map[string]Spec, error) {
	out := map[string]Spec{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, args, _ := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("faultinject: empty failpoint name in %q", part)
		}
		var spec Spec
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("faultinject: %s: expected key=value, got %q", name, kv)
				}
				var err error
				switch key {
				case "prob":
					spec.Prob, err = strconv.ParseFloat(val, 64)
					if err == nil && (spec.Prob < 0 || spec.Prob > 1) {
						err = fmt.Errorf("probability %v outside [0, 1]", spec.Prob)
					}
				case "after":
					spec.After, err = strconv.Atoi(val)
				case "count":
					spec.Count, err = strconv.Atoi(val)
				default:
					err = fmt.Errorf("unknown key %q (want prob, after or count)", key)
				}
				if err != nil {
					return nil, fmt.Errorf("faultinject: %s: %v", name, err)
				}
			}
		}
		out[name] = spec
	}
	return out, nil
}

// EnableAll registers every spec in the map (the ParseSpecs output).
func (g *Registry) EnableAll(specs map[string]Spec) {
	for name, s := range specs {
		g.Enable(name, s)
	}
}

// Well-known failpoint names for the persist filesystem seam. The FS*
// adapter methods below fire them; cmd/p2bnode -faults enables them.
const (
	// FPWALWrite refuses a WAL record write outright (ENOSPC-style: no
	// bytes reach the file).
	FPWALWrite = "wal/write"
	// FPWALTorn writes only the first half of a WAL record before failing —
	// the torn-final-frame crash shape.
	FPWALTorn = "wal/torn"
	// FPWALSync fails a WAL fsync.
	FPWALSync = "wal/sync"
	// FPWALTruncate fails the rollback truncate after a failed append,
	// sealing the log.
	FPWALTruncate = "wal/truncate"
)

// FSWrite adapts FPWALWrite and FPWALTorn to the persist BeforeWrite hook
// shape: it returns how many of b's bytes should actually be written and
// the error to report. A clean pass writes everything with no error.
func (g *Registry) FSWrite(path string, b []byte) (int, error) {
	if err := g.Hit(FPWALWrite); err != nil {
		return 0, err
	}
	if err := g.Hit(FPWALTorn); err != nil {
		return len(b) / 2, err
	}
	return len(b), nil
}

// FSSync adapts FPWALSync to the persist BeforeSync hook shape.
func (g *Registry) FSSync(path string) error {
	return g.Hit(FPWALSync)
}

// FSTruncate adapts FPWALTruncate to the persist BeforeTruncate hook shape.
func (g *Registry) FSTruncate(path string) error {
	return g.Hit(FPWALTruncate)
}
