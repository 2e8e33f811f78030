package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102, 98}
	scale := func(vals []float64, f float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 150, 100, 70, 140, 95}
	for _, c := range []struct {
		name         string
		base, change []float64
		higherBetter bool
		want         string
	}{
		{"latency up 30%", tight, scale(tight, 1.3), false, "regressed"},
		{"latency up 10%", tight, scale(tight, 1.1), false, "unchanged"},
		{"latency down 30%", tight, scale(tight, 0.7), false, "improved"},
		{"throughput down 30%", tight, scale(tight, 0.7), true, "regressed"},
		{"throughput up 30%", tight, scale(tight, 1.3), true, "improved"},
		{"spread wider than the bound", noisy, scale(noisy, 1.1), false, "unresolved"},
		{"noisy, but every run of the change is worse", noisy, scale(noisy, 3), false, "regressed"},
		{"noisy, but every run of the change is better", noisy, scale(noisy, 0.3), false, "improved"},
		{"a single run each cannot resolve anything", tight[:1], scale(tight[:1], 1.1), false, "unresolved"},
	} {
		if got := verdict(c.base, c.change, 0.25, c.higherBetter); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentMachineShapes(t *testing.T) {
	mk := func(nproc int, latency float64) result {
		return result{
			Workload: "ingest_strict",
			Machine:  machine{NProc: nproc, GOMAXPROCS: nproc, CPUModel: "cpu", FSType: "ext4"},
			Metrics:  map[string]float64{"report_p50_ms": latency},
		}
	}
	var out bytes.Buffer
	if code := compareResults(&out, []result{mk(2, 1), mk(2, 1.01)}, []result{mk(8, 1), mk(8, 1)}); code != 2 || !strings.Contains(out.String(), "refusing") {
		t.Fatalf("comparing a 2-CPU with an 8-CPU result: exit %d, output %q", code, out.String())
	}
	out.Reset()
	if code := compareResults(&out, []result{mk(2, 1), mk(2, 1.01), mk(2, 0.99)}, []result{mk(2, 2), mk(2, 2.02), mk(2, 1.98)}); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Fatalf("a doubled latency on the same machine: exit %d, output %q", code, out.String())
	}
}
