package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadResults reads a file written by -out: one result per line.
func loadResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return out, nil
}

// verdict classifies one (workload, end-to-end metric) pair of a
// comparison. base and change are the untraced runs' values; bound is the
// metric's regression bound and higherBetter its direction.
//
//   - a spread (quartile distance over median) wider than the bound on
//     either side means the runs cannot resolve a change of the bound's
//     size: "unresolved" — unless every run of one side beats every run of
//     the other, which no spread can explain away;
//   - otherwise the medians decide: worse by more than the bound is
//     "regressed", better by more than the bound "improved", else
//     "unchanged".
func verdict(base, change []float64, bound float64, higherBetter bool) string {
	worse := func(a, b float64) bool { // a is worse than b
		if higherBetter {
			return a < b
		}
		return a > b
	}
	allWorse, allBetter := true, true
	for _, c := range change {
		for _, b := range base {
			if !worse(c, b) {
				allWorse = false
			}
			if !worse(b, c) {
				allBetter = false
			}
		}
	}
	mb, mc := median(base), median(change)
	rel := (mc - mb) / mb
	if higherBetter {
		rel = -rel
	}
	resolved := len(base) >= 2 && len(change) >= 2 && quartileSpread(base) <= bound && quartileSpread(change) <= bound
	switch {
	case !resolved && allWorse && rel > bound:
		return "regressed"
	case !resolved && allBetter && rel < -bound:
		return "improved"
	case !resolved:
		return "unresolved"
	case rel > bound:
		return "regressed"
	case rel < -bound:
		return "improved"
	}
	return "unchanged"
}

// compareFiles prints the comparison of two result files and returns the
// exit status: 0 when nothing regressed, 1 on a regression, 2 when the
// files cannot be compared at all.
func compareFiles(w io.Writer, basePath, changePath string) int {
	var sides [2][]result
	for i, path := range []string{basePath, changePath} {
		var err error
		if sides[i], err = loadResults(path); err != nil {
			fmt.Fprintln(w, "benchmark:", err)
			return 2
		}
	}
	return compareResults(w, sides[0], sides[1])
}

func compareResults(w io.Writer, base, change []result) int {
	// One shape per comparison: every run on both sides must come from the
	// same kind of machine.
	shape := base[0].Machine
	for _, r := range append(append([]result(nil), base...), change...) {
		if !r.Machine.sameShape(shape) {
			fmt.Fprintf(w, "benchmark: refusing to compare results from different machine shapes:\n  %+v\n  %+v\n", shape, r.Machine)
			return 2
		}
	}
	collect := func(rs []result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload == workload && !r.Trace {
				if v, ok := r.Metrics[metric]; ok {
					out = append(out, v)
				}
			}
		}
		return out
	}
	status := 0
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %8s %7s %7s %6s  %s\n", "workload", "metric", "base", "change", "delta", "spr_b", "spr_c", "bound", "verdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			b, c := collect(base, wl.name, spec.Name), collect(change, wl.name, spec.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v := verdict(b, c, spec.Bound, spec.Better == "higher")
			if v == "regressed" {
				status = 1
			}
			spread := func(vals []float64) float64 {
				if len(vals) < 2 {
					return 0
				}
				return quartileSpread(vals)
			}
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s (n=%d/%d)\n",
				wl.name, spec.Name, median(b), median(c), 100*(median(c)-median(b))/median(b),
				100*spread(b), 100*spread(c), 100*spec.Bound, v, len(b), len(c))
		}
	}
	return status
}
