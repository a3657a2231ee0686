package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare: two sets of runs (documents written by -out, usually with
// -repeat), side by side. For every workload × end-to-end metric it prints
// each set's median, quartiles and relative spread (interquartile distance
// over the median, computed as the benchmark driver computes it), and the
// change of the median from a to b in the metric's own direction. It
// exits non-zero when b's median is worse than a's by more than the
// metric's bound in BENCHMARK.json. A spread wider than the bound is
// flagged: that pairing cannot resolve a regression of the bound's size.

func loadDoc(path string) (document, error) {
	var d document
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// valuesOf collects a metric's values over a document's gated runs of one
// workload.
func valuesOf(d document, workload, metric string) []float64 {
	var vs []float64
	for _, r := range d.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// direction (negative when b is better).
func worseBy(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareDocs(w io.Writer, spec benchSpec, pathA, pathB string) int {
	a, err := loadDoc(pathA)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	b, err := loadDoc(pathB)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	fmt.Fprintf(w, "a: %s  %s  (%s, %d runs)\nb: %s  %s  (%s, %d runs)\n", pathA, a.GitSHA, a.When, len(a.Runs), pathB, b.GitSHA, b.When, len(b.Runs))
	fmt.Fprintf(w, "%-13s %-20s %5s | %12s %12s %12s %7s | %12s %12s %12s %7s | %8s %6s\n",
		"workload", "metric", "unit", "a.q1", "a.median", "a.q3", "a.iqr%", "b.q1", "b.median", "b.q3", "b.iqr%", "worse%", "bound%")
	failed, unresolved, compared := 0, 0, 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := valuesOf(a, wl.Name, m.Name), valuesOf(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			compared++
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			sa, sb := relSpread(va), relSpread(vb)
			worse := worseBy(m, a2, b2)
			verdict := ""
			if worse > m.Bound {
				verdict = "  REGRESSION"
				failed++
			} else if m.Name != "setup_s" && max(sa, sb) > m.Bound {
				verdict = "  unresolved (spread wider than bound)"
				unresolved++
			}
			fmt.Fprintf(w, "%-13s %-20s %5s | %12.4g %12.4g %12.4g %6.1f%% | %12.4g %12.4g %12.4g %6.1f%% | %+7.1f%% %5.0f%%%s\n",
				wl.Name, m.Name, m.Unit, a1, a2, a3, sa*100, b1, b2, b3, sb*100, worse*100, m.Bound*100, verdict)
		}
	}
	fmt.Fprintf(w, "%d pairings compared, %d regressions, %d unresolved\n", compared, failed, unresolved)
	switch {
	case compared == 0:
		fmt.Fprintln(w, "compare: the documents share no workload × metric")
		return 2
	case failed > 0:
		return 1
	}
	return 0
}
