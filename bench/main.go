// Command bench is the CLAMShell perf ledger: it boots the real serving
// topologies in-process over loopback TCP, drives them with seeded traffic
// from two client connections, verifies what they answered, and prints
// every metric BENCHMARK.json declares, by name, with its unit.
//
//	go run . -workload wire_mem                 one workload, end-to-end metrics
//	go run . -workload wire_mem -trace 1        its traced pass: per-layer metrics, ledger rows, span file
//	go run .                                    all five workloads, a table, and a JSON document (-out)
//	go run . -repeat 10 -out a.json             ten runs per workload on seeds seed..seed+9
//	go run . -compare a.json b.json             medians, quartiles, spread; non-zero exit past a bound
//
// With -workload set, the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"} as the benchmark contract in
// BENCHMARK.json's repository requires. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "run only this workload (default: all five)")
	seed := flag.Int64("seed", 1, "traffic seed: equal seeds generate equal inputs")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "1 = the traced pass (per-layer metrics, ledger rows, span file) instead of the gated run")
	traceOut := flag.String("trace-out", "", "span file of the traced pass (default: <work dir>/trace-<workload>.json)")
	out := flag.String("out", "", "write the full JSON document (machine info, every run) here")
	repeat := flag.Int("repeat", 1, "runs per workload, on seeds seed, seed+1, …")
	compare := flag.Bool("compare", false, "compare two -out documents given as arguments instead of running")
	flag.Parse()

	// GOMAXPROCS = min(nproc, 4): the load generator and the servers share
	// the box, and the figures are only comparable at a fixed parallelism.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two documents: a.json b.json"))
		}
		os.Exit(compareDocs(os.Stdout, spec, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{w}
	}

	doc := newDocument(*seed, *seconds)
	ok := true
	var last runResult
	for _, w := range selected {
		for r := 0; r < *repeat; r++ {
			var res runResult
			if *trace != 0 {
				path := *traceOut
				if path == "" {
					path = filepath.Join(workRoot(), "trace-"+w.name+".json")
				}
				res = runTraced(spec, w, *seed+int64(r), defaultOpts(*seconds), path)
			} else {
				res = runUntraced(spec, w, *seed+int64(r), defaultOpts(*seconds))
			}
			if err := checkNames(spec, res); err != nil {
				res.Problems = append(res.Problems, err.Error())
				res.Correct = false
			}
			printRun(os.Stdout, spec, res)
			doc.Runs = append(doc.Runs, res)
			ok = ok && res.Correct
			last = res
		}
	}
	if *out != "" {
		if err := doc.write(*out); err != nil {
			fatal(err)
		}
	}
	if *workloadName != "" && *repeat == 1 {
		// The contract line: exactly these four keys, last on stdout.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{last.Correct, max(last.Attempted, 1), last.Failed, last.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// checkNames holds a run to BENCHMARK.json: it must report exactly the
// declared names of its kind, each finite.
func checkNames(spec benchSpec, res runResult) error {
	want := spec.EndToEnd
	if res.Traced {
		want = spec.PerLayer
	}
	var missing, extra []string
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			missing = append(missing, m.Name+" (not finite)")
		}
	}
	for name := range res.Metrics {
		found := false
		for _, m := range want {
			found = found || m.Name == name
		}
		if !found {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics do not match BENCHMARK.json: missing %v, undeclared %v", missing, extra)
	}
	return nil
}

// printRun prints one run's metrics by name with unit, then its extras
// and any problems.
func printRun(w *os.File, spec benchSpec, res runResult) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer (traced pass)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  correct=%v  attempted=%d failed=%d  wall %.1fs  inputs %s\n",
		res.Workload, res.Seed, kind, res.Correct, res.Attempted, res.Failed, res.WallS, res.StreamHash)
	printSorted := func(ms map[string]metricValue, indent string) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			note := ""
			if m, ok := spec.find(n); ok && m.Bound > 0 {
				note = fmt.Sprintf("  (%s is better, bound %.0f%%)", m.Better, m.Bound*100)
			}
			fmt.Fprintf(w, "%s%-34s %14.4f %s%s\n", indent, n, ms[n].Value, ms[n].Unit, note)
		}
	}
	printSorted(res.Metrics, "  ")
	if len(res.Extra) > 0 {
		fmt.Fprintln(w, "  -- not gated --")
		printSorted(res.Extra, "  ")
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// document is the JSON ledger a run (or a -repeat set) writes.
type document struct {
	GitSHA     string      `json:"git_sha"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	When       string      `json:"when"`
	Runs       []runResult `json:"runs"`
}

func newDocument(seed int64, seconds float64) *document {
	return &document{
		GitSHA: gitSHA(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds,
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

// gitSHA is the checkout's commit, or "unknown" outside a git repository
// (the benchmark driver runs from an exported tree).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (d *document) write(path string) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
