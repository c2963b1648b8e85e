// Command bench is the repository's benchmark: it builds ./cmd/gossipd,
// boots a cluster of real gossipd processes on loopback, drives it through
// the client line protocol, and measures from outside. See README.md.
//
// Driver form, one run, result as the last line of standard output:
//
//	go run -C bench . --workload mail_steady --seed 1 --seconds 15 --trace 0
//
// Without --workload it runs every workload and prints a report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		workload = flag.String("workload", "", "run only this workload and print its result as the last line (default: all, as a report)")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: spans, once-a-second scrapes, the layer suite, per-layer metrics")
		repeat   = flag.Int("repeat", 1, "report mode: how many sets of plain runs")
		check    = flag.Bool("check", false, "report mode, with -repeat 2 or more: fail if two sets differ by more than a metric's bound")
		selftest = flag.Bool("selftest", false, "kill one replica mid-run and require the failure count and the exit code to show it")
		keep     = flag.Bool("keep", false, "keep daemon logs and snapshots under bench/out/")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected argument", flag.Arg(0))
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	p := defaultParams(root)
	p.seed, p.keep, p.traced = *seed, *keep, *trace != 0
	p.seconds = float64(decl.RunSeconds)
	if *seconds > 0 {
		p.seconds = *seconds
	}

	// Whatever ends the process, no daemon and no work directory outlives it.
	cleanUpOnSignal()
	defer guard()
	defer killAllProcesses()

	switch {
	case *selftest:
		return selfTest(p)
	case *workload != "":
		p.workload = *workload
		res, err := run(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printResult(os.Stdout, res)
		if err := printDriverLine(os.Stdout, res, decl); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return exitCode(res)
	default:
		return report(p, decl, *repeat, *check)
	}
}

// exitCode is how a run's result ends the process: wrong outputs are a
// failure of the command, not only a field of its report.
func exitCode(res *result) int {
	if !res.correct() {
		return 1
	}
	return 0
}

// findRoot locates the repository: the directory holding the epidemic
// module and cmd/gossipd, which is the working directory or its parent
// (go run -C bench runs the benchmark inside bench/).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err != nil || !strings.HasPrefix(string(mod), "module epidemic\n") {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "gossipd")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("the epidemic repository (go.mod and cmd/gossipd) is neither the working directory nor its parent")
}

// declaration is BENCHMARK.json: the contract the output must match.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// printDriverLine prints the one JSON object the driver reads: exactly the
// declared end-to-end metrics of a plain run, or the declared per-layer
// metrics of a traced one. A metric the run did not produce, or a value
// that is not a finite number, is an error: the two files have drifted.
func printDriverLine(w *os.File, res *result, decl *declaration) error {
	declared, have := decl.EndToEnd, res.endToEnd
	if res.traced {
		declared, have = decl.PerLayer, res.perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(declared))
	for _, d := range declared {
		m, ok := have[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not produce declared metric %s", res.workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("workload %s: metric %s is %v", res.workload, d.Name, m.Value)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
		metrics[d.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printResult prints one run for a reader: every metric by name with its
// value, unit and sample count.
func printResult(w *os.File, res *result) {
	kind := "plain"
	if res.traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s): attempted %d, failed %d, failed_ops_ratio %.6f\n",
		res.workload, res.seed, kind, res.attempted, res.failed, float64(res.failed)/math.Max(1, float64(res.attempted)))
	printMeasures(w, res.endToEnd)
	if len(res.perLayer) > 0 {
		fmt.Fprintln(w, "-- per layer")
		printMeasures(w, res.perLayer)
	}
	if res.traced {
		fmt.Fprintln(w, "-- trace written to", res.tracePath)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "   note:", n)
	}
}

func printMeasures(w *os.File, ms map[string]measure) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "   %-44s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
}

// selfTest proves the output check can fail: with one replica killed early
// and left dead, probes never show there and its read-back fails, so the
// run must report failures. It exits 0 only if that happened.
func selfTest(p params) int {
	p.workload, p.sabotage, p.seconds, p.setups = "mail_steady", true, 3, 1
	res, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selftest:", err)
		return 1
	}
	printResult(os.Stdout, res)
	if res.failed == 0 || exitCode(res) == 0 {
		fmt.Println("selftest FAILED: a replica was dead for the whole run, yet no operation counted as failed or the run would exit 0")
		return 1
	}
	fmt.Printf("selftest ok: the killed replica drove failed to %d of %d, failed_ops_ratio %.4f, exit code %d\n",
		res.failed, res.attempted, float64(res.failed)/float64(res.attempted), exitCode(res))
	return 0
}
