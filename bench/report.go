package main

import (
	"fmt"
	"math"
	"os"
)

// report runs every workload sets times plain, then once traced when
// p.traced is set, and prints all metrics. With check it compares the first
// two sets per end-to-end metric against the bound BENCHMARK.json fixes and
// fails when a metric moved by more.
func report(p params, decl *declaration, sets int, check bool) int {
	if check && sets < 2 {
		fmt.Fprintln(os.Stderr, "bench: -check needs -repeat 2 or more")
		return 2
	}
	traced := p.traced
	code := 0
	plain := make([]map[string]*result, sets) // set -> workload -> result
	for set := range plain {
		plain[set] = map[string]*result{}
		for _, w := range decl.Workloads {
			q := p
			q.workload, q.traced = w.Name, false
			res, err := run(q)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printResult(os.Stdout, res)
			code = max(code, exitCode(res))
			plain[set][w.Name] = res
		}
	}
	if traced {
		for _, w := range decl.Workloads {
			q := p
			q.workload, q.traced = w.Name, true
			res, err := run(q)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printResult(os.Stdout, res)
			code = max(code, exitCode(res))
			fmt.Println("-- trace_overhead_pct: traced run against the plain run, per end-to-end metric")
			for _, d := range decl.EndToEnd {
				base, tr := plain[0][w.Name].endToEnd[d.Name].Value, res.endToEnd[d.Name].Value
				fmt.Printf("   %-44s %+9.2f %%   (plain %.4f, traced %.4f %s)\n", d.Name, 100*(tr-base)/base, base, tr, d.Unit)
			}
		}
	}
	if check {
		fmt.Println("== repeatability: set 1 against set 2, same build")
		for _, w := range decl.Workloads {
			for _, d := range decl.EndToEnd {
				a, b := plain[0][w.Name].endToEnd[d.Name].Value, plain[1][w.Name].endToEnd[d.Name].Value
				diff := math.Abs(a-b) / math.Min(a, b)
				verdict := "ok"
				if diff > d.Bound {
					verdict = "EXCEEDS BOUND"
					code = 1
				}
				fmt.Printf("   %-13s %-24s %12.4f %12.4f %-5s diff %6.2f %%  bound %5.1f %%  %s\n",
					w.Name, d.Name, a, b, d.Unit, 100*diff, 100*d.Bound, verdict)
			}
		}
	}
	fmt.Println(`{"claim": null}`)
	return code
}
