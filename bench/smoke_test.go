package main

import (
	"math"
	"path/filepath"
	"testing"

	"epidemic/bench/layers"
)

// TestSmoke runs every workload once at toy size, traced (a traced run
// produces both metric families), and holds the output against
// BENCHMARK.json: the set of workload and metric names must be equal in both
// directions and every value finite. It is the drift gate between the
// declaration and the program.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemons; skipped with -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range decl.Workloads {
		declared[w.Name] = true
	}
	if len(declared) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(declared), len(workloads))
	}
	t.Cleanup(killAllProcesses)

	for _, w := range workloads {
		if !declared[w.name] {
			t.Errorf("workload %s is not declared in BENCHMARK.json", w.name)
			continue
		}
		p := defaultParams(root)
		p.workload, p.traced = w.name, true
		p.seconds, p.daemons, p.setups = 2, 3, 1
		p.keys, p.snapshotKeys, p.delta, p.sampleKeys = 2000, 2000, 200, 200
		p.layerScale = layers.Scale{StoreKeys: 2000, Delta: 200, Calls: 256}
		p.outDir = t.TempDir()
		res, err := run(p)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct() {
			t.Errorf("%s: %d of %d failed: %v", w.name, res.failed, res.attempted, res.notes)
		}
		compare := func(family string, declared []declaredMetric, got map[string]measure) {
			want := map[string]string{}
			for _, d := range declared {
				want[d.Name] = d.Unit
			}
			for name, m := range got {
				unit, ok := want[name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s is not declared in BENCHMARK.json", w.name, family, name)
				case unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w.name, name, m.Value)
				}
			}
			for name := range want {
				if _, ok := got[name]; !ok {
					t.Errorf("%s: declared %s metric %s was not produced", w.name, family, name)
				}
			}
		}
		compare("end-to-end", decl.EndToEnd, res.endToEnd)
		compare("per-layer", decl.PerLayer, res.perLayer)
		for _, d := range decl.EndToEnd {
			if res.endToEnd[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
			}
		}
	}
}
