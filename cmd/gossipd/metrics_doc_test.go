package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"epidemic"
)

// tableRow matches one row of the DESIGN.md §9 metric-family table.
var tableRow = regexp.MustCompile("(?m)^\\| `(epidemic_[a-z0-9_]+)` \\|")

// TestMetricsDocDrift is the metrics-documentation drift gate: it boots a
// daemon pair with every metric-registering subsystem enabled, drives one
// update through so lazily-registered families (transport request
// counters) appear, walks the registry, and asserts the registered
// epidemic_* family set and DESIGN.md's metric table are identical — a
// new metric without a doc row fails, as does a doc row whose metric was
// removed or renamed.
func TestMetricsDocDrift(t *testing.T) {
	base := daemonConfig{
		listen: "127.0.0.1:0", client: "127.0.0.1:0",
		aePer: 20 * time.Millisecond, rumPer: 10 * time.Millisecond,
		mail: true, k: 3, tau1: time.Hour, tau2: time.Hour, retain: 1, traceRing: 64,
		clusterDigests: true, digestEvery: 20 * time.Millisecond,
		historyStep: 50 * time.Millisecond, historyRetention: time.Minute,
	}
	cfg1 := base
	cfg1.site = 1
	d1, err := startDaemon(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	cfg2 := base
	cfg2.site = 2
	cfg2.peerSpec = "1=" + d1.GossipAddr()
	d2, err := startDaemon(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	// Converge one update: real gossip traffic registers the kind-labelled
	// transport families on the serving side.
	d1.node.Update("drift", epidemic.Value("gate"))
	deadline := time.After(5 * time.Second)
	for {
		if _, ok := d2.node.Lookup("drift"); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("update never converged")
		case <-time.After(10 * time.Millisecond):
		}
	}
	waitForFamily := func(d *daemon, name string) {
		wait := time.Now().Add(5 * time.Second)
		for {
			found := false
			d.reg.VisitSeries(func(v epidemic.MetricSeriesView) {
				if v.Name == name {
					found = true
				}
			})
			if found {
				return
			}
			if time.Now().After(wait) {
				t.Fatalf("%s never registered", name)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitForFamily(d1, epidemic.MetricTransportRequests)

	// The stall counter registers on the first stall edge; the gate wants
	// the full healthy-daemon surface, so register it here exactly as the
	// digest collector does when an incident fires.
	d1.reg.Counter(epidemic.MetricClusterStalls,
		"Convergence stalls detected, by reason.",
		epidemic.MetricLabel{Name: "reason", Value: "stale-digest"})

	registered := make(map[string]bool)
	d1.reg.VisitSeries(func(v epidemic.MetricSeriesView) {
		if strings.HasPrefix(v.Name, "epidemic_") {
			registered[v.Name] = true
		}
	})
	if len(registered) == 0 {
		t.Fatal("registry walk found no epidemic_* families")
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	for _, m := range tableRow.FindAllStringSubmatch(string(design), -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("DESIGN.md has no metric-family table rows")
	}

	for name := range registered {
		if !documented[name] {
			t.Errorf("registered family %s has no DESIGN.md table row", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("DESIGN.md documents %s but the daemon does not register it", name)
		}
	}
}
