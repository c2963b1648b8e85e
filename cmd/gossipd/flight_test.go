package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"epidemic"
)

// TestFlightDumpOnDaemonKill is the flight-recorder acceptance test: a
// three-daemon cluster converges, one daemon is killed, and each survivor
// must produce exactly one stale-digest flight dump whose correlated
// sections — event window, trace-span ring, time-series window — are all
// non-empty and cover the incident.
func TestFlightDumpOnDaemonKill(t *testing.T) {
	const staleAfter = 500 * time.Millisecond
	base := daemonConfig{
		listen: "127.0.0.1:0", client: "127.0.0.1:0", admin: "127.0.0.1:0",
		aePer: 20 * time.Millisecond, rumPer: 10 * time.Millisecond,
		mail: true, k: 3, tau1: time.Hour, tau2: time.Hour, retain: 1,
		traceRing:      256,
		clusterDigests: true, digestEvery: 20 * time.Millisecond, staleAfter: staleAfter,
		historyStep: 20 * time.Millisecond, historyRetention: time.Minute,
	}
	// FLIGHT_SMOKE_DIR redirects dumps to a stable path (make obs-smoke
	// points it into .scratch/) so a failing CI run leaves the flight
	// dumps behind as artifacts; unset, they go to the test temp dir.
	flightRoot := os.Getenv("FLIGHT_SMOKE_DIR")
	var daemons []*daemon
	for site := 1; site <= 3; site++ {
		cfg := base
		cfg.site = site
		cfg.flightDir = t.TempDir()
		if flightRoot != "" {
			cfg.flightDir = filepath.Join(flightRoot, fmt.Sprintf("site-%d", site))
			if err := os.RemoveAll(cfg.flightDir); err != nil {
				t.Fatal(err)
			}
		}
		if len(daemons) > 0 {
			cfg.peerSpec = "1=" + daemons[0].GossipAddr()
		}
		d, err := startDaemon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		daemons = append(daemons, d)
	}

	// Converge one update so every survivor has event/span/series history
	// covering real gossip activity, and every digest checksum agrees
	// (only the staleness trigger should fire after the kill).
	daemons[0].node.Update("incident", epidemic.Value("payload"))
	deadline := time.After(5 * time.Second)
	for _, d := range daemons {
		for {
			if _, ok := d.node.Lookup("incident"); ok {
				break
			}
			select {
			case <-deadline:
				t.Fatal("update never converged")
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	victim := daemons[2]
	victim.Close()
	killed := time.Now().UnixNano()

	// Each survivor notices the victim's digest going stale and dumps once.
	type dumpList struct {
		Dumps []epidemic.FlightDumpMeta `json:"dumps"`
	}
	staleDumps := func(addr string) []epidemic.FlightDumpMeta {
		var list dumpList
		if err := json.Unmarshal(fetchAdmin(t, addr, "/flight"), &list); err != nil {
			t.Fatalf("bad /flight JSON: %v", err)
		}
		var out []epidemic.FlightDumpMeta
		for _, m := range list.Dumps {
			if m.Reason == "stale-digest" {
				out = append(out, m)
			}
		}
		return out
	}
	for i, d := range daemons[:2] {
		var dumps []epidemic.FlightDumpMeta
		dumpDeadline := time.Now().Add(10 * time.Second)
		for {
			dumps = staleDumps(d.AdminAddr())
			if len(dumps) > 0 {
				break
			}
			if time.Now().After(dumpDeadline) {
				t.Fatalf("survivor %d never produced a stale-digest flight dump", i)
			}
			time.Sleep(25 * time.Millisecond)
		}

		// The stall is a level condition that persists; the edge tracker
		// must keep it to exactly one dump. Wait several more staleness
		// windows to catch any re-trigger.
		time.Sleep(3 * staleAfter)
		dumps = staleDumps(d.AdminAddr())
		if len(dumps) != 1 {
			t.Fatalf("survivor %d has %d stale-digest dumps, want exactly 1: %+v", i, len(dumps), dumps)
		}
		if dumps[0].At < killed-staleAfter.Nanoseconds() {
			t.Errorf("survivor %d: dump stamped %d, before the kill at %d", i, dumps[0].At, killed)
		}

		// The dump's correlated sections must be non-empty and the
		// time-series window must cover the incident stamp.
		var dump struct {
			Reason   string `json:"reason"`
			At       int64  `json:"at"`
			Sections struct {
				Events []epidemic.EventRecord `json:"events"`
				Spans  struct {
					Spans []json.RawMessage `json:"spans"`
				} `json:"spans"`
				Series map[string][]epidemic.HistoryPoint `json:"series"`
				Status *epidemic.ClusterStatusReply       `json:"status"`
			} `json:"sections"`
		}
		body := fetchAdmin(t, d.AdminAddr(), "/flight?name="+url.QueryEscape(dumps[0].Name))
		if err := json.Unmarshal(body, &dump); err != nil {
			t.Fatalf("survivor %d: bad dump JSON: %v", i, err)
		}
		if dump.Reason != "stale-digest" {
			t.Errorf("survivor %d: dump reason = %q", i, dump.Reason)
		}
		if len(dump.Sections.Events) == 0 {
			t.Errorf("survivor %d: dump has an empty event window", i)
		}
		if len(dump.Sections.Spans.Spans) == 0 {
			t.Errorf("survivor %d: dump has an empty span ring", i)
		}
		if len(dump.Sections.Series) == 0 {
			t.Fatalf("survivor %d: dump has no time series", i)
		}
		covered := false
		for _, pts := range dump.Sections.Series {
			for _, p := range pts {
				if p.At <= dump.At {
					covered = true
				}
			}
		}
		if !covered {
			t.Errorf("survivor %d: no series point at or before the incident stamp", i)
		}
		if dump.Sections.Status == nil {
			t.Errorf("survivor %d: dump carries no cluster status", i)
		}
	}
}
