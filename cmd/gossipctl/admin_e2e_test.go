package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"epidemic"
)

// liveAdmin assembles a real admin endpoint — the same registry and
// event-ring handlers gossipd mounts — around a live node, so the admin
// verbs are exercised end to end rather than against canned strings. The
// node holds one live key and one death certificate.
func liveAdmin(t *testing.T) (admin string, ring *epidemic.EventRing, n *epidemic.Node) {
	t.Helper()
	n, err := epidemic.NewNode(epidemic.NodeConfig{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := epidemic.NewMetricsRegistry()
	ring = epidemic.NewEventRing(0)
	n.SetOnEvent(epidemic.InstrumentNode(reg, n, epidemic.ObserveOptions{Ring: ring}))
	n.Update("greeting", epidemic.Value("hello"))
	n.Update("gone", epidemic.Value("bye"))
	n.Delete("gone")

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/events", ring.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok","site":1}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://"), ring, n
}

// TestAdminVerbsLive drives metrics, health and events against live
// handlers: the metrics body must be valid Prometheus exposition carrying
// real node series, and the events cursor must resume incrementally.
func TestAdminVerbsLive(t *testing.T) {
	admin, ring, n := liveAdmin(t)
	opts := testOpts("127.0.0.1:1", admin)

	metrics, err := run(opts, []string{"metrics"})
	if err != nil {
		t.Fatal(err)
	}
	if err := epidemic.ValidateExposition(strings.NewReader(metrics)); err != nil {
		t.Fatalf("metrics verb returned malformed exposition: %v", err)
	}
	for _, name := range []string{epidemic.MetricUpdatesAccepted, epidemic.MetricStoreKeys} {
		if !strings.Contains(metrics, name) {
			t.Errorf("metrics output missing %s", name)
		}
	}
	// The key gauge counts death certificates: it is Store().Len(), 2 here,
	// where the live count is 1.
	want := fmt.Sprintf("\n%s %d\n", epidemic.MetricStoreKeys, n.Store().Len())
	if n.Store().Len() != 2 || !strings.Contains(metrics, want) {
		t.Errorf("metrics output lacks %q (Len %d)", want, n.Store().Len())
	}

	health, err := run(opts, []string{"health"})
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(health), &h); err != nil || h.Status != "ok" {
		t.Errorf("health = %q (%v)", health, err)
	}

	// Events: the update event is retained; a -since resume from the reply
	// cursor sees nothing until new activity lands.
	out, err := run(opts, []string{"events"})
	if err != nil {
		t.Fatal(err)
	}
	var reply struct {
		Events []epidemic.EventRecord `json:"events"`
		Next   int64                  `json:"next"`
	}
	if err := json.Unmarshal([]byte(out), &reply); err != nil {
		t.Fatalf("events reply: %v\n%s", err, out)
	}
	if len(reply.Events) == 0 || reply.Events[0].Kind != "update" {
		t.Fatalf("events = %+v, want the update event", reply.Events)
	}

	resume := opts
	resume.since = reply.Next
	out, err = run(resume, []string{"events"})
	if err != nil {
		t.Fatal(err)
	}
	var empty struct {
		Events []epidemic.EventRecord `json:"events"`
		Next   int64                  `json:"next"`
	}
	if err := json.Unmarshal([]byte(out), &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Events) != 0 {
		t.Errorf("resume from cursor %d replayed %d events", reply.Next, len(empty.Events))
	}

	// New activity after the cursor is picked up by the next resume.
	ring.Append(epidemic.EventRecord{Site: 1, Kind: "gc"})
	out, err = run(resume, []string{"events"})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out), &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Events) != 1 || empty.Events[0].Kind != "gc" {
		t.Errorf("resume after new event = %+v, want just the gc event", empty.Events)
	}
}

// clusterReply builds a two-site status with one stale site and a stall,
// served the way gossipd's /cluster route does.
func clusterReply() epidemic.ClusterStatusReply {
	now := int64(100 * 1e9)
	digests := []epidemic.ClusterDigest{
		{
			Site: 1, Stamp: now, StartedAt: now - 60*1e9, StoreKeys: 7,
			Checksum: 0xabcdef0123456789, HotRumors: 2, LastAE: now - 2*1e9,
			AntiEntropy: epidemic.ClusterLatencySummary{Count: 40, P50: 0.004, P99: 0.12},
		},
		{Site: 2, Stamp: now - 30*1e9, StartedAt: now - 60*1e9, StoreKeys: 6},
	}
	stalls := []epidemic.ClusterStall{{
		Site: 2, Reason: epidemic.StallStaleDigest,
		Detail: "digest last refreshed 30.0s ago", AgeSeconds: 30,
	}}
	return epidemic.BuildClusterStatus(1, now, digests, stalls, int64(10*1e9), 1e-9)
}

func serveCluster(t *testing.T, st epidemic.ClusterStatusReply) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestRunStatus checks the status verb renders the /cluster view: header,
// per-site rows with quantiles and staleness, and the stall list.
func TestRunStatus(t *testing.T) {
	opts := testOpts("127.0.0.1:1", serveCluster(t, clusterReply()))
	out, err := run(opts, []string{"status"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cluster status from site 1: degraded (2 sites)",
		"SITE", "AE-P50", "LAST-AE",
		"abcdef01", // checksum prefix
		"4.0ms",    // site 1 AE p50
		"120.0ms",  // site 1 AE p99
		"2.0s ago", // site 1 last anti-entropy
		"stale",    // site 2 marked stale
		"-",        // site 2 has no latency samples
		"stall: site 2 stale-digest",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("status output leaked NaN:\n%s", out)
	}

	// Healthy reply: no stall lines, status ok.
	healthy := clusterReply()
	healthy.Status = "ok"
	healthy.Stalls = nil
	opts = testOpts("127.0.0.1:1", serveCluster(t, healthy))
	out, err = run(opts, []string{"status"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "stall:") {
		t.Errorf("healthy status output has stalls:\n%s", out)
	}

	if _, err := run(testOpts("127.0.0.1:1", ""), []string{"status"}); err == nil || !strings.Contains(err.Error(), "-admin") {
		t.Errorf("missing -admin not reported: %v", err)
	}
	if _, err := run(opts, []string{"status", "extra"}); err == nil {
		t.Error("status with args accepted")
	}
}

// TestRunWatch checks watch redraws frames (clear-screen escape between
// them) and stops at the iteration bound; errors surface immediately.
func TestRunWatch(t *testing.T) {
	opts := testOpts("127.0.0.1:1", serveCluster(t, clusterReply()))
	opts.interval = time.Millisecond
	var sb strings.Builder
	if err := runWatch(opts, &sb, 3); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "\033[H\033[2J"); got != 3 {
		t.Errorf("watch drew %d clear-screens, want 3", got)
	}
	if got := strings.Count(out, "cluster status from site 1"); got != 3 {
		t.Errorf("watch drew %d frames, want 3", got)
	}

	bad := testOpts("127.0.0.1:1", "127.0.0.1:1")
	bad.timeout = 200 * time.Millisecond
	bad.interval = time.Millisecond
	if err := runWatch(bad, &sb, 2); err == nil {
		t.Error("watch against a dead endpoint did not error")
	}
}
