package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"epidemic"
)

// clusterBase is the daemon config the observatory tests share: fast
// gossip, fast digest refresh, and an explicit staleness window so the
// stall detector's behaviour doesn't depend on flag defaults.
func clusterBase() daemonConfig {
	return daemonConfig{
		listen: "127.0.0.1:0", client: "127.0.0.1:0", admin: "127.0.0.1:0",
		aePer: 20 * time.Millisecond, rumPer: 10 * time.Millisecond,
		mail: true, k: 3, tau1: time.Hour, tau2: time.Hour, retain: 1,
		clusterDigests: true,
		digestEvery:    10 * time.Millisecond,
		staleAfter:     300 * time.Millisecond,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getClusterStatus(t *testing.T, d *daemon) epidemic.ClusterStatusReply {
	t.Helper()
	var st epidemic.ClusterStatusReply
	if err := json.Unmarshal(fetchAdmin(t, d.AdminAddr(), "/cluster"), &st); err != nil {
		t.Fatalf("bad /cluster JSON: %v", err)
	}
	return st
}

// TestClusterSmoke is the acceptance e2e behind `make cluster-smoke`: a
// three-daemon cluster whose digests spread by gossip until every daemon
// serves the whole cluster's health on /cluster; then one daemon is
// killed and the survivors must mark it stale, flip /healthz to degraded
// with a stale-digest reason, emit a cluster-stall event, and expose the
// epidemic_cluster_* metrics.
func TestClusterSmoke(t *testing.T) {
	base := clusterBase()
	var daemons []*daemon
	for site := 1; site <= 3; site++ {
		cfg := base
		cfg.site = site
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

	// Phase 1: every daemon's digest view converges to all three sites,
	// fresh and healthy, and the digests carry real state — at least the
	// three membership records and a positive uptime stamp. The content
	// check must ride the wait: a freshly received digest may predate the
	// remote site learning the full membership, and a newer one follows.
	waitFor(t, 5*time.Second, "full fresh cluster view", func() bool {
		for _, d := range daemons {
			st := getClusterStatus(t, d)
			if len(st.Sites) != 3 || st.Status != "ok" {
				return false
			}
			for _, s := range st.Sites {
				if s.Stale || s.StoreKeys < 3 || s.StartedAt <= 0 || s.Stamp <= s.StartedAt {
					return false
				}
			}
		}
		return true
	})

	// Freshness under the per-peer delta: a remote digest is refreshed
	// every -digest-every and crosses each link on the next conversation,
	// so none is older than that plus one rumor period, beside scheduling
	// slack on a loaded box — well inside -stale-after.
	const slack = 150 * time.Millisecond
	bound := (base.digestEvery + base.rumPer + slack).Seconds()
	for _, d := range daemons {
		st := getClusterStatus(t, d)
		oldest := 0.0
		for _, s := range st.Sites {
			if s.Site != st.Site {
				oldest = max(oldest, s.AgeSeconds)
			}
		}
		t.Logf("site %d: oldest remote digest %.0f ms", st.Site, oldest*1e3)
		if oldest > bound {
			t.Errorf("site %d's oldest remote digest is %.3fs old, want <= %.3fs", st.Site, oldest, bound)
		}
	}

	// A healthy converged cluster must not trip the residue-stuck detector:
	// wait out the residue window (2x stale-after) and the view must still
	// be ok with zero residue everywhere. Regression test for the lone-
	// replica residue false positive (a node only observes its own applies,
	// so tracker-derived residue sat at 1-1/n forever).
	time.Sleep(2*base.staleAfter + 100*time.Millisecond)
	for _, d := range daemons {
		st := getClusterStatus(t, d)
		if st.Status != "ok" {
			t.Errorf("healthy cluster degraded after residue window: %+v", st.Stalls)
		}
		for _, s := range st.Sites {
			if s.Residue != 0 {
				t.Errorf("site %d residue = %v in a converged cluster", s.Site, s.Residue)
			}
		}
	}

	metrics := string(fetchAdmin(t, daemons[0].AdminAddr(), "/metrics"))
	if err := epidemic.ValidateExposition(strings.NewReader(metrics)); err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	for _, name := range []string{
		epidemic.MetricClusterSites,
		epidemic.MetricClusterStaleSites,
		epidemic.MetricExchangeSeconds,
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	// Phase 2: kill site 3. The survivors' copies of its digest age out of
	// the staleness window; /cluster marks it stale and /healthz degrades.
	daemons[2].Close()
	survivors := daemons[:2]
	waitFor(t, 5*time.Second, "stale detection after kill", func() bool {
		for _, d := range survivors {
			st := getClusterStatus(t, d)
			stale := false
			for _, s := range st.Sites {
				if s.Site == 3 && s.Stale {
					stale = true
				}
			}
			if !stale || st.Status != "degraded" {
				return false
			}
		}
		return true
	})

	for _, d := range survivors {
		var health healthReply
		if err := json.Unmarshal(fetchAdmin(t, d.AdminAddr(), "/healthz"), &health); err != nil {
			t.Fatalf("bad /healthz JSON: %v", err)
		}
		if health.Status != "degraded" {
			t.Errorf("site %d /healthz status = %q, want degraded", health.Site, health.Status)
		}
		found := false
		for _, stall := range health.Stalls {
			if stall.Site == 3 && stall.Reason == epidemic.StallStaleDigest {
				found = true
			}
		}
		if !found {
			t.Errorf("site %d /healthz stalls lack stale-digest for site 3: %+v", health.Site, health.Stalls)
		}

		var events struct {
			Events []epidemic.EventRecord `json:"events"`
		}
		if err := json.Unmarshal(fetchAdmin(t, d.AdminAddr(), "/events"), &events); err != nil {
			t.Fatalf("bad /events JSON: %v", err)
		}
		stallEvents := 0
		for _, e := range events.Events {
			if e.Kind == "cluster-stall" && e.Peer == 3 && e.Key == epidemic.StallStaleDigest {
				stallEvents++
			}
		}
		if stallEvents != 1 {
			t.Errorf("survivor has %d cluster-stall events for site 3, want exactly 1 (edge-triggered)", stallEvents)
		}

		metrics := string(fetchAdmin(t, d.AdminAddr(), "/metrics"))
		if !strings.Contains(metrics, epidemic.MetricClusterStalls) {
			t.Errorf("/metrics missing %s after a stall", epidemic.MetricClusterStalls)
		}
	}
}

// TestHealthzDegradesAndRecovers drives one daemon's /healthz through
// both states: ok at startup, degraded once a stale digest appears in its
// view, and ok again after the TTL prunes the departed site.
func TestHealthzDegradesAndRecovers(t *testing.T) {
	cfg := clusterBase()
	cfg.site = 1
	cfg.staleAfter = 50 * time.Millisecond
	cfg.digestTTL = 2 * time.Second
	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	health := func() healthReply {
		var h healthReply
		if err := json.Unmarshal(fetchAdmin(t, d.AdminAddr(), "/healthz"), &h); err != nil {
			t.Fatalf("bad /healthz JSON: %v", err)
		}
		return h
	}
	if h := health(); h.Status != "ok" || len(h.Stalls) != 0 {
		t.Fatalf("fresh daemon health = %+v, want ok", h)
	}

	// A site whose digest is already 500ms old: past the 50ms staleness
	// window, well inside the 2s TTL.
	d.digests.Merge(99, []epidemic.ClusterDigest{{
		Site: 99, Stamp: time.Now().Add(-500 * time.Millisecond).UnixNano(),
	}})
	waitFor(t, 3*time.Second, "degraded health", func() bool {
		h := health()
		if h.Status != "degraded" {
			return false
		}
		for _, s := range h.Stalls {
			if s.Site == 99 && s.Reason == epidemic.StallStaleDigest {
				return true
			}
		}
		return false
	})

	// Once the TTL passes, the departed site is pruned and health recovers.
	waitFor(t, 5*time.Second, "health recovery after TTL prune", func() bool {
		return health().Status == "ok"
	})
	st := getClusterStatus(t, d)
	for _, s := range st.Sites {
		if s.Site == 99 {
			t.Errorf("site 99 still in view after TTL: %+v", s)
		}
	}
}

// TestClusterDisabled: with -cluster-digests=false the /cluster route
// answers 503, /healthz never degrades, and no digest directory exists.
func TestClusterDisabled(t *testing.T) {
	cfg := clusterBase()
	cfg.site = 1
	cfg.clusterDigests = false
	d, err := startDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	resp, err := http.Get("http://" + d.AdminAddr() + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/cluster = %s (%s), want 503", resp.Status, body)
	}
	var h healthReply
	if err := json.Unmarshal(fetchAdmin(t, d.AdminAddr(), "/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health = %+v, want ok", h)
	}
	if d.node.Digests() != nil {
		t.Error("digest directory materialised with the observatory off")
	}
}
