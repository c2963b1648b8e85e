package obs

import (
	"bufio"
	"strconv"
	"strings"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
	"epidemic/internal/transport"
)

// scrape renders reg and returns the value of the series whose name (with
// any label set) matches exactly.
func scrape(t *testing.T, reg *Registry, series string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == series {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not exposed:\n%s", series, sb.String())
	return 0
}

// TestInstrumentWire drives a pooled anti-entropy exchange plus a redial
// through an instrumented WireStats and asserts every epidemic_wire_*
// metric moved.
func TestInstrumentWire(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	mkNode := func(site timestamp.SiteID) *node.Node {
		n, err := node.New(node.Config{Site: site, Clock: src.ClockAt(site)})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	remote := mkNode(2)
	srv, err := transport.Serve(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	reg := NewRegistry()
	ws := &transport.WireStats{}
	InstrumentWire(reg, ws)

	local := store.New(1, src.ClockAt(1))
	local.Update("mine", store.Value("v"))
	remote.Store().Update("theirs", store.Value("w"))

	peer := transport.NewTCPPeerWith(2, addr, transport.PeerOptions{
		Timeout: 2 * time.Second, Stats: ws,
	})
	defer peer.Close()
	// One small push rides a pooled session like every other request.
	if _, err := peer.PushRumors([]store.Entry{
		{Key: "rumor", Value: store.Value("r"), Stamp: timestamp.T{Time: 9, Site: 1, Seq: 9}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	cfg := core.ResolveConfig{
		Mode: core.PushPull, Strategy: core.CompareRecent,
		Tau: 1 << 40, Tau1: 1 << 40,
	}
	if _, err := peer.AntiEntropy(cfg, local, nil); err != nil {
		t.Fatal(err)
	}
	// A second conversation reuses the pooled session.
	if _, err := peer.AntiEntropy(cfg, local, nil); err != nil {
		t.Fatal(err)
	}

	for name, min := range map[string]float64{
		MetricWireDials:                         1,
		MetricWireReuses:                        1,
		MetricWireOpenConns:                     1,
		MetricWireBytesSent:                     1,
		MetricWireBytesReceived:                 1,
		MetricWireExchanges:                     2,
		MetricWireEntriesPerExchange + "_count": 2,
		MetricWireBytesPerExchange + "_count":   2,
		MetricWireMsgsBinary:                    1,
	} {
		if got := scrape(t, reg, name); got < min {
			t.Errorf("%s = %v, want >= %v", name, got, min)
		}
	}
	if got := scrape(t, reg, MetricWireRedials); got != 0 {
		t.Errorf("redials before restart = %v", got)
	}

	// Restart the remote on the same address: the pooled session is now a
	// dead socket, and the next request must dial a replacement.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := transport.Serve(mkNode(2), addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := peer.AntiEntropy(cfg, local, nil); err != nil {
		t.Fatalf("exchange through restarted remote: %v", err)
	}
	if got := scrape(t, reg, MetricWireRedials); got < 1 {
		t.Errorf("%s = %v after restart, want >= 1", MetricWireRedials, got)
	}

	// Age a fresh divergence past the recent window so the next exchange
	// has to localize it: that is the shard-vector narrow path, and its
	// counters must move.
	local.Update("aged", store.Value("old"))
	src.Advance(1 << 20)
	aged := core.ResolveConfig{
		Mode: core.PushPull, Strategy: core.CompareRecent,
		Tau: 1, Tau1: 1 << 40,
	}
	if _, err := peer.AntiEntropy(aged, local, nil); err != nil {
		t.Fatal(err)
	}
	if got := scrape(t, reg, MetricWireShardVecExchanges); got < 1 {
		t.Errorf("%s = %v, want >= 1", MetricWireShardVecExchanges, got)
	}
	if got := scrape(t, reg, MetricWireShardVecShards); got < 1 {
		t.Errorf("%s = %v, want >= 1", MetricWireShardVecShards, got)
	}
	if got := scrape(t, reg, MetricWireShardVecDowngrades); got != 0 {
		t.Errorf("%s = %v, want 0", MetricWireShardVecDowngrades, got)
	}
}
