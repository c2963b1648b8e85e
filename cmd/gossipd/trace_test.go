package main

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"epidemic"
)

// TestTraceEndToEnd runs a three-daemon cluster with tracing on, gossips
// one update through, federates each replica's TRACE dump over the client
// protocol — exactly what gossipctl trace does — and checks the assembled
// infection tree: it covers the whole membership, roots at the writing
// site with hop zero, and every child sits one causal hop beyond its
// parent.
func TestTraceEndToEnd(t *testing.T) {
	base := daemonConfig{
		listen: "127.0.0.1:0", client: "127.0.0.1:0", admin: "127.0.0.1:0",
		aePer: 20 * time.Millisecond, rumPer: 10 * time.Millisecond,
		mail: true, k: 3, tau1: time.Hour, tau2: time.Hour, retain: 1,
		traceRing: 4096,
	}
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

	send := func(addr, cmd string) string {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(line)
	}

	if got := send(daemons[0].ClientAddr(), "SET traced payload"); got != "OK" {
		t.Fatalf("SET = %q", got)
	}
	deadline := time.After(5 * time.Second)
	for _, d := range daemons {
		for {
			if got := send(d.ClientAddr(), "GET traced"); got == "VALUE payload" {
				break
			}
			select {
			case <-deadline:
				t.Fatal("update never converged")
			case <-time.After(20 * time.Millisecond):
			}
		}
	}

	// Federate spans over the client protocol, one TRACE per replica.
	var spans []epidemic.TraceSpan
	for i, d := range daemons {
		line := send(d.ClientAddr(), "TRACE traced")
		var dump epidemic.TraceDump
		if err := json.Unmarshal([]byte(line), &dump); err != nil {
			t.Fatalf("daemon %d: TRACE = %q: %v", i, line, err)
		}
		if dump.Site != epidemic.SiteID(i+1) {
			t.Errorf("daemon %d: dump site = %d", i, dump.Site)
		}
		if len(dump.Spans) == 0 {
			t.Errorf("daemon %d: no spans for the converged key", i)
		}
		spans = append(spans, dump.Spans...)
	}

	tree := epidemic.AssembleTrace("traced", spans)
	if tree == nil {
		t.Fatal("no tree assembled")
	}
	if len(tree.Orphans) != 0 {
		t.Errorf("orphans with every replica traced: %+v", tree.Orphans)
	}
	sites := tree.Sites()
	if len(sites) != 3 || sites[0] != 1 || sites[1] != 2 || sites[2] != 3 {
		t.Fatalf("tree sites = %v, want [1 2 3]", sites)
	}
	if tree.Root == nil || tree.Root.Site != 1 || tree.Root.Hop != 0 {
		t.Fatalf("root = %+v, want site 1 at hop 0", tree.Root)
	}
	var walk func(n *epidemic.InfectionTreeNode)
	walk = func(n *epidemic.InfectionTreeNode) {
		for _, child := range n.Children {
			if child.Hop != n.Hop+1 {
				t.Errorf("site %d hop %d under site %d hop %d", child.Site, child.Hop, n.Site, n.Hop)
			}
			walk(child)
		}
	}
	walk(tree.Root)
	sum := tree.Summarize(len(daemons), 1e-9)
	if sum.Residue != 0 {
		t.Errorf("residue = %v after convergence", sum.Residue)
	}
	if sum.Mechanisms["origin"] != 1 {
		t.Errorf("mechanisms = %v, want one origin", sum.Mechanisms)
	}

	// The /trace admin route serves the same dump.
	var adminDump epidemic.TraceDump
	if err := json.Unmarshal(fetchAdmin(t, daemons[1].AdminAddr(), "/trace?key=traced"), &adminDump); err != nil {
		t.Fatal(err)
	}
	if adminDump.Site != 2 || len(adminDump.Spans) == 0 {
		t.Errorf("/trace dump = site %d, %d spans", adminDump.Site, len(adminDump.Spans))
	}
	for _, sp := range adminDump.Spans {
		if sp.Key != "traced" {
			t.Errorf("/trace?key= returned span for %q", sp.Key)
		}
	}

	// /events supports incremental polls via the cursor contract.
	var first struct {
		Events []epidemic.EventRecord `json:"events"`
		Next   uint64                 `json:"next"`
	}
	if err := json.Unmarshal(fetchAdmin(t, daemons[0].AdminAddr(), "/events"), &first); err != nil {
		t.Fatal(err)
	}
	if first.Next == 0 || len(first.Events) == 0 {
		t.Fatalf("/events = %d events, next %d", len(first.Events), first.Next)
	}
}

// TestTraceDisabled checks both surfaces report tracing off rather than
// returning empty data when -trace-ring is unset.
func TestTraceDisabled(t *testing.T) {
	n, err := epidemic.NewNode(epidemic.NodeConfig{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := clientSession(t, n, []string{"TRACE k", "TRACE"})
	if !strings.HasPrefix(got[0], "ERR tracing disabled") {
		t.Errorf("TRACE on untraced node = %q", got[0])
	}
	if !strings.HasPrefix(got[1], "ERR usage") {
		t.Errorf("bare TRACE = %q", got[1])
	}

	d, err := startDaemon(daemonConfig{
		site: 1, listen: "127.0.0.1:0", client: "127.0.0.1:0", admin: "127.0.0.1:0",
		aePer: time.Hour, rumPer: time.Hour, k: 3,
		tau1: time.Hour, tau2: time.Hour, retain: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.AdminAddr() + "/trace?key=k")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/trace without -trace-ring = %s", resp.Status)
	}
}
