// Command gossipd runs one replica of the epidemic-replicated database as
// a network daemon: it serves gossip over TCP, runs the anti-entropy and
// rumor-mongering daemons, announces itself in the replicated membership
// directory, and accepts simple line-oriented client commands on a second
// port.
//
// Usage:
//
//	gossipd -site 1 -listen :7001 -client :8001 \
//	        -peers 2=host2:7001,3=host3:7001 [-data /var/lib/gossipd.snap]
//
// The -peers list only seeds the first contact; thereafter the peer set is
// synchronised from the membership directory, which rides the replicated
// database itself.
//
// Client protocol (one command per line):
//
//	GET <key>            -> VALUE <v> | MISSING
//	SET <key> <value>    -> OK
//	DEL <key>            -> OK
//	KEYS                 -> KEYS <k1> <k2> ...
//	MEMBERS              -> MEMBERS <site>=<addr> ...
//	HOT                  -> HOT <k1> <k2> ...      (current hot rumors)
//	SNAPSHOT             -> OK                     (force a durable snapshot)
//	STATS                -> STATS <text>
//	STATSJSON            -> <one-line JSON object> (machine-readable stats)
//	WIRE                 -> <one-line JSON object> (connection-pool and wire-traffic stats)
//	TRACE <key>          -> <one-line JSON object> (this replica's hop spans for key)
//
// Wire protocol: gossip rides one hand-rolled binary frame layout over
// pooled TCP sessions, opened by a 4-byte hello that names wire version 8;
// a peer speaking any other version is refused. Every request kind, rumor
// pushes included, is one round trip on a pooled session. Anti-entropy
// narrows a checksum mismatch to the diverged buckets of the pair's
// common shard count (-store-shards may differ between daemons). The WIRE
// client verb and the epidemic_wire_* metrics expose dial, message,
// shard-vector and mail-batch counters.
//
// Outbound mail: direct-mailed updates ride an asynchronous per-peer
// send-queue engine — SET/DEL return after an enqueue, the node's mail
// workers (started with the node, before the first SET is served) fan out
// to all peers in parallel, and back-to-back writes to one key coalesce to
// the newest stamp. -outbox-queue bounds each peer's queue (overflow drops
// the oldest entry, the paper's lossy-mail queue in §1.2). Every drain
// ships to its peer as one batched frame. The epidemic_outbox_* metrics
// and the STATSJSON outbox_* fields expose enqueues, coalesced
// supersessions, drops, batches, and current depth.
//
// Observability: -admin host:port serves /metrics (Prometheus text
// format), /healthz (JSON), /cluster (this replica's gossip-borne view of
// every site's health digest, plus convergence stalls and
// history-derived trends), /events (recent node events as JSON,
// ?since=<cursor> for incremental polls, ?key= to filter),
// /metrics/history (retained metric time series, ?metric=&window=&step=),
// /flight (flight-recorder dumps), /trace?key= (hop spans) and
// /debug/pprof/* on a separate HTTP listener; -log-level and -log-format
// control structured logging to stderr.
//
// Telemetry history: a fixed-cadence sampler walks the metrics registry
// every -history-step (default 1s) and retains -history-retention
// (default 15m) of every counter, gauge, and histogram quantile summary
// in bounded rings — the source for /metrics/history, the trends block
// on /cluster and STATSJSON, and gossipctl top. -history-step 0 disables
// it. On a stall edge (stale digest, stuck residue, persistent checksum
// mismatch) or an outbox-overflow burst, the flight recorder captures
// the correlated event window, trace spans, time-series window, digest
// directory, and wire/node stats into one JSON dump under -flight-dir
// (default .scratch/flight/), keeping the newest -flight-max dumps;
// /flight and gossipctl flight retrieve them. -flight-dir "" disables
// the recorder.
//
// Cluster observatory: with -cluster-digests (default on) every replica
// refreshes a compact health digest each -digest-every and the digests
// ride ordinary anti-entropy and rumor exchanges as a trailing frame
// section — no extra connections, one byte when disabled. Any single
// daemon can then serve the whole cluster's status on /cluster (gossipctl
// status / watch render it). A stall detector flags sites whose digests
// go stale (-stale-after, default 3x the anti-entropy period), residue
// that stops decaying, and persistent checksum disagreement; stalls
// degrade /healthz, append cluster-stall events, and feed the
// epidemic_cluster_* metrics. -digest-ttl bounds how long a departed
// site's digest lingers. -trace-ring N enables update
// tracing: every applied update records a hop span (sender, mechanism,
// causal hop count) into a ring of N spans, federated across replicas by
// gossipctl trace into an infection tree. -mutex-profile-fraction and
// -block-profile-rate enable runtime lock-contention sampling so
// /debug/pprof/mutex and /debug/pprof/block show store and protocol
// contention; -store-shards sets the replica store's lock-stripe count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"epidemic"
)

func main() {
	var cfg daemonConfig
	flag.IntVar(&cfg.site, "site", 1, "this replica's site ID (unique per replica)")
	flag.StringVar(&cfg.listen, "listen", ":7001", "gossip listen address")
	flag.StringVar(&cfg.client, "client", ":8001", "client listen address")
	flag.StringVar(&cfg.peerSpec, "peers", "", "comma-separated id=host:port seed peer list")
	flag.DurationVar(&cfg.aePer, "anti-entropy-every", 5*time.Second, "anti-entropy period")
	flag.DurationVar(&cfg.rumPer, "rumor-every", time.Second, "rumor-mongering period")
	flag.BoolVar(&cfg.mail, "direct-mail", true, "direct-mail updates to all peers")
	flag.IntVar(&cfg.k, "k", 3, "rumor counter threshold")
	flag.DurationVar(&cfg.tau1, "tau1", time.Hour, "death-certificate active window")
	flag.DurationVar(&cfg.tau2, "tau2", 24*time.Hour, "death-certificate dormant window")
	flag.IntVar(&cfg.retain, "retention", 2, "dormant death-certificate retention sites")
	flag.StringVar(&cfg.data, "data", "", "snapshot file for durable state (empty = in-memory only)")
	flag.StringVar(&cfg.advertise, "advertise", "", "gossip address to announce in the membership directory (empty = -listen)")
	flag.StringVar(&cfg.admin, "admin", "", "admin HTTP address serving /metrics, /healthz, /events and /debug/pprof (empty = disabled)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug, info, warn or error (empty = no logging)")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log format: text or json")
	flag.IntVar(&cfg.poolSize, "pool-size", 2, "persistent gossip connections kept per peer (0 = default)")
	flag.IntVar(&cfg.peelBatch, "peel-batch", 0, "entries per peel-back batch during anti-entropy (0 = default)")
	flag.DurationVar(&cfg.exchangeTimeout, "exchange-timeout", 10*time.Second, "per-request deadline on outbound gossip")
	flag.IntVar(&cfg.storeShards, "store-shards", 0, "replica store lock stripes, rounded up to a power of two (0 = default)")
	flag.IntVar(&cfg.shardRepairWorkers, "shard-repair-workers", 0, "diverged buckets repaired concurrently per exchange (0 = default)")
	flag.IntVar(&cfg.outboxQueue, "outbox-queue", 0, "outbound-mail entries queued per peer before drop-oldest (0 = default)")
	flag.IntVar(&cfg.traceRing, "trace-ring", 0, "hop-provenance spans retained for TRACE and /trace (0 = tracing disabled)")
	flag.IntVar(&cfg.mutexProfileFraction, "mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction: sample 1/n mutex contention events for /debug/pprof/mutex (0 = off)")
	flag.IntVar(&cfg.blockProfileRate, "block-profile-rate", 0, "runtime.SetBlockProfileRate: sample blocking events >= n ns for /debug/pprof/block (0 = off)")
	flag.BoolVar(&cfg.clusterDigests, "cluster-digests", true, "spread health digests on gossip exchanges and serve the /cluster view")
	flag.DurationVar(&cfg.digestEvery, "digest-every", time.Second, "health-digest refresh period")
	flag.DurationVar(&cfg.digestTTL, "digest-ttl", 10*time.Minute, "drop a remote site's digest after this long without a refresh")
	flag.DurationVar(&cfg.staleAfter, "stale-after", 0, "mark a site stale when its digest is older than this (0 = 3x -anti-entropy-every)")
	flag.DurationVar(&cfg.historyStep, "history-step", time.Second, "metric time-series sampling cadence for /metrics/history (0 = history disabled)")
	flag.DurationVar(&cfg.historyRetention, "history-retention", 15*time.Minute, "how much metric trajectory to retain per series")
	flag.StringVar(&cfg.flightDir, "flight-dir", ".scratch/flight", "directory for anomaly flight dumps (empty = flight recorder disabled)")
	flag.IntVar(&cfg.flightMax, "flight-max", 8, "flight dumps retained before oldest-first eviction")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gossipd:", err)
		os.Exit(1)
	}
}

func run(cfg daemonConfig) error {
	d, err := startDaemon(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	if admin := d.AdminAddr(); admin != "" {
		fmt.Printf("gossipd site=%d gossip=%s client=%s admin=%s\n", cfg.site, d.GossipAddr(), d.ClientAddr(), admin)
	} else {
		fmt.Printf("gossipd site=%d gossip=%s client=%s\n", cfg.site, d.GossipAddr(), d.ClientAddr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}

func parsePeers(spec string, opts epidemic.TCPPeerOptions) ([]epidemic.Peer, error) {
	if spec == "" {
		return nil, nil
	}
	var peers []epidemic.Peer
	for _, part := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q, want id=host:port", part)
		}
		sid, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %w", id, err)
		}
		peers = append(peers, epidemic.NewTCPPeerWith(epidemic.SiteID(sid), addr, opts))
	}
	return peers, nil
}

// clientEnv bundles the per-daemon dependencies of the line protocol
// beyond the node itself: wire stats for the WIRE verb and the trend
// provider (nil-safe) that STATSJSON folds into its reply.
type clientEnv struct {
	wire   *epidemic.WireStats
	trends func() *epidemic.ClusterTrends
}

func serveClients(ln net.Listener, n *epidemic.Node, env clientEnv) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go handleClient(conn, n, env)
	}
}

func handleClient(conn net.Conn, n *epidemic.Node, env clientEnv) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "GET":
			if len(fields) != 2 {
				fmt.Fprintln(conn, "ERR usage: GET <key>")
				continue
			}
			if v, ok := n.Lookup(fields[1]); ok {
				fmt.Fprintf(conn, "VALUE %s\n", v)
			} else {
				fmt.Fprintln(conn, "MISSING")
			}
		case "SET":
			if len(fields) < 3 {
				fmt.Fprintln(conn, "ERR usage: SET <key> <value>")
				continue
			}
			n.Update(fields[1], epidemic.Value(strings.Join(fields[2:], " ")))
			fmt.Fprintln(conn, "OK")
		case "DEL":
			if len(fields) != 2 {
				fmt.Fprintln(conn, "ERR usage: DEL <key>")
				continue
			}
			n.Delete(fields[1])
			fmt.Fprintln(conn, "OK")
		case "KEYS":
			var keys []string
			for _, k := range n.Store().Keys() {
				if !epidemic.IsMembershipKey(k) {
					keys = append(keys, k)
				}
			}
			fmt.Fprintf(conn, "KEYS %s\n", strings.Join(keys, " "))
		case "MEMBERS":
			var parts []string
			for _, rec := range epidemic.Members(n.Store()) {
				parts = append(parts, fmt.Sprintf("%d=%s", rec.Site, rec.Addr))
			}
			fmt.Fprintf(conn, "MEMBERS %s\n", strings.Join(parts, " "))
		case "HOT":
			var keys []string
			for _, e := range n.HotEntries() {
				keys = append(keys, e.Key)
			}
			fmt.Fprintf(conn, "HOT %s\n", strings.Join(keys, " "))
		case "SNAPSHOT":
			if err := n.SaveSnapshot(""); err != nil {
				fmt.Fprintf(conn, "ERR %v\n", err)
			} else {
				fmt.Fprintln(conn, "OK")
			}
		case "STATS":
			st := n.Stats()
			fmt.Fprintf(conn, "STATS updates=%d mail=%d/%d ae=%d rumor=%d sent=%d received=%d applied=%d redist=%d gc=%d\n",
				st.UpdatesAccepted, st.MailSent, st.MailFailed, st.AntiEntropyRuns,
				st.RumorRuns, st.EntriesSent, st.EntriesReceived, st.EntriesApplied,
				st.Redistributed, st.CertificatesExpired)
		case "STATSJSON":
			reply := struct {
				epidemic.NodeStats
				Trends *epidemic.ClusterTrends `json:"trends,omitempty"`
			}{NodeStats: n.Stats()}
			if env.trends != nil {
				reply.Trends = env.trends()
			}
			b, err := json.Marshal(reply)
			if err != nil {
				fmt.Fprintf(conn, "ERR %v\n", err)
				continue
			}
			fmt.Fprintf(conn, "%s\n", b)
		case "WIRE":
			b, err := json.Marshal(env.wire.Snapshot())
			if err != nil {
				fmt.Fprintf(conn, "ERR %v\n", err)
				continue
			}
			fmt.Fprintf(conn, "%s\n", b)
		case "TRACE":
			if len(fields) != 2 {
				fmt.Fprintln(conn, "ERR usage: TRACE <key>")
				continue
			}
			tr := n.Tracer()
			if tr == nil {
				fmt.Fprintln(conn, "ERR tracing disabled (start gossipd with -trace-ring)")
				continue
			}
			b, err := json.Marshal(tr.DumpFor(fields[1]))
			if err != nil {
				fmt.Fprintf(conn, "ERR %v\n", err)
				continue
			}
			fmt.Fprintf(conn, "%s\n", b)
		case "QUIT":
			return
		default:
			fmt.Fprintln(conn, "ERR unknown command")
		}
	}
}
