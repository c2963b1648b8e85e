// Command gossipctl is the client for gossipd's line protocol and admin
// endpoint.
//
// Usage:
//
//	gossipctl -addr host:8001 get <key>
//	gossipctl -addr host:8001 set <key> <value...>
//	gossipctl -addr host:8001 del <key>
//	gossipctl -addr host:8001 keys | members | stats | statsjson | wire | hot | snapshot
//	gossipctl -addr host1:8001,host2:8001,host3:8001 [-o tree|json|dot] trace <key>
//	gossipctl -admin host:9001 metrics | health | status
//	gossipctl -admin host:9001 [-interval 2s] watch
//	gossipctl -admin host1:9001,host2:9001 [-interval 2s] top
//	gossipctl -admin host:9001 [-since cursor] [-key k] events [n]
//	gossipctl -admin host:9001 history [metric]
//	gossipctl -admin host:9001 flight [name]
//
// Line-protocol verbs talk to the daemon's -client port; metrics, health,
// status, watch, top, events, history and flight fetch from its -admin
// HTTP endpoint. The
// status verb renders any one replica's gossip-borne view of the whole
// cluster (/cluster) as a table — per-site digest age, uptime, store
// size, checksum, hot-rumor count, anti-entropy latency quantiles and
// last-anti-entropy time — followed by the convergence stalls that
// replica detects (stale sites, stuck residue, persistent checksum
// disagreement). watch redraws the same table every -interval until
// interrupted. top federates /cluster from a comma-separated -admin list
// into a live per-node dashboard: windowed rumor and exchange rates,
// outbox depth and slope, anti-entropy latency quantiles, and sparkline
// trends of residue and outbox depth from each node's retained telemetry
// history (gossipd -history-step), redrawn every -interval. history
// lists the retained metric time series, or one series' windowed points
// with a metric name (/metrics/history). flight lists the daemon's
// anomaly flight dumps (gossipd -flight-dir), or prints one raw dump by
// name. events takes -key to filter records server-side to one key.
// The wire verb returns the
// daemon's client-side wire snapshot as one JSON object: connection-pool
// counters (dials, redials, reuses, open_conns), framed traffic totals,
// TCP round trips (msgs_binary), shard-vector and mail-batch counters
// (shardvec_*, mail_batch*), and the UDP
// rumor fast path's pushes/retries/fallbacks/oversize and byte counters
// (udp_*). The trace verb accepts a
// comma-separated -addr list: it federates every replica's hop spans for
// the key (gossipd must run with -trace-ring), reconstructs the infection
// tree, and prints it with the paper's convergence observables — t_last,
// t_avg, residue, the hop histogram and the per-mechanism infection counts
// (-o json for machine-readable output, -o dot for Graphviz). For events,
// -since resumes from a cursor returned in a previous reply's "next" field
// so repeated polls only see new records.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"epidemic"
)

// options carries the parsed flags into run.
type options struct {
	// addr is the gossipd client address — a comma-separated list for the
	// trace verb, which federates spans from every replica named.
	addr string
	// admin is the gossipd admin HTTP address (metrics, health, events).
	admin   string
	timeout time.Duration
	// output selects the trace rendering: tree (default), json or dot.
	output string
	// since, when >= 0, is the events cursor to resume from (the "next"
	// field of a previous events reply).
	since int64
	// key, when non-empty, filters the events verb server-side to records
	// touching that key.
	key string
	// interval is the watch and top verbs' refresh period.
	interval time.Duration
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:8001", "gossipd client address (comma-separated list for trace)")
	flag.StringVar(&opts.admin, "admin", "", "gossipd admin HTTP address (for metrics, health, events)")
	flag.DurationVar(&opts.timeout, "timeout", 5*time.Second, "request timeout")
	flag.StringVar(&opts.output, "o", "tree", "trace output format: tree, json or dot")
	flag.Int64Var(&opts.since, "since", -1, "events cursor to resume from (-1 = everything retained)")
	flag.StringVar(&opts.key, "key", "", "filter events to records touching this key")
	flag.DurationVar(&opts.interval, "interval", 2*time.Second, "watch/top refresh period")
	flag.Parse()
	args := flag.Args()
	if len(args) == 1 {
		// watch and top own the terminal until interrupted; they never
		// return output.
		switch strings.ToLower(args[0]) {
		case "watch":
			if err := runWatch(opts, os.Stdout, 0); err != nil {
				fmt.Fprintln(os.Stderr, "gossipctl:", err)
				os.Exit(1)
			}
			return
		case "top":
			if err := runTop(opts, os.Stdout, 0); err != nil {
				fmt.Fprintln(os.Stderr, "gossipctl:", err)
				os.Exit(1)
			}
			return
		}
	}
	out, err := run(opts, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gossipctl:", err)
		os.Exit(1)
	}
	fmt.Println(out)
}

func run(opts options, args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("usage: gossipctl [-addr host:port] [-admin host:port] <get|set|del|keys|members|stats|statsjson|wire|hot|snapshot|trace|metrics|health|events|history|status|watch|top|flight> [args...]")
	}
	switch strings.ToLower(args[0]) {
	case "trace":
		return runTrace(opts, args[1:])
	case "status":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: status")
		}
		return runStatus(opts)
	case "watch":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: watch")
		}
		return "", runWatch(opts, os.Stdout, 0)
	case "top":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: top")
		}
		return "", runTop(opts, os.Stdout, 0)
	case "flight":
		return runFlight(opts, args[1:])
	}
	if path, err, ok := buildAdminPath(args); ok {
		if err != nil {
			return "", err
		}
		if strings.HasPrefix(path, "/events") {
			appendParam := func(param string) {
				sep := "?"
				if strings.Contains(path, "?") {
					sep = "&"
				}
				path += sep + param
			}
			if opts.since >= 0 {
				appendParam("since=" + strconv.FormatInt(opts.since, 10))
			}
			if opts.key != "" {
				appendParam("key=" + url.QueryEscape(opts.key))
			}
		}
		return fetchAdmin(opts.admin, path, opts.timeout)
	}
	cmd, err := buildCommand(args)
	if err != nil {
		return "", err
	}
	return sendLine(opts.addr, cmd, opts.timeout)
}

// sendLine performs one line-protocol round trip: one command, one reply.
func sendLine(addr, cmd string, timeout time.Duration) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return "", fmt.Errorf("dial %s: %w", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
		return "", fmt.Errorf("send: %w", err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("receive: %w", err)
	}
	resp := strings.TrimSpace(line)
	if strings.HasPrefix(resp, "ERR ") {
		return "", fmt.Errorf("%s", strings.TrimPrefix(resp, "ERR "))
	}
	return resp, nil
}

// runTrace federates TRACE dumps from every -addr replica, assembles the
// infection tree, and renders it in the selected output format. Residue is
// measured against the number of replicas queried.
func runTrace(opts options, rest []string) (string, error) {
	if len(rest) != 1 {
		return "", fmt.Errorf("usage: trace <key>")
	}
	key := rest[0]
	addrs := strings.Split(opts.addr, ",")
	var spans []epidemic.TraceSpan
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		line, err := sendLine(a, "TRACE "+key, opts.timeout)
		if err != nil {
			return "", fmt.Errorf("%s: %w", a, err)
		}
		var dump epidemic.TraceDump
		if err := json.Unmarshal([]byte(line), &dump); err != nil {
			return "", fmt.Errorf("%s: bad TRACE reply %q: %w", a, line, err)
		}
		spans = append(spans, dump.Spans...)
	}
	tree := epidemic.AssembleTrace(key, spans)
	if tree == nil {
		return "", fmt.Errorf("no spans for %q at %d replica(s); is gossipd running with -trace-ring?", key, len(addrs))
	}

	// Stamps are wall-clock nanoseconds on live daemons.
	const spu = 1e-9
	summary := tree.Summarize(len(addrs), spu)
	var sb strings.Builder
	switch opts.output {
	case "", "tree":
		tree.Render(&sb, spu)
		fmt.Fprintf(&sb, "t_last %.3fs  t_avg %.3fs  residue %.2f (%d/%d sites)\n",
			summary.TLastSeconds, summary.TAvgSeconds, summary.Residue,
			summary.Sites, summary.ClusterSize)
		fmt.Fprintf(&sb, "hops %v  mechanisms %v\n", summary.Hops, summary.Mechanisms)
	case "json":
		b, err := json.Marshal(struct {
			Tree    *epidemic.InfectionTree `json:"tree"`
			Summary epidemic.TraceSummary   `json:"summary"`
		}{tree, summary})
		if err != nil {
			return "", err
		}
		sb.Write(b)
	case "dot":
		tree.DOT(&sb)
	default:
		return "", fmt.Errorf("unknown output %q (want tree, json or dot)", opts.output)
	}
	return strings.TrimRight(sb.String(), "\n"), nil
}

// buildCommand maps CLI verbs onto the wire protocol, validating arity.
func buildCommand(args []string) (string, error) {
	verb := strings.ToLower(args[0])
	rest := args[1:]
	switch verb {
	case "get", "del":
		if len(rest) != 1 {
			return "", fmt.Errorf("usage: %s <key>", verb)
		}
		return strings.ToUpper(verb) + " " + rest[0], nil
	case "set":
		if len(rest) < 2 {
			return "", fmt.Errorf("usage: set <key> <value...>")
		}
		return "SET " + rest[0] + " " + strings.Join(rest[1:], " "), nil
	case "keys", "members", "stats", "statsjson", "hot", "snapshot", "wire":
		if len(rest) != 0 {
			return "", fmt.Errorf("usage: %s", verb)
		}
		return strings.ToUpper(verb), nil
	default:
		return "", fmt.Errorf("unknown command %q", verb)
	}
}

// buildAdminPath maps the admin-endpoint verbs onto URL paths. ok is false
// when the verb belongs to the line protocol instead.
func buildAdminPath(args []string) (path string, err error, ok bool) {
	verb := strings.ToLower(args[0])
	rest := args[1:]
	switch verb {
	case "metrics":
		if len(rest) != 0 {
			return "", fmt.Errorf("usage: metrics"), true
		}
		return "/metrics", nil, true
	case "health":
		if len(rest) != 0 {
			return "", fmt.Errorf("usage: health"), true
		}
		return "/healthz", nil, true
	case "events":
		switch len(rest) {
		case 0:
			return "/events", nil, true
		case 1:
			n, err := strconv.Atoi(rest[0])
			if err != nil || n < 0 {
				return "", fmt.Errorf("usage: events [n]"), true
			}
			return "/events?n=" + url.QueryEscape(rest[0]), nil, true
		default:
			return "", fmt.Errorf("usage: events [n]"), true
		}
	case "history":
		switch len(rest) {
		case 0:
			return "/metrics/history", nil, true
		case 1:
			return "/metrics/history?metric=" + url.QueryEscape(rest[0]), nil, true
		default:
			return "", fmt.Errorf("usage: history [metric]"), true
		}
	default:
		return "", nil, false
	}
}

// fetchAdmin performs one GET against the daemon's admin endpoint.
func fetchAdmin(admin, path string, timeout time.Duration) (string, error) {
	if admin == "" {
		return "", fmt.Errorf("this command reads the admin endpoint; set -admin host:port (gossipd -admin)")
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get("http://" + admin + path)
	if err != nil {
		return "", fmt.Errorf("admin fetch %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("admin read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("admin %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return strings.TrimRight(string(body), "\n"), nil
}
