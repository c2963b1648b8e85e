package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Periods the harness passes to every daemon. They are far shorter than the
// daemon's defaults (1 s, 5 s) so that a run is bound by CPU and protocol,
// not by waiting for timers.
const (
	rumorEvery       = 20 * time.Millisecond
	antiEntropyEvery = 500 * time.Millisecond
)

// daemon is one gossipd process, possibly in its second or later
// incarnation after a kill and restart.
type daemon struct {
	site                  int
	gossip, client, admin string // bound addresses, kept across restarts
	dataPath, logPath     string

	cmd *exec.Cmd
	// retired sums the final scrapes of earlier incarnations, whose
	// in-process counters died with them.
	retired counters
}

func (d *daemon) alive() bool { return d.cmd != nil }

// cluster is a set of gossipd processes on loopback plus the work directory
// holding their snapshots and logs.
type cluster struct {
	bin     string
	dir     string
	mail    bool
	metrics bool      // scrapes include /metrics (traced runs)
	daemons []*daemon // index = site-1

	// mu orders the workload's kills and restarts against a traced run's
	// once-a-second scrape: it guards every daemon's cmd and retired.
	mu sync.Mutex
}

// live tracks every daemon process the harness has started and not yet
// reaped, and every work directory not yet removed, so that all exit paths
// (return, signal, panic on any goroutine) can kill and clean up.
var live struct {
	sync.Mutex
	cmds map[*exec.Cmd]struct{}
	dirs map[string]struct{}
}

// trackDir registers a work directory for removal on abnormal exit and
// returns the function that removes it normally.
func trackDir(dir string) (remove func()) {
	live.Lock()
	if live.dirs == nil {
		live.dirs = make(map[string]struct{})
	}
	live.dirs[dir] = struct{}{}
	live.Unlock()
	return func() {
		_ = os.RemoveAll(dir)
		live.Lock()
		delete(live.dirs, dir)
		live.Unlock()
	}
}

// cleanUp kills every tracked daemon and removes every tracked directory.
func cleanUp() {
	killAllProcesses()
	live.Lock()
	defer live.Unlock()
	for dir := range live.dirs {
		_ = os.RemoveAll(dir)
	}
	live.dirs = nil
}

// guard is deferred first in every goroutine the harness starts: a panic
// there would end the process without running main's deferred clean-up and
// leave the daemons running.
func guard() {
	if v := recover(); v != nil {
		cleanUp()
		panic(v)
	}
}

func trackProcess(cmd *exec.Cmd) {
	live.Lock()
	if live.cmds == nil {
		live.cmds = make(map[*exec.Cmd]struct{})
	}
	live.cmds[cmd] = struct{}{}
	live.Unlock()
}

// reap kills cmd's process and waits until it has ended.
func reap(cmd *exec.Cmd) {
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	live.Lock()
	delete(live.cmds, cmd)
	live.Unlock()
}

// killAllProcesses reaps every tracked daemon; safe from any goroutine.
func killAllProcesses() {
	live.Lock()
	cmds := make([]*exec.Cmd, 0, len(live.cmds))
	for c := range live.cmds {
		cmds = append(cmds, c)
	}
	live.Unlock()
	for _, c := range cmds {
		reap(c)
	}
}

// buildDaemon compiles ./cmd/gossipd from the repository at root into bin.
// With a warm build cache this is a no-op of ~0.2 s, so every set-up runs it
// and a stale binary cannot be measured.
func buildDaemon(root, bin string) error {
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gossipd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/gossipd: %w\n%s", err, out)
	}
	return nil
}

// startCluster boots n daemons. Site 1 is the only seed: every other daemon
// is given just site 1's address and learns the rest from the membership
// directory the database itself replicates. snapshot, when non-empty, is a
// store snapshot file every daemon starts from.
func startCluster(bin, dir string, n int, mail, metrics bool, snapshot string) (*cluster, error) {
	c := &cluster{bin: bin, dir: dir, mail: mail, metrics: metrics}
	for site := 1; site <= n; site++ {
		d := &daemon{
			site:     site,
			gossip:   "127.0.0.1:0",
			client:   "127.0.0.1:0",
			admin:    "127.0.0.1:0",
			dataPath: filepath.Join(dir, fmt.Sprintf("site%d.snap", site)),
			logPath:  filepath.Join(dir, fmt.Sprintf("site%d.log", site)),
			retired:  counters{},
		}
		c.daemons = append(c.daemons, d)
		if snapshot != "" {
			if err := copyFile(snapshot, d.dataPath); err != nil {
				c.stop()
				return nil, err
			}
		}
		if err := c.start(d); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// start launches d and records the addresses it bound. A restart passes the
// addresses of the previous incarnation, so peers and the harness find the
// daemon where it was.
func (c *cluster) start(d *daemon) error {
	args := []string{
		"-site", strconv.Itoa(d.site),
		"-listen", d.gossip,
		"-client", d.client,
		"-admin", d.admin,
		"-data", d.dataPath,
		"-direct-mail=" + strconv.FormatBool(c.mail),
		"-rumor-every", rumorEvery.String(),
		"-anti-entropy-every", antiEntropyEvery.String(),
		"-log-level", "error",
		"-flight-dir", "",
	}
	if d.site != 1 {
		args = append(args, "-peers", "1="+c.daemons[0].gossip)
	}
	logf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(c.bin, args...)
	cmd.Dir = c.dir
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start gossipd site %d: %w", d.site, err)
	}
	trackProcess(cmd)

	// The daemon announces its bound addresses on its first stdout line.
	lineCh := make(chan string, 1)
	go func() {
		defer guard()
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		lineCh <- line
	}()
	var line string
	select {
	case line = <-lineCh:
	case <-time.After(20 * time.Second):
	}
	addrs := map[string]string{}
	for _, f := range strings.Fields(line) {
		if k, v, ok := strings.Cut(f, "="); ok {
			addrs[k] = v
		}
	}
	if addrs["gossip"] == "" || addrs["client"] == "" || addrs["admin"] == "" {
		reap(cmd)
		stderr, _ := os.ReadFile(d.logPath)
		return fmt.Errorf("gossipd site %d did not come up (announced %q); its stderr:\n%s", d.site, line, stderr)
	}
	c.mu.Lock()
	d.gossip, d.client, d.admin = addrs["gossip"], addrs["client"], addrs["admin"]
	d.cmd = cmd
	c.mu.Unlock()
	return nil
}

// kill ends d with SIGKILL, first folding its counters into d.retired.
// scrape=false skips that (teardown, or a daemon that is not answering).
func (c *cluster) kill(d *daemon, scrape bool) error {
	if !d.alive() {
		return nil
	}
	var last counters
	var err error
	if scrape {
		last, err = scrapeDaemon(d, c.metrics)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if last != nil {
		d.retired.addIncarnation(last)
	}
	reap(d.cmd)
	d.cmd = nil
	return err
}

// restart starts a killed daemon again on its old addresses; wipe removes
// its snapshot first, so it rejoins empty.
func (c *cluster) restart(d *daemon, wipe bool) error {
	if wipe {
		if err := os.Remove(d.dataPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return c.start(d)
}

// stop kills every daemon and waits for each to end.
func (c *cluster) stop() {
	for _, d := range c.daemons {
		_ = c.kill(d, false)
	}
}

// alive lists the running daemons.
func (c *cluster) alive() []*daemon {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*daemon
	for _, d := range c.daemons {
		if d.alive() {
			out = append(out, d)
		}
	}
	return out
}

// scrapeDaemon reads one running daemon's public counters: STATSJSON and
// WIRE over the client port, /proc/<pid>, and with metrics also /metrics.
func scrapeDaemon(d *daemon, metrics bool) (counters, error) {
	out := counters{}
	cl, err := dialClient(d.client)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	if err := cl.scrapeJSON("STATSJSON", "node.", out); err != nil {
		return nil, err
	}
	if err := cl.scrapeJSON("WIRE", "wire.", out); err != nil {
		return nil, err
	}
	if err := scrapeProc(d.cmd.Process.Pid, out); err != nil {
		return nil, fmt.Errorf("site %d: %w", d.site, err)
	}
	if metrics {
		if _, _, err := scrapeMetrics(d, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scrapeMetrics GETs one daemon's /metrics into into and reports how long
// the request took and how many series it returned.
func scrapeMetrics(d *daemon, into counters) (took time.Duration, series int, err error) {
	start := time.Now()
	resp, err := http.Get("http://" + d.admin + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("site %d /metrics: %s", d.site, resp.Status)
	}
	series, err = parseProm(resp.Body, into)
	return time.Since(start), series, err
}

// scrape sums the counters of every daemon over all its incarnations.
func (c *cluster) scrape() (counters, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := counters{}
	for _, d := range c.daemons {
		one := counters{}
		one.add(d.retired)
		if d.alive() {
			cur, err := scrapeDaemon(d, c.metrics)
			if err != nil {
				return nil, fmt.Errorf("scrape site %d: %w", d.site, err)
			}
			one.addIncarnation(cur)
		}
		total.add(one)
	}
	return total, nil
}

// waitReady blocks until every daemon's MEMBERS lists all sites and a
// canary key written at site 1 is readable everywhere.
func (c *cluster) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	clients := make([]*client, len(c.daemons))
	for i, d := range c.daemons {
		cl, err := dialClient(d.client)
		if err != nil {
			return err
		}
		defer cl.close()
		clients[i] = cl
	}
	poll := func(what string, ok func(cl *client) (bool, error)) error {
		for i, cl := range clients {
			for {
				done, err := ok(cl)
				if err != nil {
					return fmt.Errorf("site %d: %w", i+1, err)
				}
				if done {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("site %d: %s not reached within %v", i+1, what, timeout)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		return nil
	}
	err := poll("full membership", func(cl *client) (bool, error) {
		reply, err := cl.do("MEMBERS")
		if err != nil {
			return false, err
		}
		members, err := listReply("MEMBERS", reply)
		return len(members) == len(c.daemons), err
	})
	if err != nil {
		return err
	}
	// Membership records arrive before the peer sets built from them: wait
	// for the full mesh, or the first half second of load would be mailed
	// to fewer peers than the rest.
	for _, d := range c.daemons {
		for {
			got := counters{}
			if _, _, err := scrapeMetrics(d, got); err != nil {
				return err
			}
			if int(got["prom.epidemic_peers"]) == len(c.daemons)-1 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("site %d: %v peers of %d within %v", d.site, got["prom.epidemic_peers"], len(c.daemons)-1, timeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	const canary = "p/canary"
	if reply, err := clients[0].do("SET " + canary + " up"); err != nil || reply != "OK" {
		return fmt.Errorf("canary write: %q %v", reply, err)
	}
	return poll("canary visible", func(cl *client) (bool, error) {
		reply, err := cl.do("GET " + canary)
		return reply == "VALUE up", err
	})
}

// waitQuiet blocks until one pass over the running daemons finds no hot
// rumor anywhere: the epidemic has died out.
func (c *cluster) waitQuiet(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var clients []*client
	defer func() {
		for _, cl := range clients {
			cl.close()
		}
	}()
	for _, d := range c.alive() {
		cl, err := dialClient(d.client)
		if err != nil {
			return err
		}
		clients = append(clients, cl)
	}
	for {
		hot := 0
		for _, cl := range clients {
			reply, err := cl.do("HOT")
			if err != nil {
				return err
			}
			keys, err := listReply("HOT", reply)
			if err != nil {
				return err
			}
			hot += len(keys)
		}
		if hot == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d rumors still hot after %v", hot, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// cleanUpOnSignal makes SIGINT and SIGTERM kill every daemon, remove the
// work directories and exit non-zero.
func cleanUpOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		cleanUp()
		os.Exit(130)
	}()
}
