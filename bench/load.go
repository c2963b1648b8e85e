package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// ackLimit is the longest acknowledgement that still counts as served.
	ackLimit = time.Second
	// visibleLimit is how long a probe may take to show at every replica.
	visibleLimit = 5 * time.Second
	// A replica is asked about a probe again after a tenth of the probe's
	// age, within these limits: sub-millisecond delays are resolved to the
	// timer's ~0.2 ms, long ones to a tenth of themselves, and a probe costs
	// tens of GETs, not hundreds.
	minPoll = 100 * time.Microsecond
	maxPoll = 2 * time.Millisecond
)

// nap sleeps for d with the kernel's timer. time.Sleep rounds a wait below a
// millisecond up to one (the runtime sleeps in epoll, in whole milliseconds),
// which would coarsen every visibility time to that grid.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only polls sooner
}

// probe is one write whose arrival at the other replicas is being timed.
type probe struct {
	seq    int
	key    string
	origin int       // index of the daemon the write went to
	sent   time.Time // just before the write left the harness
	// counted probes are the workload's unique p/<seq> keys and enter the
	// metrics and the failure count. Uncounted ones are ordinary writes a
	// traced run also follows; a later write to the same key can hide
	// them, so they only feed the trace file.
	counted bool
	// visible[i] is when replica i first returned the value, as a delay
	// from sent; 0 until then. Each observer writes only its own slot.
	visible []time.Duration
	missed  atomic.Int32 // replicas that never showed it within the limit
}

// seen reports whether a GET reply shows the probe's write (or, for an
// ordinary key, a later write by the same owner).
func (p *probe) seen(reply string) bool {
	v, ok := cutValue(reply)
	if !ok {
		return false
	}
	seq, ok := valueSeq(v)
	return ok && seq >= p.seq
}

func cutValue(reply string) (string, bool) {
	const prefix = "VALUE "
	if len(reply) < len(prefix) || reply[:len(prefix)] != prefix {
		return "", false
	}
	return reply[len(prefix):], true
}

// observer polls one replica for the probes it is handed.
type observer struct {
	replica int
	cl      *client
	in      chan *probe

	polls  int64     // GETs sent
	rttsUs []float64 // round trips of single-GET polls
	err    error
}

// run polls until in is closed and every pending probe is resolved.
func (o *observer) run() {
	if o.cl == nil {
		for p := range o.in {
			p.missed.Add(1)
		}
		return
	}
	var pending []*probe
	var lines []string
	open := true
	for open || len(pending) > 0 {
		if len(pending) == 0 {
			p, ok := <-o.in
			if !ok {
				return
			}
			pending = append(pending, p)
		}
	drain:
		for open {
			select {
			case p, ok := <-o.in:
				if !ok {
					open = false
					break drain
				}
				pending = append(pending, p)
			default:
				break drain
			}
		}
		lines = lines[:0]
		for _, p := range pending {
			lines = append(lines, "GET "+p.key)
		}
		start := time.Now()
		replies, err := o.cl.pipeline(lines)
		now := time.Now()
		if err != nil {
			// The replica is gone: everything pending and to come is missed.
			o.err = err
			for _, p := range pending {
				p.missed.Add(1)
			}
			for p := range o.in {
				p.missed.Add(1)
			}
			return
		}
		o.polls += int64(len(lines))
		if len(lines) == 1 {
			o.rttsUs = append(o.rttsUs, float64(now.Sub(start).Nanoseconds())/1e3)
		}
		youngest := time.Duration(1 << 62)
		keep := pending[:0]
		for i, p := range pending {
			age := now.Sub(p.sent)
			switch {
			case p.seen(replies[i]):
				p.visible[o.replica] = age
			case age > visibleLimit || (!p.counted && age > ackLimit):
				p.missed.Add(1)
			default:
				keep = append(keep, p)
				if age < youngest {
					youngest = age
				}
			}
		}
		pending = keep
		if len(pending) > 0 {
			nap(min(max(youngest/10, minPoll), maxPoll))
		}
	}
}

// loadSpec is one load phase: which ops, sent how, to which daemons.
type loadSpec struct {
	ops []op
	// open sends each op at its due time after the phase starts, whatever
	// happened to the ops before it. Otherwise the loop is closed: each
	// writer sends its next op when the last was answered.
	open bool
	// until stops a closed loop early (zero = run through ops).
	until time.Time
	// targets[w] is the daemon writer w sends to (one writer connection per
	// target); watch lists the daemons whose view of the probes is polled.
	targets []*daemon
	watch   []*daemon
	// traced follows every tenth ordinary SET as well and records spans.
	traced bool
}

// follows reports whether o's arrival at the other replicas is polled.
func (spec loadSpec) follows(o op) bool {
	return o.kind == opProbe || (spec.traced && o.kind == opSet && o.seq%10 == 0)
}

// loadResult is what one load phase measured.
type loadResult struct {
	ackMs      []float64 // acknowledgement latency per answered op
	lateMs     []float64 // open loop: how long after its due time an op left
	backlogMax int       // open loop: most ops due and not yet sent, per writer
	probes     []*probe
	expected   map[int]expectation
	attempted  int
	failed     int
	acked      int
	first      time.Time // first send
	lastAck    time.Time
	polls      int64
	getRTTUs   []float64
	spans      []span
	errs       []error
}

// runLoad drives one load phase to completion and waits for every probe to
// resolve.
func runLoad(c *cluster, spec loadSpec, epoch time.Time) (*loadResult, error) {
	index := map[*daemon]int{}
	for i, d := range c.daemons {
		index[d] = i
	}
	watched := 0
	for _, o := range spec.ops {
		if spec.follows(o) {
			watched++
		}
	}
	observers := make([]*observer, 0, len(spec.watch))
	for _, d := range spec.watch {
		// Room for every watched op, so a writer never waits on an observer.
		o := &observer{replica: index[d], in: make(chan *probe, watched)}
		// A replica that cannot be reached misses every probe; that is a
		// result (failed ops), not a reason to stop measuring the others.
		if o.cl, o.err = dialClient(d.client); o.err == nil {
			defer o.cl.close()
		}
		observers = append(observers, o)
	}
	var obsWG sync.WaitGroup
	for _, o := range observers {
		obsWG.Add(1)
		go func(o *observer) {
			defer guard()
			defer obsWG.Done()
			o.run()
		}(o)
	}

	nw := len(spec.targets)
	perWriter := make([][]int, nw) // positions in spec.ops
	for i, o := range spec.ops {
		perWriter[o.writer] = append(perWriter[o.writer], i)
	}
	tallies := make([]*loadResult, nw) // one per writer, merged afterwards
	clients := make([]*client, nw)
	for w := range clients {
		cl, err := dialClient(spec.targets[w].client)
		if err != nil {
			return nil, err
		}
		defer cl.close()
		clients[w] = cl
	}
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		tally := &loadResult{expected: map[int]expectation{}}
		tallies[w] = tally
		wg.Add(1)
		go func(w int) {
			defer guard()
			defer wg.Done()
			runWriter(tally, clients[w], index[spec.targets[w]], len(c.daemons), spec, perWriter[w], start, observers, epoch)
		}(w)
	}
	wg.Wait()
	for _, o := range observers {
		close(o.in)
	}
	obsWG.Wait()

	total := &loadResult{expected: map[int]expectation{}}
	for _, tally := range tallies {
		total.merge(tally)
	}
	for _, o := range observers {
		total.polls += o.polls
		total.getRTTUs = append(total.getRTTUs, o.rttsUs...)
		if o.err != nil {
			total.errs = append(total.errs, fmt.Errorf("observer of site %d: %w", o.replica+1, o.err))
		}
	}
	for _, p := range total.probes {
		if !p.counted {
			continue
		}
		total.attempted++
		if p.missed.Load() > 0 {
			total.failed++
		}
	}
	if spec.traced {
		total.spans = append(total.spans, probeSpans(total.probes, epoch)...)
	}
	return total, nil
}

func (r *loadResult) merge(o *loadResult) {
	r.ackMs = append(r.ackMs, o.ackMs...)
	r.lateMs = append(r.lateMs, o.lateMs...)
	if o.backlogMax > r.backlogMax {
		r.backlogMax = o.backlogMax
	}
	r.probes = append(r.probes, o.probes...)
	for k, v := range o.expected {
		r.expected[k] = v
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.acked += o.acked
	if r.first.IsZero() || (!o.first.IsZero() && o.first.Before(r.first)) {
		r.first = o.first
	}
	if o.lastAck.After(r.lastAck) {
		r.lastAck = o.lastAck
	}
	r.polls += o.polls
	r.getRTTUs = append(r.getRTTUs, o.getRTTUs...)
	r.spans = append(r.spans, o.spans...)
	r.errs = append(r.errs, o.errs...)
}

// runWriter sends one writer's share of the ops over its connection.
func runWriter(res *loadResult, cl *client, origin, replicas int, spec loadSpec, mine []int, start time.Time, observers []*observer, epoch time.Time) {
	due := func(pos int) time.Time { return start.Add(spec.ops[pos].due) }
	ahead := 0 // first of mine not yet known to be due
	for n, pos := range mine {
		o := spec.ops[pos]
		var dueAt time.Time
		if spec.open {
			dueAt = due(pos)
			if wait := time.Until(dueAt); wait > 0 {
				time.Sleep(wait)
			}
		} else if !spec.until.IsZero() && time.Now().After(spec.until) {
			return
		}
		sent := time.Now()
		if spec.open {
			res.lateMs = append(res.lateMs, ms(sent.Sub(dueAt).Seconds()))
			if ahead < n {
				ahead = n
			}
			for ahead < len(mine) && !due(mine[ahead]).After(sent) {
				ahead++
			}
			if backlog := ahead - n; backlog > res.backlogMax {
				res.backlogMax = backlog
			}
		} else {
			dueAt = sent
		}
		if res.first.IsZero() {
			res.first = sent
		}
		if spec.follows(o) {
			p := &probe{seq: o.seq, origin: origin, sent: sent, counted: o.kind == opProbe, visible: make([]time.Duration, replicas)}
			if p.counted {
				p.key = probeKey(o.seq)
			} else {
				p.key = keyName(o.key)
			}
			res.probes = append(res.probes, p)
			for _, ob := range observers {
				if ob.replica != origin {
					ob.in <- p
				}
			}
		}
		reply, err := cl.do(o.line())
		acked := time.Now()
		res.attempted++
		lat := acked.Sub(dueAt)
		ok := err == nil && reply == "OK" && lat <= ackLimit
		if !ok {
			res.failed++
			if len(res.errs) < 5 {
				res.errs = append(res.errs, fmt.Errorf("op %d %q: reply %q after %v: %v", o.seq, o.line(), reply, lat, err))
			}
		}
		if err == nil && reply == "OK" {
			res.acked++
			res.ackMs = append(res.ackMs, ms(lat.Seconds()))
			res.lastAck = acked
		}
		if o.kind != opProbe {
			e := expectation{seq: o.seq, deleted: o.kind == opDel}
			if err != nil || reply != "OK" {
				e.unknown = true
			}
			res.expected[o.key] = e
		}
		if spec.traced {
			res.spans = append(res.spans, span{Name: "client.write", Op: o.seq, Site: origin + 1,
				StartUs: sent.Sub(epoch).Microseconds(), EndUs: acked.Sub(epoch).Microseconds()})
		}
		if err != nil {
			return // the connection is dead; the rest of this writer's ops never leave
		}
	}
}

// probeTimes reduces the counted probes to the paper's two delays, in ms:
// avg[i] is probe i's mean delay over the watched non-origin replicas
// (t_avg), last[i] its largest (t_last). Probes that missed a replica are
// left out; they are already counted as failed.
func probeTimes(probes []*probe, watch []int) (avg, last []float64) {
	for _, p := range probes {
		if !p.counted || p.missed.Load() > 0 {
			continue
		}
		var sum, worst time.Duration
		n := 0
		for _, i := range watch {
			if i == p.origin {
				continue
			}
			sum += p.visible[i]
			if p.visible[i] > worst {
				worst = p.visible[i]
			}
			n++
		}
		if n == 0 {
			continue
		}
		avg = append(avg, ms(sum.Seconds())/float64(n))
		last = append(last, ms(worst.Seconds()))
	}
	return avg, last
}

// keyWant is one key of the read-back sample and the reply it must get.
type keyWant struct {
	key  string
	want string
}

// readBackSample picks up to n of the written keys, seeded, with the reply
// the owner's last acknowledged op implies for each.
func readBackSample(expected map[int]expectation, n int, seed int64) []keyWant {
	keys := make([]int, 0, len(expected))
	for k, e := range expected {
		if !e.unknown {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > n {
		keys = keys[:n]
	}
	out := make([]keyWant, len(keys))
	for i, k := range keys {
		out[i] = keyWant{keyName(k), expected[k].want()}
	}
	return out
}

// readBack asks every given daemon for every sample key until each answers
// as wanted or timeout passes: the first sweep is one pipeline per daemon,
// later sweeps re-ask only the misses. It returns when the last daemon was
// complete and how many (daemon, key) pairs never matched.
func readBack(daemons []*daemon, sample []keyWant, timeout time.Duration) (done time.Time, mismatches int, err error) {
	deadline := time.Now().Add(timeout)
	type outcome struct {
		done   time.Time
		misses int
		err    error
	}
	results := make([]outcome, len(daemons))
	var wg sync.WaitGroup
	for i, d := range daemons {
		wg.Add(1)
		go func(i int, d *daemon) {
			defer guard()
			defer wg.Done()
			cl, err := dialClient(d.client)
			if err != nil {
				results[i] = outcome{err: err, misses: len(sample)}
				return
			}
			defer cl.close()
			todo := sample
			lines := make([]string, 0, len(todo))
			for {
				lines = lines[:0]
				for _, kw := range todo {
					lines = append(lines, "GET "+kw.key)
				}
				replies, err := cl.pipeline(lines)
				if err != nil {
					results[i] = outcome{err: fmt.Errorf("site %d read-back: %w", d.site, err), misses: len(todo)}
					return
				}
				var missed []keyWant
				for j, kw := range todo {
					if replies[j] != kw.want {
						missed = append(missed, kw)
					}
				}
				todo = missed
				now := time.Now()
				if len(todo) == 0 || now.After(deadline) {
					results[i] = outcome{done: now, misses: len(todo)}
					return
				}
				nap(time.Millisecond)
			}
		}(i, d)
	}
	wg.Wait()
	for _, r := range results {
		if r.done.After(done) {
			done = r.done
		}
		mismatches += r.misses
		if r.err != nil && err == nil {
			err = r.err
		}
	}
	return done, mismatches, err
}
