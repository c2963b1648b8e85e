package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"epidemic/bench/layers"
)

// params fixes one benchmark run. The defaults are the benchmark; tests
// shrink the sizes.
type params struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool

	daemons      int // replicas in the cluster
	keys         int // key space of the steady and burst stream
	snapshotKeys int // keys every replica starts from in rejoin
	delta        int // ops written per rejoin cycle while one replica is down
	sampleKeys   int // keys read back from every replica after a workload
	setups       int // clusters set up (and timed) per run; each carries an equal share
	layerScale   layers.Scale

	root   string // repository root (holds cmd/gossipd)
	outDir string // bench/out
	keep   bool   // keep the work directory (daemon logs, snapshots)
	// sabotage kills one replica shortly after load starts and leaves it
	// dead: the self-test that the failure count can rise.
	sabotage bool
}

func defaultParams(root string) params {
	return params{
		seed:         1,
		seconds:      15,
		daemons:      5,
		keys:         20000,
		snapshotKeys: 100000,
		delta:        2000,
		sampleKeys:   2000,
		setups:       3,
		layerScale:   layers.FullScale,
		root:         root,
		outDir:       filepath.Join(root, "bench", "out"),
	}
}

// writers is how many client connections carry the write load: at most one
// per core, and never more than two, so that key ownership (index modulo
// writers) is the same on every machine with two cores or more.
func writers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// workloadSpec is the shape of one workload; BENCHMARK.json and README.md
// say why each exists.
type workloadSpec struct {
	name       string
	mail       bool    // -direct-mail
	rate       float64 // ops/s of the open loop; 0 = closed loop
	probeEvery int     // every probeEvery-th op is a probe
}

var workloads = []workloadSpec{
	{name: "mail_steady", mail: true, rate: 1000, probeEvery: 20},
	{name: "rumor_steady", mail: false, rate: 1000, probeEvery: 20},
	{name: "write_burst", mail: true, rate: 0, probeEvery: 100},
	// rate and probeEvery shape the delta writes of each warm cycle.
	{name: "rejoin", mail: true, rate: 2000, probeEvery: 10},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// measure is one reported number.
type measure struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // how many observations the value summarises
}

// result is everything one run reports.
type result struct {
	workload  string
	seed      int64
	traced    bool
	attempted int
	failed    int
	endToEnd  map[string]measure
	perLayer  map[string]measure
	notes     []string
	tracePath string
}

func (r *result) correct() bool { return r.failed == 0 }

// failf counts one failed operation and notes why.
func (r *result) failf(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed operations with one note.
func (r *result) failN(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	r.failed += n
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// run executes one workload once: p.setups clusters are set up one after the
// other (each set-up is timed) and each carries an equal share of the
// workload, so that what a particular boot happens to fix — how the daemons'
// 20 ms and 500 ms tickers fall against each other, where the processes
// land — is averaged over within a run instead of deciding it.
func run(p params) (*result, error) {
	spec, ok := findWorkload(p.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(p.outDir, "run-"+p.workload+"-")
	if err != nil {
		return nil, err
	}
	if !p.keep {
		defer trackDir(work)()
	}
	r := &run1{p: p, spec: spec, work: work, epoch: time.Now(), work1: counters{},
		load: loadResult{expected: map[int]expectation{}},
		rng:  rand.New(rand.NewSource(p.seed)),
		res: &result{workload: p.workload, seed: p.seed, traced: p.traced,
			endToEnd: map[string]measure{}, perLayer: map[string]measure{}}}
	defer func() {
		if r.c != nil {
			r.c.stop()
		}
	}()
	cpu0 := selfCPU()
	for i := 0; i < p.setups; i++ {
		if err := r.setUp(i); err != nil {
			return nil, err
		}
		var smp *sampler
		if p.traced {
			smp = startSampler(r.c, r.epoch)
		}
		if p.workload == "rejoin" {
			err = r.rejoinShare(i)
		} else {
			err = r.writeShare(i)
		}
		if smp != nil {
			r.samples = append(r.samples, smp.finish()...)
		}
		if err != nil {
			return nil, err
		}
		if p.traced && i == p.setups-1 {
			if err := r.timeMetricsScrape(); err != nil {
				return nil, err
			}
		}
		r.rssMB = append(r.rssMB, r.hwmKB/1024)
		r.c.stop()
		r.c = nil
	}
	r.harnessCPU = selfCPU() - cpu0
	r.finish()
	if p.traced {
		if err := r.layerMetrics(); err != nil {
			return nil, err
		}
		path, err := writeTrace(p.outDir, traceFile{Workload: p.workload, Seed: p.seed, Seconds: p.seconds,
			EndToEnd: r.res.endToEnd, PerLayer: r.res.perLayer, Samples: r.samples, Spans: r.spans})
		if err != nil {
			return nil, err
		}
		r.res.tracePath = path
	}
	return r.res, nil
}

// run1 is the state of one run in progress: the current cluster, and what
// the clusters so far have measured.
type run1 struct {
	p    params
	spec workloadSpec
	work string
	res  *result
	rng  *rand.Rand // rejoin: delta ops and samples

	c       *cluster
	epoch   time.Time
	spans   []span
	samples []sample

	setupS      []float64
	load        loadResult // every load phase, merged
	tAvg, tLast []float64  // per counted probe, ms
	walls       []float64  // per load phase: first send -> last ack, s
	converge    []float64  // per load phase, s
	work1       counters   // counter deltas over the measured windows
	hwmKB       float64    // the current cluster's sum of peak resident sets
	rssMB       []float64  // that sum when each cluster was done
	updates     float64    // divisor of the per-update metrics
	clientCmds  float64    // commands the harness sent to client ports
	ops         []op       // the generated stream, for the layer suite
	harnessCPU  float64

	// rejoin: catch-up times, and what each catch-up cost and how many
	// entries the victim was missing; warm in costs[0], cold in costs[1].
	warmS, coldS, bootS []float64
	costs               [2]struct{ bytes, cpuMs, missing []float64 }
	cycles              int

	// traced: one /metrics GET per daemon of the last cluster.
	scrapeMs, scrapeSeries []float64
}

// setUp times one complete set-up — build the daemon (a no-op once cached),
// write the snapshot a rejoin cluster starts from, boot the cluster, wait
// until it is ready — and leaves the cluster in r.c.
func (r *run1) setUp(i int) error {
	bin := filepath.Join(r.p.outDir, "bin", "gossipd")
	dir := filepath.Join(r.work, fmt.Sprintf("cluster%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	if err := buildDaemon(r.p.root, bin); err != nil {
		return err
	}
	snapshot := ""
	if r.p.workload == "rejoin" {
		snapshot = filepath.Join(dir, "seed.snap")
		if err := layers.WriteSnapshot(snapshot, r.p.snapshotKeys, keyName, value); err != nil {
			return err
		}
	}
	c, err := startCluster(bin, dir, r.p.daemons, r.spec.mail, r.p.traced, snapshot)
	if err != nil {
		return err
	}
	r.c = c
	if err := c.waitReady(30 * time.Second); err != nil {
		return fmt.Errorf("cluster not ready: %w%s", err, c.logs())
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return nil
}

// share is how many of n equal items fall to cluster i of the run.
func (r *run1) share(n, i int) int {
	k := n / r.p.setups
	if i < n%r.p.setups {
		k++
	}
	return k
}

// account adds the counter differences of one measured window. Peak resident
// sets do not add up over windows; the cluster-wide sum so far is kept.
func (r *run1) account(delta counters) {
	r.hwmKB = delta[keyVmHWM]
	delete(delta, keyVmHWM)
	r.work1.add(delta)
}

// loadPhase runs one load phase on the current cluster and files what it
// measured at the client.
func (r *run1) loadPhase(ls loadSpec) (*loadResult, error) {
	lr, err := runLoad(r.c, ls, r.epoch)
	if err != nil {
		return nil, err
	}
	index := map[*daemon]int{}
	for i, d := range r.c.daemons {
		index[d] = i
	}
	watch := make([]int, len(ls.watch))
	for i, d := range ls.watch {
		watch[i] = index[d]
	}
	avg, last := probeTimes(lr.probes, watch)
	r.tAvg = append(r.tAvg, avg...)
	r.tLast = append(r.tLast, last...)
	r.walls = append(r.walls, lr.lastAck.Sub(lr.first).Seconds())
	r.load.merge(lr)
	return lr, nil
}

// convergence measures, from the last acknowledgement, how long until every
// replica answers the read-back sample as the owners' last ops imply and no
// rumor is hot any more. Read-back mismatches left when the time limit
// passes are failures.
func (r *run1) convergence(lastAck time.Time, sample []keyWant) float64 {
	_, mismatches, err := readBack(r.c.daemons, sample, visibleLimit)
	r.res.attempted += len(sample) * len(r.c.daemons)
	r.clientCmds += float64(len(sample) * len(r.c.daemons))
	if err != nil {
		r.res.notes = append(r.res.notes, err.Error())
	}
	r.res.failN(mismatches, "read-back: %d (replica, key) pairs disagree with the owner's last write", mismatches)
	if err := r.c.waitQuiet(visibleLimit); err != nil && mismatches == 0 {
		r.res.failf("quiescence: %v", err)
	}
	done := time.Now()
	if r.p.traced {
		r.spans = append(r.spans, span{Name: "drain", StartUs: lastAck.Sub(r.epoch).Microseconds(), EndUs: done.Sub(r.epoch).Microseconds()})
	}
	return done.Sub(lastAck).Seconds()
}

// phasesPerCluster is how many load phases a steady or burst workload runs
// on each cluster; each ends with a convergence measurement.
const phasesPerCluster = 2

// writeShare runs cluster i's share of a steady or burst workload: load
// phases, each followed by a convergence measurement whose read-back is also
// the output check.
func (r *run1) writeShare(i int) error {
	p, spec := r.p, r.spec
	w := writers()
	phases := phasesPerCluster * p.setups
	phaseSeconds := p.seconds / float64(phases)
	// A closed loop takes what it can send; give it a stream that outlasts
	// any plausible rate (25k ops/s over two connections).
	perPhase := int(25000 * phaseSeconds)
	if spec.rate > 0 {
		perPhase = int(spec.rate * phaseSeconds)
	}
	if i == 0 {
		r.ops = genZipfOps(streamConfig{seed: p.seed, keys: p.keys, writers: w, probeEvery: spec.probeEvery,
			rate: spec.rate, perPhase: perPhase}, perPhase*phases)
	}
	before, err := r.c.scrape()
	if err != nil {
		return err
	}
	expected := map[int]expectation{} // this cluster's keys; the next starts empty
	for ph := i * phasesPerCluster; ph < (i+1)*phasesPerCluster; ph++ {
		ls := loadSpec{ops: r.ops[ph*perPhase : (ph+1)*perPhase], open: spec.rate > 0,
			targets: r.c.daemons[:w], watch: r.c.daemons, traced: p.traced}
		if !ls.open {
			ls.until = time.Now().Add(time.Duration(phaseSeconds * float64(time.Second)))
		}
		if p.sabotage && ph == 0 {
			victim := r.c.daemons[len(r.c.daemons)-1]
			time.AfterFunc(200*time.Millisecond, func() {
				defer guard()
				_ = r.c.kill(victim, true)
			})
		}
		lr, err := r.loadPhase(ls)
		if err != nil {
			return err
		}
		for k, e := range lr.expected {
			expected[k] = e
		}
		r.converge = append(r.converge, r.convergence(lr.lastAck, readBackSample(expected, p.sampleKeys, p.seed+int64(ph))))
	}
	after, err := r.c.scrape()
	if err != nil {
		return err
	}
	r.account(after.minus(before))
	return nil
}

// wireBytes is every byte the daemons moved between each other. The wire
// counters are kept by the side that opened a conversation, for both
// directions, so requests plus replies over all daemons count each byte once.
func wireBytes(w counters) float64 {
	return w["wire.bytes_sent"] + w["wire.bytes_received"] + w["wire.udp_bytes_sent"] + w["wire.udp_bytes_received"]
}

// finish turns what the clusters measured into the end-to-end metrics.
func (r *run1) finish() {
	l, e := &r.load, r.res.endToEnd
	r.res.attempted += l.attempted
	r.res.failed += l.failed
	for _, err := range l.errs {
		if len(r.res.notes) < 20 {
			r.res.notes = append(r.res.notes, err.Error())
		}
	}
	r.clientCmds += float64(l.acked) + float64(l.polls)
	r.spans = append(r.spans, l.spans...)

	e["setup_s"] = measure{median(r.setupS), "s", len(r.setupS)}
	e["write_ack_p50_ms"] = measure{percentile(l.ackMs, 50), "ms", len(l.ackMs)}
	e["visible_avg_p50_ms"] = measure{percentile(r.tAvg, 50), "ms", len(r.tAvg)}
	e["visible_last_p50_ms"] = measure{percentile(r.tLast, 50), "ms", len(r.tLast)}
	// The tails move by a quarter and more between runs of one build on a
	// two-core box, so they cannot carry a regression bound; they are
	// reported with the per-layer metrics.
	r.res.perLayer["write_ack_p95_ms"] = measure{percentile(l.ackMs, 95), "ms", len(l.ackMs)}
	r.res.perLayer["visible_last_p95_ms"] = measure{percentile(r.tLast, 95), "ms", len(r.tLast)}
	var wall float64
	for _, s := range r.walls {
		wall += s
	}
	e["writes_per_s"] = measure{float64(l.acked) / wall, "1/s", l.acked}
	e["rss_mb_peak"] = measure{median(r.rssMB), "MB", len(r.rssMB)}

	if r.p.workload != "rejoin" {
		r.updates = float64(l.acked)
		e["converge_s"] = measure{median(r.converge), "s", len(r.converge)}
		e["wire_bytes_per_update"] = measure{wireBytes(r.work1) / r.updates, "B", l.acked}
		e["cpu_ms_per_update"] = measure{ms(r.work1["proc.cpu_s"]) / r.updates, "ms", l.acked}
		return
	}
	// One catch-up can move twice the bytes of the next (how many repair
	// conversations overlap it is chance), so time and cost are those of a
	// median warm plus a median cold catch-up, not the total over the total.
	warm, cold := &r.costs[0], &r.costs[1]
	n := len(r.warmS) + len(r.coldS)
	missing := median(warm.missing) + median(cold.missing)
	e["converge_s"] = measure{median(r.warmS) + median(r.coldS), "s", n}
	e["wire_bytes_per_update"] = measure{(median(warm.bytes) + median(cold.bytes)) / missing, "B", n}
	e["cpu_ms_per_update"] = measure{(median(warm.cpuMs) + median(cold.cpuMs)) / missing, "ms", n}
	r.res.perLayer["rejoin.catchup_warm_s"] = measure{median(r.warmS), "s", len(r.warmS)}
	r.res.perLayer["rejoin.catchup_cold_s"] = measure{median(r.coldS), "s", len(r.coldS)}
	r.res.perLayer["rejoin.boot_s"] = measure{median(r.bootS), "s", len(r.bootS)}
}

// catchUp restarts the victim and times exec -> sample complete (and then,
// when given). The daemons' counters are read just outside the timed
// window, so the cost covers repair only. missing is how many entries the
// victim lacks.
func (r *run1) catchUp(victim *daemon, wipe bool, sample []keyWant, missing float64, then func(cl *client) error) error {
	before, err := r.c.scrape()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := r.c.restart(victim, wipe); err != nil {
		return err
	}
	booted := time.Now()
	done, mismatches, err := readBack([]*daemon{victim}, sample, catchUpLimit)
	if err != nil {
		return err
	}
	if then != nil && mismatches == 0 {
		cl, err := dialClient(victim.client)
		if err != nil {
			return err
		}
		err = then(cl)
		cl.close()
		if err != nil {
			return err
		}
		done = time.Now()
	}
	r.res.attempted++
	r.clientCmds += float64(len(sample))
	if mismatches > 0 || done.Sub(start) > catchUpLimit {
		r.res.failf("catch-up: %d of %d keys still wrong after %v", mismatches, len(sample), done.Sub(start))
	}
	after, err := r.c.scrape()
	if err != nil {
		return err
	}
	cost := after.minus(before)
	k, times := &r.costs[0], &r.warmS
	if wipe {
		k, times = &r.costs[1], &r.coldS
	}
	k.bytes = append(k.bytes, wireBytes(cost))
	k.cpuMs = append(k.cpuMs, ms(cost["proc.cpu_s"]))
	k.missing = append(k.missing, missing)
	*times = append(*times, done.Sub(start).Seconds())
	r.bootS = append(r.bootS, booted.Sub(start).Seconds())
	r.account(cost)
	r.updates += missing
	if r.p.traced {
		us := func(t time.Time) int64 { return t.Sub(r.epoch).Microseconds() }
		r.spans = append(r.spans,
			span{Name: "catchup.boot", Op: len(r.bootS), Site: victim.site, StartUs: us(start), EndUs: us(booted)},
			span{Name: "catchup.repair", Op: len(r.bootS), Parent: "catchup.boot", Site: victim.site, StartUs: us(booted), EndUs: us(done)})
	}
	return nil
}

// rejoinShare runs cluster i's share of the catch-up cycles; README.md
// describes the cycle.
func (r *run1) rejoinShare(i int) error {
	p := r.p
	w := writers()
	perKind := int(math.Max(1, math.Round(p.seconds/2.5))) // warm, and as many cold, over the run
	warm, cold := r.share(perKind, i), r.share(perKind, i)
	victim := r.c.daemons[len(r.c.daemons)-1]
	survivors := r.c.daemons[:len(r.c.daemons)-1]
	fresh := p.snapshotKeys        // next unused key index on this cluster
	state := map[int]expectation{} // what this cluster's writers did to which key

	for ; warm > 0; warm-- {
		// Warm: the victim persists its state, dies, and misses exactly
		// delta ops; it returns from its snapshot.
		cl, err := dialClient(victim.client)
		if err != nil {
			return err
		}
		reply, err := cl.do("SNAPSHOT")
		cl.close()
		if err != nil || reply != "OK" {
			return fmt.Errorf("SNAPSHOT at site %d: %q %v", victim.site, reply, err)
		}
		if err := r.c.kill(victim, true); err != nil {
			return err
		}
		ops := genDeltaOps(r.rng, p.delta, 1_000_000+r.cycles*p.delta, p.snapshotKeys, &fresh, w, r.spec.probeEvery, r.spec.rate)
		r.cycles++
		r.ops = append(r.ops, ops...)
		lr, err := r.loadPhase(loadSpec{ops: ops, open: true, targets: survivors[:w], watch: survivors, traced: p.traced})
		if err != nil {
			return err
		}
		var sample []keyWant
		for k, e := range lr.expected {
			state[k] = e
			if !e.unknown {
				sample = append(sample, keyWant{keyName(k), e.want()})
			}
		}
		if err := r.c.waitQuiet(visibleLimit); err != nil {
			r.res.failf("quiescence before restart: %v", err)
		}
		if err := r.catchUp(victim, false, sample, float64(len(lr.expected)+countProbes(ops)), nil); err != nil {
			return err
		}
	}

	for ; cold > 0; cold-- {
		// Cold: the victim loses its disk too and returns empty.
		cl, err := dialClient(survivors[0].client)
		if err != nil {
			return err
		}
		reply, err := cl.do("KEYS")
		cl.close()
		if err != nil {
			return err
		}
		keys, err := listReply("KEYS", reply)
		if err != nil {
			return err
		}
		if err := r.c.kill(victim, true); err != nil {
			return err
		}
		err = r.catchUp(victim, true, r.rejoinSample(state, fresh), float64(len(keys)), func(cl *client) error {
			// Every live key must arrive, not only the sampled ones.
			deadline := time.Now().Add(catchUpLimit)
			for {
				reply, err := cl.do("KEYS")
				if err != nil {
					return err
				}
				got, err := listReply("KEYS", reply)
				if err != nil {
					return err
				}
				if len(got) == len(keys) {
					return nil
				}
				if time.Now().After(deadline) {
					r.res.failf("cold catch-up: %d keys of %d after %v", len(got), len(keys), catchUpLimit)
					return nil
				}
				nap(2 * time.Millisecond)
			}
		})
		if err != nil {
			return err
		}
	}

	// Output check over all replicas, deleted keys included: a key whose
	// last op was DEL must be MISSING everywhere (no resurrection).
	r.convergence(time.Now(), r.rejoinSample(state, fresh))
	return nil
}

// timeMetricsScrape times one /metrics GET per daemon of the current cluster:
// what a scrape costs at this workload's store size.
func (r *run1) timeMetricsScrape() error {
	for _, d := range r.c.alive() {
		took, n, err := scrapeMetrics(d, counters{})
		if err != nil {
			return err
		}
		r.scrapeMs = append(r.scrapeMs, ms(took.Seconds()))
		r.scrapeSeries = append(r.scrapeSeries, float64(n))
	}
	return nil
}

// catchUpLimit is how long a restarted replica may take to catch up.
const catchUpLimit = 30 * time.Second

func countProbes(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.kind == opProbe {
			n++
		}
	}
	return n
}

// rejoinSample picks sampleKeys keys of the rejoin key space [0, fresh): the
// 100 oldest-stamped snapshot keys always (the end of a newest-first repair
// walk), the rest seeded. A key no op touched still holds its snapshot
// value.
func (r *run1) rejoinSample(state map[int]expectation, fresh int) []keyWant {
	picked := map[int]bool{}
	var out []keyWant
	add := func(k int) {
		if picked[k] {
			return
		}
		picked[k] = true
		e, touched := state[k]
		switch {
		case !touched && k < r.p.snapshotKeys:
			out = append(out, keyWant{keyName(k), "VALUE " + value(k)})
		case touched && !e.unknown:
			out = append(out, keyWant{keyName(k), e.want()})
		}
	}
	for k := 0; k < 100 && k < r.p.snapshotKeys; k++ {
		add(k)
	}
	for len(picked) < r.p.sampleKeys && len(picked) < fresh {
		add(r.rng.Intn(fresh))
	}
	return out
}

// selfCPU is the harness's own user+system CPU time so far, in seconds.
func selfCPU() float64 {
	stat, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	cpu, _ := parseProcStat(string(stat))
	return cpu
}

// logs returns the daemons' captured stderr, for error reports.
func (c *cluster) logs() string {
	var b strings.Builder
	for _, d := range c.daemons {
		if data, _ := os.ReadFile(d.logPath); len(data) > 0 {
			fmt.Fprintf(&b, "\n--- site %d stderr ---\n%s", d.site, data)
		}
	}
	return b.String()
}
