package layers

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// Op is one operation of the benchmark's generated stream, as the suite
// needs it: the same keys, values and deletes the daemons were sent.
type Op struct {
	Key, Value string
	Delete     bool
}

// Row is one layer cost: the median time (or size) of one call into a
// layer's exported functions.
type Row struct {
	Name  string
	Value float64
	Unit  string
	Calls int // calls (or entries) behind the median
}

// Scale sizes the suite; tests shrink it.
type Scale struct {
	StoreKeys int // entries in the large stores (the rejoin snapshot's size)
	Delta     int // entries a lagging replica misses in the repair rows
	Calls     int // calls per row, at least
}

// FullScale is the benchmark's size.
var FullScale = Scale{StoreKeys: 100000, Delta: 2000, Calls: 2000}

// Run times every layer on ops, single-goroutine at the process's
// GOMAXPROCS. It needs at least sc.Calls ops plus room for the batch rows;
// the stream is cycled when shorter. tmpDir receives the snapshot files of
// the save/load rows.
func Run(ops []Op, sc Scale, key func(int) string, val func(int) string, tmpDir string) ([]Row, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("layers: empty op stream")
	}
	s := &suite{ops: ops, sc: sc, base: oldEntries(sc.StoreKeys, key, val), tmp: tmpDir}
	for _, part := range []func() error{s.store, s.node, s.transport, s.core, s.obs} {
		if err := part(); err != nil {
			return nil, err
		}
	}
	return s.rows, nil
}

type suite struct {
	ops  []Op
	sc   Scale
	base []entry // sc.StoreKeys old entries: what a large replica holds
	tmp  string
	rows []Row
	site int // last site ID handed out

	updateOverheadPct float64 // measured with node.update_ns, reported under obs
}

func (s *suite) add(name string, value float64, unit string, calls int) {
	s.rows = append(s.rows, Row{name, value, unit, calls})
}

func (s *suite) nextSite() int {
	s.site++
	return s.site
}

func (s *suite) op(i int) Op { return s.ops[i%len(s.ops)] }

// fullStore is a replica holding the base entries.
func (s *suite) fullStore() *replica {
	st := newReplica(s.nextSite())
	applyAll(st, s.base)
	return st
}

// fullNode is a node whose replica holds the base entries.
func (s *suite) fullNode(mail bool) (*node, error) {
	n, err := newNode(s.nextSite(), mail)
	if err != nil {
		return nil, err
	}
	applyAll(n.Store(), s.base)
	return n, nil
}

// fresh turns n ops of the stream, from position from, into entries stamped
// now by a site of their own: what a peer sends about writes it accepted.
func (s *suite) fresh(from, n int) []entry {
	src := newReplica(s.nextSite())
	out := make([]entry, n)
	for i := range out {
		o := s.op(from + i)
		if o.Delete {
			out[i] = src.Delete(o.Key, nil)
		} else {
			out[i] = src.Update(o.Key, []byte(o.Value))
		}
	}
	return out
}

// freshKeys is n entries for n distinct new keys, stamped now.
func (s *suite) freshKeys(n int) []entry {
	src := newReplica(s.nextSite())
	out := make([]entry, n)
	for i := range out {
		out[i] = src.Update(fmt.Sprintf("n/%d/%06d", s.site, i), []byte(s.op(i).Value))
	}
	return out
}

// perCall runs fn calls times in batches and returns the median over the
// batches of the nanoseconds one call took. Cheap calls need batch > 1, or
// reading the clock would be most of the measurement.
func perCall(calls, batch int, fn func(i int)) float64 {
	var per []float64
	for done := 0; done < calls; done += batch {
		end := min(done+batch, calls)
		start := time.Now()
		for i := done; i < end; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(end-done))
	}
	return median(per)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

const (
	us = 1e3 // ns per µs
	ms = 1e6 // ns per ms
)

func (s *suite) store() error {
	calls := s.sc.Calls
	st := s.fullStore()
	now := st.Now()

	s.add("store.update_ns", perCall(calls, 100, func(i int) {
		if o := s.op(i); o.Delete {
			st.Delete(o.Key, nil)
		} else {
			st.Update(o.Key, []byte(o.Value))
		}
	}), "ns", calls)
	s.add("store.lookup_ns", perCall(calls, 100, func(i int) { st.Lookup(s.op(i).Key) }), "ns", calls)

	dst := s.fullStore()
	incoming := s.fresh(0, calls)
	s.add("store.apply_fresh_ns", perCall(calls, 100, func(i int) { dst.Apply(incoming[i]) }), "ns", calls)
	s.add("store.apply_stale_ns", perCall(calls, 100, func(i int) { dst.Apply(incoming[i]) }), "ns", calls)

	// st now holds the base plus calls recent updates, as a daemon's store
	// does mid-run: the recent list is non-empty, the walk starts in them.
	s.add("store.checksum_live_us", perCall(calls, 10, func(int) { st.ChecksumLive(now, tau1) })/us, "us", calls)
	s.add("store.checksum_vector_us", perCall(calls, 10, func(int) { st.ChecksumVector(now, tau1) })/us, "us", calls)
	s.add("store.recent_updates_us", perCall(calls/4, 1, func(int) { st.RecentUpdates(st.Now(), daemonTau) })/us, "us", calls/4)
	s.add("store.peel_batch_us", perCall(calls, 10, func(int) { st.PeelBatch(peelStart, 128, now, tau1) })/us, "us", calls)

	const reps = 3
	path := filepath.Join(s.tmp, "layers.snap")
	var err error
	s.add("store.save_ms_100k", perCall(reps, 1, func(int) {
		if e := saveFile(st, path); e != nil {
			err = e
		}
	})/ms, "ms", reps)
	s.add("store.load_ms_100k", perCall(reps, 1, func(int) {
		if _, e := loadFile(newReplica(s.nextSite()), path); e != nil {
			err = e
		}
	})/ms, "ms", reps)
	return err
}

// cluster is an origin node, with direct mail on or off, and four in-process
// peers, the shape of one daemon's update path in a five-replica cluster.
func (s *suite) cluster(mail, instrumented bool) (origin *node, stop func(), err error) {
	origin, err = newNode(s.nextSite(), mail)
	if err != nil {
		return nil, nil, err
	}
	targets := make([]*node, 4)
	for i := range targets {
		if targets[i], err = newNode(s.nextSite(), false); err != nil {
			return nil, nil, err
		}
	}
	linkLocal(origin, targets...)
	if instrumented {
		instrument(origin)
	}
	return origin, func() {
		origin.Stop()
		for _, t := range targets {
			t.Stop()
		}
	}, nil
}

// updateCost is the median cost of Node.Update/Delete on the op stream with
// the outbox draining to four peers behind it.
func (s *suite) updateCost(instrumented bool) (float64, error) {
	origin, stop, err := s.cluster(true, instrumented)
	if err != nil {
		return 0, err
	}
	defer stop()
	cost := perCall(s.sc.Calls, 100, func(i int) {
		if o := s.op(i); o.Delete {
			origin.Delete(o.Key)
		} else {
			origin.Update(o.Key, []byte(o.Value))
		}
	})
	origin.FlushMail(2 * time.Second)
	return cost, nil
}

func (s *suite) node() error {
	calls := s.sc.Calls
	// Bare and instrumented update costs, alternating: the outbox workers
	// draining behind Update compete for the same cores, so one reading can
	// land in a different regime than the next.
	const reps = 3
	var bare, instrumented []float64
	for i := 0; i < reps; i++ {
		for _, on := range []bool{false, true} {
			cost, err := s.updateCost(on)
			if err != nil {
				return err
			}
			if on {
				instrumented = append(instrumented, cost)
			} else {
				bare = append(bare, cost)
			}
		}
	}
	s.add("node.update_ns", median(bare), "ns", reps*calls)
	s.updateOverheadPct = 100 * (median(instrumented) - median(bare)) / median(bare)

	// The whole mail path per delivered entry: a queue's worth of updates
	// accepted, fanned out to four peers, and applied there.
	origin, stop, err := s.cluster(true, false)
	if err != nil {
		return err
	}
	const burst = 256
	bursts := (calls + burst - 1) / burst
	next := 0
	s.add("node.flush_mail_ns_per_entry", perCall(bursts, 1, func(int) {
		for i := 0; i < burst; i++ {
			o := s.op(next)
			next++
			origin.Update(o.Key, []byte(o.Value))
		}
		origin.FlushMail(2 * time.Second)
	})/(burst*4), "ns", bursts*burst*4)
	stop()

	receiver, err := newNode(s.nextSite(), false)
	if err != nil {
		return err
	}
	defer receiver.Stop()
	const mailSize, pushSize = 64, 16
	mail := s.fresh(0, mailSize*((calls+mailSize-1)/mailSize))
	s.add("node.handle_mail_batch_ns_per_entry", perCall(len(mail)/mailSize, 1, func(i int) {
		receiver.HandleMailBatch(mailBatch{Entries: mail[i*mailSize : (i+1)*mailSize]})
	})/mailSize, "ns", len(mail))
	pushed := s.fresh(len(mail), pushSize*((calls+pushSize-1)/pushSize))
	s.add("node.handle_rumors_ns_per_entry", perCall(len(pushed)/pushSize, 1, func(i int) {
		receiver.HandleRumors(pushed[i*pushSize:(i+1)*pushSize], nil)
	})/pushSize, "ns", len(pushed))

	// One rumor round with a thousand rumors hot: push them all to a peer
	// that needs them, take its feedback, pull its hot list.
	const hot, rounds = 1000, 5
	stepNs, err := timeEach(rounds, func() (time.Duration, error) {
		spreader, stop, err := s.cluster(false, false)
		if err != nil {
			return 0, err
		}
		defer stop()
		for i := 0; i < hot; i++ {
			spreader.Update(fmt.Sprintf("h/%06d", i), []byte(s.op(i).Value))
		}
		start := time.Now()
		err = spreader.StepRumor()
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	s.add("node.step_rumor_us", stepNs/us, "us", rounds*hot)

	a, err := s.fullNode(false)
	if err != nil {
		return err
	}
	defer a.Stop()
	b, err := s.fullNode(false)
	if err != nil {
		return err
	}
	defer b.Stop()
	linkLocal(a, b)
	var stepErr error
	s.add("node.step_ae_insync_us", perCall(calls, 10, func(int) {
		if err := a.StepAntiEntropy(); err != nil {
			stepErr = err
		}
	})/us, "us", calls)
	return stepErr
}

// laggard is a replica holding the base entries and a peer node that also
// holds delta newer ones, stamped either just now (inside the recent-update
// window, as after a short outage) or five minutes ago (outside it, so only
// checksums and the peel-back walk can find them).
func (s *suite) laggard(recent bool) (*replica, *node, error) {
	ahead, err := s.fullNode(false)
	if err != nil {
		return nil, nil, err
	}
	var extra []entry
	if recent {
		extra = s.freshKeys(s.sc.Delta)
	} else {
		extra = oldEntriesFrom(s.nextSite(), 5*time.Minute, s.sc.Delta, func(i int) string { return fmt.Sprintf("o/%d/%06d", s.site, i) }, func(i int) string { return s.op(i).Value })
	}
	applyAll(ahead.Store(), extra)
	return s.fullStore(), ahead, nil
}

func (s *suite) transport() error {
	calls := s.sc.Calls
	server, err := s.fullNode(false)
	if err != nil {
		return err
	}
	defer server.Stop()
	tcp, err := newWireLink(server, false)
	if err != nil {
		return err
	}
	defer tcp.close()
	udp, err := newWireLink(server, true)
	if err != nil {
		return err
	}
	defer udp.close()

	var callErr error
	note := func(err error) {
		if err != nil && callErr == nil {
			callErr = err
		}
	}
	local := s.fullStore()
	s.add("transport.exchange_insync_us", perCall(calls, 1, func(int) { note(tcp.antiEntropy(local)) })/us, "us", calls)

	const mailSize, pushSize = 64, 16
	mail := s.fresh(0, mailSize*((calls+mailSize-1)/mailSize))
	sent := tcp.bytesSent()
	s.add("transport.mail_batch64_us", perCall(len(mail)/mailSize, 1, func(i int) {
		note(tcp.mailBatch(mail[i*mailSize : (i+1)*mailSize]))
	})/us, "us", len(mail))
	s.add("transport.bytes_per_entry_mail", float64(tcp.bytesSent()-sent)/float64(len(mail)), "B", len(mail))

	pushed := s.fresh(len(mail), pushSize*((calls+pushSize-1)/pushSize))
	s.add("transport.push_rumors16_tcp_us", perCall(len(pushed)/pushSize, 1, func(i int) {
		note(tcp.pushRumors(pushed[i*pushSize : (i+1)*pushSize]))
	})/us, "us", len(pushed))
	pushed = s.fresh(len(mail)+len(pushed), len(pushed))
	sent = udp.bytesSent()
	s.add("transport.push_rumors16_udp_us", perCall(len(pushed)/pushSize, 1, func(i int) {
		note(udp.pushRumors(pushed[i*pushSize : (i+1)*pushSize]))
	})/us, "us", len(pushed))
	s.add("transport.bytes_per_entry_rumor", float64(udp.bytesSent()-sent)/float64(len(pushed)), "B", len(pushed))
	if callErr != nil {
		return callErr
	}

	// Repair over the wire, as a restarted daemon does it: a replica that
	// missed delta recent updates, and one that has nothing.
	repair := func(reps int, local func() (*replica, *node, error)) (float64, error) {
		return timeEach(reps, func() (time.Duration, error) {
			behind, ahead, err := local()
			if err != nil {
				return 0, err
			}
			defer ahead.Stop()
			link, err := newWireLink(ahead, false)
			if err != nil {
				return 0, err
			}
			defer link.close()
			start := time.Now()
			err = link.antiEntropy(behind)
			took := time.Since(start)
			if err == nil && behind.Len() != ahead.Store().Len() {
				err = fmt.Errorf("layers: wire repair left %d entries of %d", behind.Len(), ahead.Store().Len())
			}
			return took, err
		})
	}
	ns, err := repair(3, func() (*replica, *node, error) { return s.laggard(true) })
	if err != nil {
		return err
	}
	s.add("transport.repair_delta2000_ms", ns/ms, "ms", 3)
	ns, err = repair(2, func() (*replica, *node, error) {
		ahead, err := s.fullNode(false)
		return newReplica(s.nextSite()), ahead, err
	})
	if err != nil {
		return err
	}
	s.add("transport.repair_cold100k_ms", ns/ms, "ms", 2)
	return nil
}

func (s *suite) core() error {
	calls := s.sc.Calls
	a, b := s.fullStore(), s.fullStore()
	var callErr error
	s.add("core.resolve_insync_us", perCall(calls, 10, func(int) {
		if err := resolve(resolveRecent(), a, b); err != nil {
			callErr = err
		}
	})/us, "us", calls)
	if callErr != nil {
		return callErr
	}

	inProcess := func(recent bool, cfg resolveConfig) (float64, error) {
		return timeEach(3, func() (time.Duration, error) {
			behind, ahead, err := s.laggard(recent)
			if err != nil {
				return 0, err
			}
			defer ahead.Stop()
			start := time.Now()
			err = resolve(cfg, behind, ahead.Store())
			took := time.Since(start)
			if err == nil && behind.Len() != ahead.Store().Len() {
				err = fmt.Errorf("layers: in-process repair left %d entries of %d", behind.Len(), ahead.Store().Len())
			}
			return took, err
		})
	}
	ns, err := inProcess(true, resolveRecent())
	if err != nil {
		return err
	}
	s.add("core.resolve_delta2000_ms", ns/ms, "ms", 3)
	ns, err = inProcess(false, resolveShardVec())
	if err != nil {
		return err
	}
	s.add("core.resolve_shardvec_delta2000_ms", ns/ms, "ms", 3)

	h := newHotList()
	at := s.base[0].Stamp
	s.add("core.hotlist_feedback_ns", perCall(calls, 100, func(i int) {
		key := s.op(i).Key
		h.Add(key, at)
		h.Feedback(key, i%2 == 0)
	}), "ns", calls)
	return nil
}

func (s *suite) obs() error {
	s.add("obs.update_overhead_pct", s.updateOverheadPct, "%", 3*s.sc.Calls)

	n, err := s.fullNode(false)
	if err != nil {
		return err
	}
	defer n.Stop()
	reg := instrument(n)
	var callErr error
	const scrapes = 20
	s.add("obs.write_prometheus_us", perCall(scrapes, 1, func(int) {
		if err := writePrometheus(reg); err != nil {
			callErr = err
		}
	})/us, "us", scrapes)
	return callErr
}

// timeEach runs fn reps times and returns the median of the durations it
// reports, for rows whose set-up must stay outside the timed part.
func timeEach(reps int, fn func() (time.Duration, error)) (float64, error) {
	var ns []float64
	for i := 0; i < reps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ns = append(ns, float64(d.Nanoseconds()))
	}
	return median(ns), nil
}
