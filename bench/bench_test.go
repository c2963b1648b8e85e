package main

import (
	"bufio"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
)

func testStream(seed int64) []op {
	return genZipfOps(streamConfig{seed: seed, keys: 500, writers: 2, probeEvery: 20, rate: 1000, perPhase: 1000}, 3000)
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := renderStream(testStream(7)), renderStream(testStream(7)), renderStream(testStream(8))
	if a != b {
		t.Fatal("same seed gave different op streams")
	}
	if a == c {
		t.Fatal("different seeds gave the same op stream")
	}
	for i, o := range testStream(7) {
		if o.due != testStream(7)[i].due {
			t.Fatalf("op %d: due time differs between two generations", i)
		}
	}
}

func TestStreamShape(t *testing.T) {
	ops := testStream(3)
	owner := map[int]int{}
	var dels, probes int
	for i, o := range ops {
		switch o.kind {
		case opProbe:
			probes++
			continue
		case opDel:
			dels++
		}
		if o.writer != o.key%2 {
			t.Fatalf("op %d: key %d sent by writer %d", i, o.key, o.writer)
		}
		if w, seen := owner[o.key]; seen && w != o.writer {
			t.Fatalf("key %d has two owners", o.key)
		}
		owner[o.key] = o.writer
		if got := len(value(o.seq)); got != valueLen {
			t.Fatalf("value of op %d is %d bytes", i, got)
		}
		if seq, ok := valueSeq(value(o.seq)); !ok || seq != o.seq {
			t.Fatalf("valueSeq(value(%d)) = %d, %v", o.seq, seq, ok)
		}
	}
	if probes != len(ops)/20 {
		t.Errorf("%d probes in %d ops, want every 20th", probes, len(ops))
	}
	if share := float64(dels) / float64(len(ops)); share < 0.06 || share > 0.14 {
		t.Errorf("delete share %.3f, want about 0.10", share)
	}
	// Arrival times restart with each phase and rise within it.
	for i := 1; i < len(ops); i++ {
		if i%1000 != 0 && ops[i].due < ops[i-1].due {
			t.Fatalf("op %d is due before op %d", i, i-1)
		}
	}
	if ops[1000].due > ops[999].due {
		t.Error("arrival times did not restart at the phase boundary")
	}
}

func TestDeltaOps(t *testing.T) {
	fresh := 1000
	ops := genDeltaOps(rand.New(rand.NewSource(5)), 2000, 1_000_000, 1000, &fresh, 2, 50, 2000)
	var created, overwrote, deleted int
	for _, o := range ops {
		switch {
		case o.kind == opProbe:
		case o.kind == opDel:
			deleted++
		case o.key >= 1000:
			created++
		default:
			overwrote++
		}
	}
	if fresh != 1000+created {
		t.Errorf("fresh advanced to %d after %d creations", fresh, created)
	}
	for name, got := range map[string]int{"created": created * 2, "overwrote": overwrote * 5 / 2, "deleted": deleted * 10} {
		if got < 1600 || got > 2400 {
			t.Errorf("%s: scaled count %d far from the 50/40/10 split of 2000", name, got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{15, 20, 35, 40, 50}
	for p, want := range map[float64]float64{5: 15, 30: 20, 40: 20, 50: 35, 95: 50, 100: 50} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// stallServer answers every line with OK, the first one only after stall.
func stallServer(t *testing.T, stall time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for first := true; sc.Scan(); first = false {
			if first {
				time.Sleep(stall)
			}
			if _, err := conn.Write([]byte("OK\n")); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

func TestOpenLoopTimesFromTheDueInstant(t *testing.T) {
	const stall = 60 * time.Millisecond
	cl, err := dialClient(stallServer(t, stall))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	// Five ops due a millisecond apart; the server stalls on the first.
	ops := make([]op, 5)
	mine := make([]int, len(ops))
	for i := range ops {
		ops[i] = op{seq: i, key: i, due: time.Duration(i) * time.Millisecond}
		mine[i] = i
	}
	var res loadResult
	res.expected = map[int]expectation{}
	start := time.Now()
	runWriter(&res, cl, 0, 1, loadSpec{ops: ops, open: true}, mine, start, nil, start)
	if res.acked != len(ops) || res.failed != 0 {
		t.Fatalf("acked %d failed %d", res.acked, res.failed)
	}
	// The last op was due 4 ms in but could only leave after the stall: its
	// latency counts the wait, and its lateness is reported.
	lastAck, lastLate := res.ackMs[len(ops)-1], res.lateMs[len(ops)-1]
	if want := ms((stall - 5*time.Millisecond).Seconds()); lastAck < want || lastLate < want {
		t.Errorf("last op: ack %.1f ms, late %.1f ms; want both >= %.0f ms (timed from due, not from send)", lastAck, lastLate, want)
	}
	if res.lateMs[0] > 20 {
		t.Errorf("first op left %.1f ms late with nothing in its way", res.lateMs[0])
	}
	if res.backlogMax < 3 {
		t.Errorf("backlogMax = %d, want the ops that came due during the stall", res.backlogMax)
	}
}

func TestProcParsers(t *testing.T) {
	// comm holds spaces and a parenthesis; utime=250 stime=150 ticks.
	stat := "4242 (gossip d) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 150 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 4.0 {
		t.Errorf("parseProcStat = %v, %v; want 4.0 s", cpu, err)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("parseProcStat accepted garbage")
	}
	status := "Name:\tgossipd\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\nvoluntary_ctxt_switches:\t70\nnonvoluntary_ctxt_switches:\t7\n"
	kv, err := parseProcKV(status, "VmHWM", "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
	if err != nil || kv["VmHWM"] != 20480 || kv["voluntary_ctxt_switches"] != 70 || kv["nonvoluntary_ctxt_switches"] != 7 {
		t.Errorf("status: %v, %v", kv, err)
	}
	io := "rchar: 1000\nwchar: 2500\nsyscr: 10\nsyscw: 20\nread_bytes: 0\nwrite_bytes: 4096\n"
	kv, err = parseProcKV(io, "rchar", "wchar")
	if err != nil || kv["rchar"] != 1000 || kv["wchar"] != 2500 {
		t.Errorf("io: %v, %v", kv, err)
	}
	if _, err := parseProcKV(io, "VmHWM"); err == nil {
		t.Error("a missing key was not reported")
	}
}

func TestReplyParsers(t *testing.T) {
	got := counters{}
	statsjson := `{"updates_accepted":12,"mail_sent":48,"outbox_enqueued":48,"mail_max_queued_nanos":1500000,"trends":{"window_seconds":60}}`
	if err := parseJSONCounters("STATSJSON", statsjson, "node.", got); err != nil {
		t.Fatal(err)
	}
	wire := `{"dials":4,"reuses":96,"bytes_sent":20480,"udp_bytes_sent":512,"mail_batches":12}`
	if err := parseJSONCounters("WIRE", wire, "wire.", got); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{"node.updates_accepted": 12, "node.outbox_enqueued": 48, keyMailMaxQueued: 1.5e6, "wire.bytes_sent": 20480, "wire.udp_bytes_sent": 512} {
		if got[k] != want {
			t.Errorf("%s = %v, want %v", k, got[k], want)
		}
	}
	if _, nested := got["node.trends"]; nested {
		t.Error("a nested object was flattened into a counter")
	}
	if err := parseJSONCounters("WIRE", "ERR unknown command", "wire.", got); err == nil {
		t.Error("an ERR reply parsed as counters")
	}
	if items, err := listReply("HOT", "HOT a b"); err != nil || len(items) != 2 {
		t.Errorf("HOT a b -> %v, %v", items, err)
	}
	if items, err := listReply("HOT", "HOT "); err != nil || len(items) != 0 {
		t.Errorf("empty HOT -> %v, %v", items, err)
	}
	if _, err := listReply("KEYS", "ERR nope"); err == nil {
		t.Error("an ERR reply parsed as a list")
	}
}

func TestPromParserAndHistogramQuantile(t *testing.T) {
	text := `# HELP epidemic_exchange_seconds Initiator-side duration.
# TYPE epidemic_exchange_seconds histogram
epidemic_exchange_seconds_bucket{mechanism="rumor",le="0.001"} 10
epidemic_exchange_seconds_bucket{mechanism="rumor",le="0.01"} 90
epidemic_exchange_seconds_bucket{mechanism="rumor",le="+Inf"} 100
epidemic_exchange_seconds_sum{mechanism="rumor"} 0.42
epidemic_exchange_seconds_count{mechanism="rumor"} 100
epidemic_exchange_seconds_bucket{mechanism="anti-entropy",le="0.001"} 0
epidemic_exchange_seconds_bucket{mechanism="anti-entropy",le="+Inf"} 0
epidemic_peers 4
`
	got := counters{}
	n, err := parseProm(strings.NewReader(text), got)
	if err != nil || n != 8 {
		t.Fatalf("parseProm: %d series, %v", n, err)
	}
	if got["prom.epidemic_peers"] != 4 {
		t.Errorf("epidemic_peers = %v", got["prom.epidemic_peers"])
	}
	if q := got.histQuantile("epidemic_exchange_seconds", `mechanism="rumor"`, 0.5); q != 0.01 {
		t.Errorf("rumor p50 bucket = %v, want 0.01", q)
	}
	if q := got.histQuantile("epidemic_exchange_seconds", `mechanism="anti-entropy"`, 0.5); !math.IsNaN(q) {
		t.Errorf("empty histogram p50 = %v, want NaN", q)
	}
	if s := got.sumPrefix("prom.epidemic_exchange_seconds_count"); s != 100 {
		t.Errorf("sumPrefix = %v", s)
	}
}

func TestCounterArithmetic(t *testing.T) {
	first := counters{"wire.bytes_sent": 100, keyVmHWM: 50, keyMailMaxQueued: 7}
	second := counters{"wire.bytes_sent": 30, keyVmHWM: 80, keyMailMaxQueued: 3}
	daemon := counters{}
	daemon.addIncarnation(first)
	daemon.addIncarnation(second)
	if daemon["wire.bytes_sent"] != 130 || daemon[keyVmHWM] != 80 || daemon[keyMailMaxQueued] != 7 {
		t.Errorf("two incarnations: %v", daemon)
	}
	total := counters{}
	total.add(daemon)
	total.add(counters{"wire.bytes_sent": 1, keyVmHWM: 20, keyMailMaxQueued: 9})
	if total["wire.bytes_sent"] != 131 || total[keyVmHWM] != 100 || total[keyMailMaxQueued] != 9 {
		t.Errorf("two daemons: %v", total)
	}
	delta := total.minus(counters{"wire.bytes_sent": 31, keyVmHWM: 60})
	if delta["wire.bytes_sent"] != 100 || delta[keyVmHWM] != 100 {
		t.Errorf("delta: %v", delta)
	}
}
