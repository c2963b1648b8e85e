package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// opKind is what one generated operation asks of the program.
type opKind uint8

const (
	opSet opKind = iota
	opDel
	// opProbe is a SET of a unique key p/<seq> whose arrival at every other
	// replica is timed from outside.
	opProbe
)

// op is one generated client operation. The program only ever sees the
// protocol line it renders to; key and value are functions of the fields.
type op struct {
	seq    int // position in the stream; also the value's identity
	kind   opKind
	key    int // key index for opSet/opDel
	writer int // which writer connection owns (and sends) it
	// due is when an open loop sends the op, from the start of its load
	// phase; closed loops ignore it.
	due time.Duration
}

const valueLen = 64

// keyName renders key index i.
func keyName(i int) string { return fmt.Sprintf("k/%06d", i) }

// probeKey renders the unique key of probe seq.
func probeKey(seq int) string { return "p/" + strconv.Itoa(seq) }

// value is the 64-byte value written by op seq: "v<seq>." padded with a
// filler that depends on seq, so no two ops write equal bytes.
func value(seq int) string {
	head := "v" + strconv.Itoa(seq) + "."
	const filler = "abcdefghijklmnopqrstuvwxyz0123456789"
	var b strings.Builder
	b.WriteString(head)
	for i := 0; b.Len() < valueLen; i++ {
		b.WriteByte(filler[(seq+i)%len(filler)])
	}
	return b.String()
}

// valueSeq recovers seq from a value written by value(seq); ok is false for
// anything else.
func valueSeq(v string) (seq int, ok bool) {
	if len(v) < 3 || v[0] != 'v' {
		return 0, false
	}
	dot := strings.IndexByte(v, '.')
	if dot < 2 {
		return 0, false
	}
	seq, err := strconv.Atoi(v[1:dot])
	return seq, err == nil
}

// line renders the protocol line the program receives for o.
func (o op) line() string {
	switch o.kind {
	case opDel:
		return "DEL " + keyName(o.key)
	case opProbe:
		return "SET " + probeKey(o.seq) + " " + value(o.seq)
	default:
		return "SET " + keyName(o.key) + " " + value(o.seq)
	}
}

// streamConfig shapes the steady and burst op stream.
type streamConfig struct {
	seed       int64
	keys       int // key space size
	writers    int
	probeEvery int // every probeEvery-th op is a probe (0 = none)
	// rate > 0 gives the ops Poisson arrival times at that many per second,
	// restarting from zero every perPhase ops: independent clients, and no
	// fixed phase against the daemons' periodic rounds. 0 leaves due unset.
	rate     float64
	perPhase int
}

const (
	zipfS  = 1.2 // Zipf exponent of key popularity
	delPct = 10  // share of DEL among non-probe ops, percent
)

// genZipfOps generates n ops: Zipf-distributed keys, delPct% deletes, a
// probe at every probeEvery-th position. Writer w owns the keys whose index
// is w modulo the writer count, so the last op on any key is well defined:
// it is the last one its single owner sent. Probes alternate writers.
func genZipfOps(cfg streamConfig, n int) []op {
	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(cfg.keys-1))
	ops := make([]op, n)
	probes := 0
	var due float64 // seconds
	for i := range ops {
		o := op{seq: i}
		if cfg.rate > 0 {
			if i%cfg.perPhase == 0 {
				due = 0
			}
			due += rng.ExpFloat64() / cfg.rate
			o.due = time.Duration(due * float64(time.Second))
		}
		if cfg.probeEvery > 0 && i%cfg.probeEvery == cfg.probeEvery-1 {
			o.kind = opProbe
			o.writer = probes % cfg.writers
			probes++
		} else {
			o.key = int(zipf.Uint64())
			o.writer = o.key % cfg.writers
			if rng.Intn(100) < delPct {
				o.kind = opDel
			}
		}
		ops[i] = o
	}
	return ops
}

// genDeltaOps generates the n ops one rejoin cycle writes while a replica
// is down: half create keys above the snapshot (fresh holds the next unused
// index and is advanced), 40% overwrite snapshot keys, 10% delete them;
// every probeEvery-th op is a probe. seqBase keeps seq unique across cycles;
// arrivals are Poisson at rate per second.
func genDeltaOps(rng *rand.Rand, n, seqBase, snapshotKeys int, fresh *int, writers, probeEvery int, rate float64) []op {
	ops := make([]op, n)
	probes := 0
	var due float64
	for i := range ops {
		due += rng.ExpFloat64() / rate
		o := op{seq: seqBase + i, due: time.Duration(due * float64(time.Second))}
		switch r := rng.Intn(100); {
		case probeEvery > 0 && i%probeEvery == probeEvery-1:
			o.kind = opProbe
			o.writer = probes % writers
			probes++
			ops[i] = o
			continue
		case r < 50:
			o.key = *fresh
			*fresh++
		case r < 90:
			o.key = rng.Intn(snapshotKeys)
		default:
			o.key = rng.Intn(snapshotKeys)
			o.kind = opDel
		}
		o.writer = o.key % writers
		ops[i] = o
	}
	return ops
}

// renderStream is the byte form of a stream, for determinism checks.
func renderStream(ops []op) string {
	var b strings.Builder
	for _, o := range ops {
		b.WriteString(strconv.Itoa(o.writer))
		b.WriteByte(' ')
		b.WriteString(o.line())
		b.WriteByte('\n')
	}
	return b.String()
}

// expectation is the owner's view of one key after the run: the seq of its
// last acknowledged op and whether that op was a delete.
type expectation struct {
	seq     int
	deleted bool
	// unknown marks a key one of whose ops failed, so its final state
	// cannot be asserted.
	unknown bool
}

// want renders what a GET of the key must answer.
func (e expectation) want() string {
	if e.deleted {
		return "MISSING"
	}
	return "VALUE " + value(e.seq)
}
