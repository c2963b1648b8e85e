package obs

import (
	"epidemic/internal/transport"
)

// Metric names for the client-side wire protocol: the connection pool and
// per-exchange traffic of every TCPPeer sharing one transport.WireStats.
const (
	MetricWireDials              = "epidemic_wire_dials_total"
	MetricWireRedials            = "epidemic_wire_redials_total"
	MetricWireReuses             = "epidemic_wire_reuses_total"
	MetricWireOpenConns          = "epidemic_wire_open_conns"
	MetricWireBytesSent          = "epidemic_wire_bytes_sent_total"
	MetricWireBytesReceived      = "epidemic_wire_bytes_received_total"
	MetricWireExchanges          = "epidemic_wire_exchanges_total"
	MetricWireEntriesPerExchange = "epidemic_wire_exchange_entries"
	MetricWireBytesPerExchange   = "epidemic_wire_exchange_bytes"

	// Request round trips over TCP (the name dates from the gob codec).
	MetricWireMsgsBinary = "epidemic_wire_msgs_binary_total"

	// Shard-vector anti-entropy: narrow repairs completed, diverged
	// buckets walked, and conversations that fell to the single-bucket
	// (whole-store) walk.
	MetricWireShardVecExchanges  = "epidemic_wire_shardvec_exchanges_total"
	MetricWireShardVecShards     = "epidemic_wire_shardvec_shards_total"
	MetricWireShardVecDowngrades = "epidemic_wire_shardvec_downgrades_total"

	// Batched mail: outbox drains shipped as one frame and the entries
	// they carried.
	MetricWireMailBatches      = "epidemic_wire_mail_batches_total"
	MetricWireMailBatchEntries = "epidemic_wire_mail_batch_entries_total"
)

// Default histogram buckets for per-exchange entry counts and byte sizes:
// a healthy anti-entropy exchange moves O(δ) entries, so the interesting
// resolution is at the low end.
var (
	wireEntryBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
	wireByteBuckets  = []float64{128, 256, 512, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20}
)

// InstrumentWire registers ws's pool and traffic counters on reg and
// installs the exchange observer that feeds the per-exchange histograms.
// The counters are read at scrape time; the histograms accumulate one
// observation per completed anti-entropy conversation. Call once per
// process-wide WireStats.
func InstrumentWire(reg *Registry, ws *transport.WireStats) {
	counter := func(name, help string, read func(transport.WireSnapshot) int64) {
		reg.CounterFunc(name, help, func() float64 {
			return float64(read(ws.Snapshot()))
		})
	}
	counter(MetricWireDials, "Gossip client connections dialed.",
		func(s transport.WireSnapshot) int64 { return s.Dials })
	counter(MetricWireRedials, "Dials that replaced a pooled connection found dead mid-request.",
		func(s transport.WireSnapshot) int64 { return s.Redials })
	counter(MetricWireReuses, "Gossip requests served by an already-open pooled connection.",
		func(s transport.WireSnapshot) int64 { return s.Reuses })
	counter(MetricWireBytesSent, "Framed gossip bytes sent to peers, headers included.",
		func(s transport.WireSnapshot) int64 { return s.BytesSent })
	counter(MetricWireBytesReceived, "Framed gossip bytes received from peers, headers included.",
		func(s transport.WireSnapshot) int64 { return s.BytesReceived })
	counter(MetricWireExchanges, "Anti-entropy conversations completed over the wire.",
		func(s transport.WireSnapshot) int64 { return s.Exchanges })
	counter(MetricWireMsgsBinary, "Gossip request round trips over TCP.",
		func(s transport.WireSnapshot) int64 { return s.MsgsBinary })
	counter(MetricWireShardVecExchanges, "Anti-entropy conversations resolved on the narrow shard-vector path.",
		func(s transport.WireSnapshot) int64 { return s.ShardVecExchanges })
	counter(MetricWireShardVecShards, "Diverged buckets repaired by shard-vector exchanges.",
		func(s transport.WireSnapshot) int64 { return s.ShardVecShards })
	counter(MetricWireShardVecDowngrades, "Anti-entropy conversations that fell to the single-bucket (whole-store) walk.",
		func(s transport.WireSnapshot) int64 { return s.ShardVecDowngrades })
	counter(MetricWireMailBatches, "Outbox drains shipped as single batched mail frames.",
		func(s transport.WireSnapshot) int64 { return s.MailBatches })
	counter(MetricWireMailBatchEntries, "Mail entries carried by batched mail frames.",
		func(s transport.WireSnapshot) int64 { return s.MailBatchEntries })
	reg.GaugeFunc(MetricWireOpenConns, "Gossip client connections currently open.",
		func() float64 { return float64(ws.Snapshot().OpenConns) })

	entries := reg.Histogram(MetricWireEntriesPerExchange,
		"Entries moved per anti-entropy conversation, both directions.",
		wireEntryBuckets)
	bytes := reg.Histogram(MetricWireBytesPerExchange,
		"Framed bytes moved per anti-entropy conversation, both directions.",
		wireByteBuckets)
	ws.SetExchangeObserver(func(entriesSent, entriesReceived int, bytesOut, bytesIn int64) {
		entries.Observe(float64(entriesSent + entriesReceived))
		bytes.Observe(float64(bytesOut + bytesIn))
	})
}
