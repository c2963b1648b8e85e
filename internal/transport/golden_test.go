package transport

import (
	"encoding/hex"
	"testing"

	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// goldenFrame is one request of a kind and a response of the shape that
// kind is answered with.
type goldenFrame struct {
	req  request
	resp response
}

func goldenFrames() map[reqKind]goldenFrame {
	e := store.Entry{Key: "k/000017", Value: store.Value("v1"),
		Stamp: timestamp.T{Time: 1 << 40, Site: 2, Seq: 9}, Activation: timestamp.T{Time: 1 << 40, Site: 2, Seq: 9}}
	cert := store.Entry{Key: "gone", Stamp: timestamp.T{Time: 77, Site: 3, Seq: 1},
		Activation: timestamp.T{Time: 99, Site: 3, Seq: 2}, Retention: []timestamp.SiteID{1, 4}}
	id := store.Entry{Key: e.Key, Stamp: e.Stamp, Activation: e.Activation}
	hop := trace.Hop{Parent: 2, Count: 3, Valid: true}
	bound := timestamp.T{Time: 1<<40 - 5, Site: 1, Seq: 4}
	return map[reqKind]goldenFrame{
		reqPushRumors: {
			req:  request{Kind: reqPushRumors, From: 2, Entries: []store.Entry{e, cert}},
			resp: response{Needed: []bool{true, false}},
		},
		reqRumorOffer: {
			req:  request{Kind: reqRumorOffer, From: 2, Entries: []store.Entry{id}},
			resp: response{Needed: []bool{false}, Entries: []store.Entry{cert}, Hops: []trace.Hop{hop}},
		},
		reqSyncOffer: {
			req: request{Kind: reqSyncOffer, From: 2, Entries: []store.Entry{id},
				Checksum: 0xdeadbeefcafef00d, Now: 1 << 41, Tau: 20_000, Tau1: 3_600_000},
			resp: response{Needed: []bool{true}, Entries: []store.Entry{cert}, Hops: []trace.Hop{hop},
				Checksum: 0x0123456789abcdef, Now: 1<<41 + 3},
		},
		reqFullSync: {
			req:  request{Kind: reqFullSync, From: 2, Entries: []store.Entry{e, cert}, Now: 1 << 41, Tau1: 3_600_000},
			resp: response{Entries: []store.Entry{e}, Checksum: 42, Now: 1 << 41, InSync: true},
		},
		reqChecksum: {
			req:  request{Kind: reqChecksum, Tau1: 3_600_000},
			resp: response{Checksum: 0xfeedfacecafebeef},
		},
		reqPeelBack: {
			req: request{Kind: reqPeelBack, From: 2, Entries: []store.Entry{cert}, Bound: bound, Limit: 64,
				Now: 1 << 41, Tau1: 3_600_000},
			resp: response{Entries: []store.Entry{e}, Checksum: 7, Now: 1 << 41, Bound: bound, More: true},
		},
		reqShardVector: {
			req:  request{Kind: reqShardVector, From: 2, Now: 1 << 41, Tau1: 3_600_000, Vector: []uint64{1, 0, ^uint64(0)}},
			resp: response{Checksum: 9, Now: 1 << 41, ShardCount: 3, Vector: []uint64{1, 2, 3}},
		},
		reqPeelBackShard: {
			req: request{Kind: reqPeelBackShard, From: 2, Bound: bound, Limit: 8, Now: 1 << 41, Tau1: 3_600_000,
				Shard: 13, ShardCount: 16},
			resp: response{Entries: []store.Entry{cert}, Checksum: 11, Now: 1 << 41, Bound: bound, More: false},
		},
		reqMailBatch: {
			req: request{Kind: reqMailBatch, From: 2, Entries: []store.Entry{e, cert}, Hops: []trace.Hop{hop, {}},
				MailQueuedNanos: 1_500_000, MailCoalesced: 3},
			resp: response{Needed: []bool{true, true}},
		},
	}
}

// goldenHex holds, per kind, the request and response payloads of
// goldenFrames at wire version 6: varint-delta stamps and varint site ids.
// Against version 5's fixed-width stamps the table is 42 % shorter; the
// shard-vector pair and the peel-back-shard request shrink least (21–22 %)
// because fixed-width hashes fill most of them. The one format must keep
// producing these bytes exactly.
var goldenHex = map[reqKind][2]string{
	reqPushRumors: {
		"020200000000000000000000000000000002086b2f30303030313703763180808080804002090002090004676f6e6500e5feffffff3f03012c030202010400000000000000",
		"000000000000000000000000000201000000000000",
	},
	reqRumorOffer: {
		"030200000000000000000000000000000001086b2f3030303031370080808080804002090002090000000000000000",
		"0000000000000000000000000001000104676f6e65009a0103012c03020201040102060100000000",
	},
	reqSyncOffer: {
		"0b02deadbeefcafef00d80808080808001c0b80280bab7030000000001086b2f3030303031370080808080804002090002090000000000000000",
		"000123456789abcdef8680808080800100000001010104676f6e65009a0103012c03020201040102060100000000",
	},
	reqFullSync: {
		"05020000000000000000808080808080010080bab7030000000002086b2f30303030313703763180808080804002090002090004676f6e6500e5feffffff3f03012c030202010400000000000000",
		"01000000000000002a808080808080010000000001086b2f3030303031370376318080808080400209000209000000000000",
	},
	reqChecksum: {
		"06000000000000000000000080bab703000000000000000000000000",
		"00feedfacecafebeef0000000000000000000000",
	},
	reqPeelBack: {
		"07020000000000000000808080808080010080bab703f6ffffffff3f010480010104676f6e65009a0103012c030202010400000000000000",
		"02000000000000000780808080808001f6ffffffff3f01040001086b2f3030303031370376318080808080400209000209000000000000",
	},
	reqShardVector: {
		"08020000000000000000808080808080010080bab7030000000000000000000300000000000000010000000000000000ffffffffffffffff0000",
		"0000000000000000098080808080800100000000000000000603000000000000000100000000000000020000000000000003",
	},
	reqPeelBackShard: {
		"09020000000000000000808080808080010080bab703f6ffffffff3f0104100000001a20000000",
		"00000000000000000b80808080808001f6ffffffff3f0104000104676f6e65009a0103012c03020201040000000000",
	},
	reqMailBatch: {
		"0a0200000000000000000000000000000002086b2f30303030313703763180808080804002090002090004676f6e6500e5feffffff3f03012c03020201040202060100000000000000c08db70106",
		"000000000000000000000000000203000000000000",
	},
}

// goldenErrHex is a response carrying a remote error.
const goldenErrHex = "0000000000000000000000000000000017756e6b6e6f776e2072657175657374206b696e64203939000000"

// TestGoldenFrameBytes pins the payload bytes of every request kind and its
// response, digest sections empty, so any change to the layout shows up
// here and must come with a new wire version. The retired kinds 1 and 4
// have no row.
func TestGoldenFrameBytes(t *testing.T) {
	frames := goldenFrames()
	for k := reqKind(1); k <= reqSyncOffer; k++ {
		if k.kindName() == "unknown" {
			continue // retired
		}
		f, ok := frames[k]
		want, wok := goldenHex[k]
		if !ok || !wok {
			t.Fatalf("no golden frame for kind %s", k.kindName())
		}
		if got := hex.EncodeToString(appendRequest(nil, &f.req)); got != want[0] {
			t.Errorf("%s request:\n got %s\nwant %s", k.kindName(), got, want[0])
		}
		if got := hex.EncodeToString(appendResponse(nil, &f.resp)); got != want[1] {
			t.Errorf("%s response:\n got %s\nwant %s", k.kindName(), got, want[1])
		}
	}
	errResp := response{Err: "unknown request kind 99"}
	if got := hex.EncodeToString(appendResponse(nil, &errResp)); got != goldenErrHex {
		t.Errorf("error response:\n got %s\nwant %s", got, goldenErrHex)
	}
}
