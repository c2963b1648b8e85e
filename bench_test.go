package epidemic_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// runs the corresponding experiment at paper scale and reports the paper's
// metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every published number alongside wall-clock cost.

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"epidemic"
	"epidemic/internal/core"
	"epidemic/internal/experiments"
	"epidemic/internal/obs/trace"
	"epidemic/internal/spatial"
	"epidemic/internal/store"
	"epidemic/internal/topology"
)

// reportRumorRows attaches a table's first and last rows as metrics.
func reportRumorRows(b *testing.B, rows []experiments.RumorRow) {
	b.Helper()
	first, last := rows[0], rows[len(rows)-1]
	b.ReportMetric(first.Residue, "residue_kmin")
	b.ReportMetric(first.Traffic, "traffic_kmin")
	b.ReportMetric(last.Residue, "residue_kmax")
	b.ReportMetric(last.Traffic, "traffic_kmax")
	b.ReportMetric(last.TLast, "tlast_kmax")
}

// BenchmarkTable1 regenerates Table 1: push rumor mongering with feedback
// and counters, n=1000, k=1..5.
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.RumorRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1(1000, 25, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRumorRows(b, rows)
}

// BenchmarkTable2 regenerates Table 2: blind+coin push rumor mongering.
func BenchmarkTable2(b *testing.B) {
	var rows []experiments.RumorRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(1000, 25, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRumorRows(b, rows)
}

// BenchmarkTable3 regenerates Table 3: pull with feedback and counters.
func BenchmarkTable3(b *testing.B) {
	var rows []experiments.RumorRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table3(1000, 25, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRumorRows(b, rows)
}

func reportCINRows(b *testing.B, rows []experiments.CINRow) {
	b.Helper()
	uniform, tightest := rows[0], rows[len(rows)-1]
	b.ReportMetric(uniform.TLast, "tlast_uniform")
	b.ReportMetric(uniform.CompareAvg, "cmpavg_uniform")
	b.ReportMetric(uniform.CompareBushey, "bushey_uniform")
	b.ReportMetric(tightest.TLast, "tlast_a2")
	b.ReportMetric(tightest.CompareAvg, "cmpavg_a2")
	b.ReportMetric(tightest.CompareBushey, "bushey_a2")
}

// BenchmarkTable4 regenerates Table 4: anti-entropy with spatial
// distributions on the synthetic CIN, no connection limit.
func BenchmarkTable4(b *testing.B) {
	var rows []experiments.CINRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table4(25, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCINRows(b, rows)
}

// BenchmarkTable5 regenerates Table 5: connection limit 1, hunt limit 0.
func BenchmarkTable5(b *testing.B) {
	var rows []experiments.CINRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table5(25, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCINRows(b, rows)
}

// BenchmarkFigure1 regenerates the Figure 1 pathological topology: push
// rumors between a close pair with a distant fan can die before escaping.
func BenchmarkFigure1(b *testing.B) {
	var rows []experiments.FigureRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure1(20, 3, 100, []int{1, 2, 4}, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].FailureRate, "pfail_k1")
	b.ReportMetric(rows[len(rows)-1].FailureRate, "pfail_k4")
}

// BenchmarkFigure2 regenerates the Figure 2 scenario: a satellite site
// beyond a binary tree misses push rumors at small k.
func BenchmarkFigure2(b *testing.B) {
	var rows []experiments.FigureRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure2(7, 100, []int{1, 2, 4}, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].FailureRate, "pfail_k1")
	b.ReportMetric(rows[len(rows)-1].FailureRate, "pfail_k4")
}

// BenchmarkPushPullConvergence regenerates §1.3's residual recurrences.
func BenchmarkPushPullConvergence(b *testing.B) {
	var rows []experiments.ConvergenceRow
	for i := 0; i < b.N; i++ {
		rows = experiments.PushPullConvergence(1000, 0.1, 10, 10, int64(i)+1)
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.PushSim, "push_p10")
	b.ReportMetric(last.PullSim, "pull_p10")
}

// BenchmarkResidueTrafficLaw regenerates §1.4's s=e^{-m} law sweep.
func BenchmarkResidueTrafficLaw(b *testing.B) {
	var rows []experiments.LawRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ResidueTrafficLaw(1000, 20, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Lambda, "lambda_first")
}

// BenchmarkConnectionLimit regenerates §1.4's connection-limit and hunting
// effects.
func BenchmarkConnectionLimit(b *testing.B) {
	var rows []experiments.LawRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ConnectionLimitLaw(1000, 20, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Residue, "residue_first")
}

// BenchmarkMinimization regenerates §1.4's counter-minimization ablation.
func BenchmarkMinimization(b *testing.B) {
	var rows []experiments.LawRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.MinimizationComparison(1000, 20, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].Residue, "residue_min_kmax")
}

// BenchmarkLineScaling regenerates §3's T(n) traffic table on a line.
func BenchmarkLineScaling(b *testing.B) {
	var rows []experiments.LineScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.LineScaling([]int{100, 200, 400}, []float64{0, 1, 2, 3}, 5, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].TrafficPerLink, "traffic_n100_a0")
	b.ReportMetric(rows[len(rows)-1].TrafficPerLink, "traffic_n400_a3")
}

// BenchmarkDeathCertificates regenerates §2's deletion scenarios.
func BenchmarkDeathCertificates(b *testing.B) {
	var rows []experiments.DeathCertRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.DeathCertificates(10, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].ResurrectedReplicas), "resurrected_expired")
	b.ReportMetric(float64(rows[2].ResurrectedReplicas), "resurrected_dormant")
}

// BenchmarkBackupAntiEntropy regenerates §1.5's backup experiment.
func BenchmarkBackupAntiEntropy(b *testing.B) {
	var row experiments.BackupRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.BackupAntiEntropy(24, 10, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.RumorFailures)/float64(row.Trials), "rumor_fail_rate")
	b.ReportMetric(float64(row.AfterBackupFailures), "after_backup_failures")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationRumorVariants sweeps the counter/coin × feedback/blind
// matrix at fixed k.
func BenchmarkAblationRumorVariants(b *testing.B) {
	variants := map[string]epidemic.RumorConfig{
		"feedback-counter": {K: 3, Counter: true, Feedback: true, Mode: epidemic.Push},
		"feedback-coin":    {K: 3, Feedback: true, Mode: epidemic.Push},
		"blind-counter":    {K: 3, Counter: true, Mode: epidemic.Push},
		"blind-coin":       {K: 3, Mode: epidemic.Push},
	}
	for name, cfg := range variants {
		b.Run(name, func(b *testing.B) {
			sel, err := epidemic.NewUniformSelector(1000)
			if err != nil {
				b.Fatal(err)
			}
			var res epidemic.SpreadResult
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				var err error
				res, err = epidemic.SpreadRumor(cfg, sel, rng.Intn(1000), rng)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Residue, "residue")
			b.ReportMetric(res.Traffic, "traffic")
		})
	}
}

// BenchmarkAblationSpatialForms compares Q-based, paper-equation, and
// direct d^{-a} weighting on a mesh.
func BenchmarkAblationSpatialForms(b *testing.B) {
	nw, err := topology.Mesh(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	for name, form := range map[string]spatial.Form{
		"d^-a":    spatial.FormDistance,
		"Q^-a":    spatial.FormQ,
		"eq3.1.1": spatial.FormPaper,
		"1/(dQ)":  spatial.FormDQ,
	} {
		b.Run(name, func(b *testing.B) {
			sel, err := spatial.New(nw, form, 2)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			var res core.SpreadResult
			for i := 0; i < b.N; i++ {
				res, err = core.SpreadAntiEntropy(core.AntiEntropyConfig{Mode: core.PushPull}, sel,
					rng.Intn(256), rng, core.WithLinkAccounting(nw))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.TLast), "tlast")
			b.ReportMetric(res.CompareLoad.Max(), "max_link_load")
		})
	}
}

// BenchmarkAblationAntiEntropyCompare measures the database-level compare
// strategies on nearly in-sync replicas — the case §1.3's checksums and
// peel-back exist for.
func BenchmarkAblationAntiEntropyCompare(b *testing.B) {
	strategies := map[string]epidemic.CompareStrategy{
		"full":     epidemic.CompareFull,
		"checksum": epidemic.CompareChecksum,
		"recent":   epidemic.CompareRecent,
		"peelback": epidemic.ComparePeelBack,
	}
	for name, strat := range strategies {
		b.Run(name, func(b *testing.B) {
			src := epidemic.NewSimulatedClock(1)
			s1 := epidemic.NewStore(1, src.ClockAt(1))
			s2 := epidemic.NewStore(2, src.ClockAt(2))
			for i := 0; i < 500; i++ {
				e := s1.Update(randKey(i), epidemic.Value("v"))
				s2.Apply(e)
				src.Advance(1)
			}
			cfg := epidemic.ResolveConfig{Mode: epidemic.PushPull, Strategy: strat, Tau: 10}
			b.ResetTimer()
			var sent int
			for i := 0; i < b.N; i++ {
				// One fresh divergence per iteration, then resolve.
				s1.Update(randKey(10_000+i), epidemic.Value("new"))
				st, err := epidemic.ResolveDifference(cfg, s1, s2)
				if err != nil {
					b.Fatal(err)
				}
				sent += st.Transferred()
				src.Advance(1)
			}
			b.ReportMetric(float64(sent)/float64(b.N), "entries_sent/op")
		})
	}
}

func randKey(i int) string {
	const letters = "abcdefghij"
	buf := make([]byte, 0, 8)
	for i > 0 || len(buf) == 0 {
		buf = append(buf, letters[i%10])
		i /= 10
	}
	return string(buf)
}

// BenchmarkSpreadRumorOp measures the raw cost of one 1000-site spread —
// the unit underneath every table bench.
func BenchmarkSpreadRumorOp(b *testing.B) {
	sel, err := epidemic.NewUniformSelector(1000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := epidemic.DefaultRumorConfig()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := epidemic.SpreadRumor(cfg, sel, rng.Intn(1000), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreApply measures the replica merge hot path.
func BenchmarkStoreApply(b *testing.B) {
	src := epidemic.NewSimulatedClock(1)
	producer := epidemic.NewStore(1, src.ClockAt(1))
	entries := make([]epidemic.Entry, 1000)
	for i := range entries {
		entries[i] = producer.Update(randKey(i), epidemic.Value("v"))
		src.Advance(1)
	}
	consumer := epidemic.NewStore(2, src.ClockAt(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consumer.Apply(entries[i%len(entries)])
	}
}

// BenchmarkKAdjustment regenerates §3.2's k-for-100%-distribution search.
func BenchmarkKAdjustment(b *testing.B) {
	var rows []experiments.KAdjustRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.KAdjustment(20, 20, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].K), "k_pushpull_uniform")
	b.ReportMetric(float64(rows[len(rows)-1].K), "k_push_a2")
}

// BenchmarkTauWindow regenerates §1.3's recent-update window tradeoff.
func BenchmarkTauWindow(b *testing.B) {
	var rows []experiments.TauWindowRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TauWindow(12, []int64{1, 5, 50}, 60, 2, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].FullCompareRate, "fullcmp_tau1")
	b.ReportMetric(rows[1].EntriesPerExchange, "entries_tau5")
}

// BenchmarkNodeStepAntiEntropy measures one runtime anti-entropy
// conversation between nearly in-sync replicas (the steady-state op).
func BenchmarkNodeStepAntiEntropy(b *testing.B) {
	src := epidemic.NewSimulatedClock(1)
	mk := func(site epidemic.SiteID) *epidemic.Node {
		n, err := epidemic.NewNode(epidemic.NodeConfig{Site: site, Clock: src.ClockAt(site), Seed: int64(site)})
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	n1, n2 := mk(1), mk(2)
	n1.SetPeers([]epidemic.Peer{epidemic.NewLocalPeer(n2, 1)})
	for i := 0; i < 200; i++ {
		e := n1.Update(randKey(i), epidemic.Value("v"))
		n2.Store().Apply(e)
		src.Advance(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n1.StepAntiEntropy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeActivityExchange measures the §1.5 combined exchange on
// in-sync replicas (one checksum probe).
func BenchmarkNodeActivityExchange(b *testing.B) {
	src := epidemic.NewSimulatedClock(1)
	mk := func(site epidemic.SiteID) *epidemic.Node {
		n, err := epidemic.NewNode(epidemic.NodeConfig{Site: site, Clock: src.ClockAt(site), Seed: int64(site)})
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	n1, n2 := mk(1), mk(2)
	n1.SetPeers([]epidemic.Peer{epidemic.NewLocalPeer(n2, 1)})
	for i := 0; i < 200; i++ {
		e := n1.Update(randKey(i), epidemic.Value("v"))
		n2.Store().Apply(e)
		src.Advance(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n1.StepActivityExchange(16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsyncRobustness regenerates the synchronous-vs-asynchronous
// comparison (event-driven simulator with jitter and latency).
func BenchmarkAsyncRobustness(b *testing.B) {
	var rows []experiments.AsyncRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AsyncRobustness(1000, 10, []int{1, 2, 3, 4}, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].SyncResidue, "s_sync_k2")
	b.ReportMetric(rows[1].AsyncResidue, "s_async_k2")
}

// BenchmarkRumorCIN regenerates §3.2's rumor-on-CIN equivalence table.
func BenchmarkRumorCIN(b *testing.B) {
	var rows []experiments.RumorCINRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RumorMongeringOnCIN(50, 16, 25, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].K), "k_uniform")
	b.ReportMetric(rows[len(rows)-1].CompareBushey, "bushey_a2")
}

// BenchmarkHybridCost regenerates §1.5's deployment economics.
func BenchmarkHybridCost(b *testing.B) {
	var rows []experiments.HybridRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.HybridCost(1000, 10, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ExpensiveConversations, "convs_pure_ae")
	b.ReportMetric(rows[1].ExpensiveConversations, "convs_hybrid")
}

// BenchmarkMethodComparison regenerates §1's three-mechanism table.
func BenchmarkMethodComparison(b *testing.B) {
	var rows []experiments.MethodRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.MethodComparison(1000, 20, 0.05, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[2].Residue, "rumor_residue")
}

// BenchmarkRedistributionCost regenerates the §0.1 remail disaster.
func BenchmarkRedistributionCost(b *testing.B) {
	var rows []experiments.RedistributionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RedistributionCost(300, 10, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Messages, "mail_storm")
	b.ReportMetric(rows[1].Messages, "rumor_redistribution")
}

// BenchmarkStaleness regenerates §0's relaxed-consistency measurement.
func BenchmarkStaleness(b *testing.B) {
	var rows []experiments.StalenessRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Staleness(12, []float64{2, 16}, 40, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].Currency, "currency_heavy_load")
}

// BenchmarkMailLinkTraffic regenerates §1.2/§3.1's per-link comparison.
func BenchmarkMailLinkTraffic(b *testing.B) {
	var rows []experiments.LinkTrafficRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.MailLinkTraffic(10, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MaxLink, "mail_hotspot")
	b.ReportMetric(rows[2].Bushey, "spatial_bushey")
}

// --- wire-transport benchmarks: persistent-connection pool + peel-back ---

// benchWireExchange measures one in-sync anti-entropy conversation over a
// real TCP socket: a checksum-agreeing round trip, the steady state of a
// healthy cluster. The pooled and dial-per-request variants differ only in
// TCPPeerOptions, isolating the cost of connection setup and the per-dial
// hello. The serving node is instrumented and a history
// sampler ticks over its registry for the whole measured loop, so
// allocs/op also proves the telemetry pipeline (counters, histograms,
// time-series capture) stays off the exchange path's allocation budget.
func benchWireExchange(b *testing.B, opts epidemic.TCPPeerOptions) {
	src := epidemic.NewSimulatedClock(1 << 30)
	remote, err := epidemic.NewNode(epidemic.NodeConfig{Site: 2, Clock: src.ClockAt(2)})
	if err != nil {
		b.Fatal(err)
	}
	reg := epidemic.NewMetricsRegistry()
	remote.SetOnEvent(epidemic.InstrumentNode(reg, remote, epidemic.ObserveOptions{
		SecondsPerUnit: 1e-9,
		WallTime:       true,
	}))
	sampler := epidemic.NewHistorySampler(reg, epidemic.HistoryConfig{
		Step: time.Millisecond, Retention: time.Minute,
	})
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		sampler.Run(stopSampler)
	}()
	defer func() {
		close(stopSampler)
		<-samplerDone
	}()
	srv, err := epidemic.ServeTCP(remote, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	local := epidemic.NewStore(1, src.ClockAt(1))
	for i := 0; i < 100; i++ {
		e := local.Update(randKey(i), epidemic.Value("v"))
		remote.Store().Apply(e)
		src.Advance(1)
	}
	src.Advance(100) // shared history ages out of the recent window
	cfg := epidemic.ResolveConfig{
		Mode: epidemic.PushPull, Strategy: epidemic.CompareRecent,
		Tau: 10, Tau1: 1 << 40,
	}
	peer := epidemic.NewTCPPeerWith(2, srv.Addr(), opts)
	defer peer.Close()
	// Warm-up: converge the replicas and (when pooling) open the session
	// the loop will reuse.
	if _, err := peer.AntiEntropy(cfg, local, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := peer.AntiEntropy(cfg, local, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchangePooled reuses one persistent framed session per request.
func BenchmarkExchangePooled(b *testing.B) {
	benchWireExchange(b, epidemic.TCPPeerOptions{})
}

// BenchmarkExchangeRecentWindow measures round 0 of an anti-entropy
// conversation where it costs the most and finds the least: two in-sync
// replicas that share an 800-key recent-update window (8-byte keys, 64-byte
// values — the live benchmark's shape), one pooled conversation per op.
// Nothing differs, so every byte is §3's compare traffic; wire_B/op counts
// both directions, frame headers included.
func BenchmarkExchangeRecentWindow(b *testing.B) {
	src := epidemic.NewSimulatedClock(1 << 30)
	remote, err := epidemic.NewNode(epidemic.NodeConfig{Site: 2, Clock: src.ClockAt(2)})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := epidemic.ServeTCP(remote, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	local := epidemic.NewStore(1, src.ClockAt(1))
	value := make(epidemic.Value, 64)
	for i := 0; i < 800; i++ {
		e := local.Update(fmt.Sprintf("k/%06d", i), value)
		remote.Store().Apply(e)
		src.Advance(1)
	}
	cfg := epidemic.ResolveConfig{
		Mode: epidemic.PushPull, Strategy: epidemic.CompareRecent,
		Tau: 1 << 20, Tau1: 1 << 40,
	}
	stats := &epidemic.WireStats{}
	peer := epidemic.NewTCPPeerWith(2, srv.Addr(), epidemic.TCPPeerOptions{Stats: stats})
	defer peer.Close()
	if _, err := peer.AntiEntropy(cfg, local, nil); err != nil {
		b.Fatal(err)
	}
	before := stats.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := peer.AntiEntropy(cfg, local, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := stats.Snapshot()
	moved := after.BytesSent + after.BytesReceived - before.BytesSent - before.BytesReceived
	b.ReportMetric(float64(moved)/float64(b.N), "wire_B/op")
}

// BenchmarkRumorPushTCP measures one hot-rumor push round trip over the
// pooled framed session: a single entry and its provenance hop to a peer
// that already knows it (the steady-state "unnecessary contact" every
// rumor eventually dies on).
func BenchmarkRumorPushTCP(b *testing.B) {
	src := epidemic.NewSimulatedClock(1 << 30)
	remote, err := epidemic.NewNode(epidemic.NodeConfig{Site: 2, Clock: src.ClockAt(2)})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := epidemic.ServeTCP(remote, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	peer := epidemic.NewTCPPeer(2, srv.Addr())
	defer peer.Close()
	entries := []epidemic.Entry{{
		Key: "rumor", Value: epidemic.Value("v"),
		Stamp: epidemic.Timestamp{Time: 1 << 30, Site: 1, Seq: 1},
	}}
	// Warm-up delivers the entry and opens the session the loop reuses.
	if _, err := peer.PushRumors(entries, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := peer.PushRumors(entries, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchangePeelBackMismatch is the O(δ) acceptance benchmark: a
// 10 000-entry database with 10 fresh divergences per conversation must
// reconcile by shipping a few peel batches — entries_moved/op ≪ store
// size — never by swapping full databases.
func BenchmarkExchangePeelBackMismatch(b *testing.B) {
	src := epidemic.NewSimulatedClock(1 << 30)
	remote, err := epidemic.NewNode(epidemic.NodeConfig{Site: 2, Clock: src.ClockAt(2)})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := epidemic.ServeTCP(remote, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	local := epidemic.NewStore(1, src.ClockAt(1))
	const shared, delta = 10_000, 10
	for i := 0; i < shared; i++ {
		e := local.Update(fmt.Sprintf("k%05d", i), epidemic.Value("v"))
		remote.Store().Apply(e)
		src.Advance(1)
	}
	cfg := epidemic.ResolveConfig{
		Mode: epidemic.PushPull, Strategy: epidemic.CompareRecent,
		Tau: 10, Tau1: 1 << 40, BatchSize: 64,
	}
	peer := epidemic.NewTCPPeer(2, srv.Addr())
	defer peer.Close()
	if _, err := peer.AntiEntropy(cfg, local, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	moved := 0
	for i := 0; i < b.N; i++ {
		for j := 0; j < delta; j++ {
			local.Update(fmt.Sprintf("diff%08d", i*delta+j), epidemic.Value("new"))
		}
		src.Advance(50) // push the divergence outside the recent window
		st, err := peer.AntiEntropy(cfg, local, nil)
		if err != nil {
			b.Fatal(err)
		}
		if st.FullCompare {
			b.Fatal("peel-back degraded to a full database swap")
		}
		moved += st.Transferred()
	}
	b.ReportMetric(float64(moved)/float64(b.N), "entries_moved/op")
	b.ReportMetric(shared, "store_entries")
}

// --- deep-divergence benchmarks: shard-vector vs global peel-back ---

// benchDeepDivergence reconciles delta old-stamped entries buried under n
// newer shared entries. The global peel-back walk must re-examine all n
// newer records newest-first before it reaches the divergence; the
// shard-vector path localizes the mismatch to the handful of diverged
// buckets and walks only those, examining O(delta + n/shards) records per
// conversation. The global rows give the local store one shard: the pair
// folds to one bucket, whose walk is the whole store's.
func benchDeepDivergence(b *testing.B, n, delta int, shardVec bool) {
	const shards = 256
	src := epidemic.NewSimulatedClock(1 << 30)
	remote, err := epidemic.NewNode(epidemic.NodeConfig{
		Site: 2, Clock: src.ClockAt(2), StoreShards: shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := epidemic.ServeTCP(remote, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	localShards := shards
	if !shardVec {
		localShards = 1
	}
	local := epidemic.NewShardedStore(1, src.ClockAt(1), localShards)
	for i := 0; i < n; i++ {
		e := local.Update(fmt.Sprintf("k%07d", i), epidemic.Value("v"))
		remote.Store().Apply(e)
		src.Advance(1)
	}
	src.Advance(100) // the shared history ages out of the recent window

	cfg := epidemic.ResolveConfig{
		Mode: epidemic.PushPull, Strategy: epidemic.CompareRecent,
		Tau: 10, Tau1: 1 << 40, BatchSize: 64,
	}
	opts := epidemic.TCPPeerOptions{}
	if !shardVec {
		// The global walk has to peel all the way down to the divergence
		// without tripping the capped full-swap last resort.
		opts.MaxPeelRounds = 1 << 20
	}
	peer := epidemic.NewTCPPeerWith(2, srv.Addr(), opts)
	defer peer.Close()
	if _, err := peer.AntiEntropy(cfg, local, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	moved, seq := 0, 0
	for i := 0; i < b.N; i++ {
		// Divergence stamped far older than the shared history, so it sits
		// at the bottom of the newest-first timestamp index. Earlier
		// iterations' entries carry still-older stamps and stay below it.
		for j := 0; j < delta; j++ {
			seq++
			local.Apply(epidemic.Entry{
				Key:   fmt.Sprintf("old%09d", seq),
				Value: epidemic.Value("deep"),
				Stamp: epidemic.Timestamp{Time: 100 + int64(seq), Site: 3, Seq: uint32(seq)},
			})
		}
		st, err := peer.AntiEntropy(cfg, local, nil)
		if err != nil {
			b.Fatal(err)
		}
		if st.FullCompare {
			b.Fatal("deep divergence degraded to a full database swap")
		}
		// Both row families repair on the bucket path: the shard-vector
		// rows some of 256 buckets, the global rows the one bucket of 1.
		if st.ShardsRepaired == 0 || (!shardVec && st.ShardsRepaired != 1) {
			b.Fatalf("repaired %d buckets (shard-vector rows: %v)", st.ShardsRepaired, shardVec)
		}
		moved += st.Transferred()
	}
	b.ReportMetric(float64(moved)/float64(b.N), "entries_moved/op")
	b.ReportMetric(float64(n), "store_entries")
}

func benchDeepDivergenceGrid(b *testing.B, shardVec bool) {
	for _, n := range []int{10_000, 100_000} {
		for _, delta := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("n%d_d%d", n, delta), func(b *testing.B) {
				benchDeepDivergence(b, n, delta, shardVec)
			})
		}
	}
}

// BenchmarkDeepDivergenceShardVec repairs through the shard vector: one
// S x 8-byte vector round trip, then only diverged shards.
func BenchmarkDeepDivergenceShardVec(b *testing.B) { benchDeepDivergenceGrid(b, true) }

// BenchmarkDeepDivergenceGlobal is the baseline: the walk of bucket 0 of
// 1, a merge over the whole timestamp index.
func BenchmarkDeepDivergenceGlobal(b *testing.B) { benchDeepDivergenceGrid(b, false) }

// latencyPeer models a remote mailbox reached over a link with fixed
// request latency: every MailBatch costs one round trip. Only the mail
// surface matters to the fan-out bench; the gossip methods are inert.
type latencyPeer struct {
	id    epidemic.SiteID
	delay time.Duration
	mails atomic.Int64
}

func (p *latencyPeer) ID() epidemic.SiteID { return p.id }

func (p *latencyPeer) AntiEntropy(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer) (core.ExchangeStats, error) {
	return core.ExchangeStats{}, nil
}

func (p *latencyPeer) PushRumors(entries []store.Entry, hops []trace.Hop) ([]bool, error) {
	return make([]bool, len(entries)), nil
}

func (p *latencyPeer) OfferRumors(ids []store.Entry) ([]bool, []store.Entry, []trace.Hop, error) {
	return make([]bool, len(ids)), nil, nil, nil
}

func (p *latencyPeer) Checksum(tau1 int64) (uint64, error) { return 0, nil }

func (p *latencyPeer) MailBatch(mb epidemic.MailBatch) error {
	time.Sleep(p.delay)
	p.mails.Add(int64(len(mb.Entries)))
	return nil
}

// benchDirectMailFanout times one direct-mailed Update reaching `peers`
// mailboxes a fixed 1ms link apart through a started node's outbox: eight
// workers drain the peer queues. The timed region covers the enqueue plus
// a flush, so the engine gets no credit for work it merely deferred. slow
// makes one peer a 50ms straggler.
func benchDirectMailFanout(b *testing.B, peers int, slow bool) {
	n, err := epidemic.NewNode(epidemic.NodeConfig{
		Site:               1,
		DirectMailOnUpdate: true,
		Outbox: epidemic.OutboxConfig{
			Workers:      8,
			QueuePerPeer: 1 << 20, // never drop: the bench measures fan-out, not shedding
			FlushTimeout: time.Minute,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	ps := make([]epidemic.Peer, peers)
	for i := range ps {
		d := time.Millisecond
		if slow && i == 0 {
			d = 50 * time.Millisecond
		}
		ps[i] = &latencyPeer{id: epidemic.SiteID(i + 2), delay: d}
	}
	n.SetPeers(ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Update(fmt.Sprintf("fanout-%d", i), epidemic.Value("v"))
		if !n.FlushMail(time.Minute) {
			b.Fatal("flush timed out")
		}
	}
	b.StopTimer()
	var mails int64
	for _, p := range ps {
		mails += p.(*latencyPeer).mails.Load()
	}
	b.ReportMetric(float64(mails)/float64(b.N), "mails/op")
}

// BenchmarkDirectMailFanout measures the outbox engine across fan-out
// widths, plus a one-straggler variant. The worker pool drains peer queues
// in parallel, so one op costs roughly peers/workers link delays, where
// walking the peers in turn would cost peers x 1ms.
func BenchmarkDirectMailFanout(b *testing.B) {
	for _, peers := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("outbox_p%d", peers), func(b *testing.B) {
			benchDirectMailFanout(b, peers, false)
		})
	}
	b.Run("outbox_p32_slowpeer", func(b *testing.B) {
		benchDirectMailFanout(b, 32, true)
	})
}
