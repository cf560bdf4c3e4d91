package sqlprogress

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sqlprogress/internal/core"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/experiments"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/tpch"
)

// The paper-reproduction benchmarks: one per table and figure of the
// evaluation section. Each runs the corresponding experiment at the default
// scale and reports its headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation. Absolute wall-clock is the engine's;
// the reported metrics are the paper's quantities (errors are fractions of
// total progress, ratios are ratio errors, mu is the paper's mu).

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("no experiment %q", id)
	}
	opts := experiments.Defaults()
	var last experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = e.Run(opts)
	}
	b.StopTimer()
	keys := make([]string, 0, len(last.Metrics))
	for k := range last.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		// testing.B rejects units with whitespace; normalize workload
		// labels like "zipf z=2".
		unit := strings.NewReplacer(" ", "_", "=", "").Replace(k)
		b.ReportMetric(last.Metrics[k], unit)
	}
}

// BenchmarkFig3DneTPCHQ1 regenerates Figure 3 (dne on TPC-H Q1).
func BenchmarkFig3DneTPCHQ1(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4PmaxVsDne regenerates Figure 4 (skew-first order).
func BenchmarkFig4PmaxVsDne(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5SafeVsDneWorstCase regenerates Figure 5 (skew-last order).
func BenchmarkFig5SafeVsDneWorstCase(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkTable1ScanBasedPlans regenerates Table 1 (INL vs hash).
func BenchmarkTable1ScanBasedPlans(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkFig6PmaxQ21 regenerates Figure 6 (pmax ratio error decay).
func BenchmarkFig6PmaxQ21(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7SafeVsDneGoodCase regenerates Figure 7 (favourable case).
func BenchmarkFig7SafeVsDneGoodCase(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTable2TPCHMu regenerates Table 2 (mu for TPC-H Q1–Q21).
func BenchmarkTable2TPCHMu(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkTable3SkyServerMu regenerates Table 3 (mu for SkyServer).
func BenchmarkTable3SkyServerMu(b *testing.B) { benchExperiment(b, "tab3") }

// BenchmarkThm1LowerBound regenerates the Theorem 1 construction.
func BenchmarkThm1LowerBound(b *testing.B) { benchExperiment(b, "thm1") }

// BenchmarkThm3RandomOrders regenerates the Theorem 3 measurement.
func BenchmarkThm3RandomOrders(b *testing.B) { benchExperiment(b, "thm3") }

// BenchmarkThm4PredictiveOrders regenerates the Theorem 4 measurement.
func BenchmarkThm4PredictiveOrders(b *testing.B) { benchExperiment(b, "thm4") }

// --- engine micro-benchmarks and ablations -----------------------------------------

// synthPlan builds the Section 5 INL plan for overhead measurements.
func synthPlan(n int) exec.Operator {
	pair := datagen.NewSkewPair(n, int64(n), 2, 1)
	db := Open()
	db.Catalog().AddRelation(pair.R1)
	db.Catalog().AddRelation(pair.R2)
	db.DeclareUnique("r1", "a")
	b := plan.NewBuilder(db.Catalog())
	return b.Scan("r1").INLJoin("r2", "b", "a", exec.InnerJoin).Op
}

// BenchmarkExecINLJoinNoMonitor measures raw executor throughput (the
// baseline for monitoring-overhead ablations).
func BenchmarkExecINLJoinNoMonitor(b *testing.B) {
	const n = 20_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		op := synthPlan(n)
		b.StartTimer()
		if _, err := exec.Run(exec.NewCtx(), op); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*n), "getnext/op")
}

// BenchmarkExecINLJoinBatch is BenchmarkExecINLJoinNoMonitor on the
// vectorized engine: the workload TestINLJoinBatchAllocs holds to its
// allocation budget.
func BenchmarkExecINLJoinBatch(b *testing.B) {
	const n = 20_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		op := synthPlan(n)
		b.StartTimer()
		if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
			b.Fatal(err)
		}
	}
}

// TestINLJoinBatchAllocs holds the batch engine's allocation discipline
// (arena, slab storage, dense index, result collection) on the 20k-row INL
// plan to a fixed budget. The count is deterministic for this plan, so any
// growth past the limit is a real regression. Plan building is outside the
// measurement.
func TestINLJoinBatchAllocs(t *testing.T) {
	const (
		rows  = 20_000
		runs  = 5
		limit = 100 // allocs per RunBatch
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		op := synthPlan(rows)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	got := total / runs
	t.Logf("RunBatch over the %d-row INL plan: %d allocs/op (limit %d)", rows, got, limit)
	if got > limit {
		t.Fatalf("allocs/op %d exceeds the limit %d", got, limit)
	}
}

// TestMonitorRecordAllocsPerSample holds the recording trigger's cost: a
// call-count monitor recording its samples over the 20k-row INL plan may
// allocate at most maxPerSample times per sample (each sample's Estimates
// slice plus the amortized growth of Samples), plus a slack of 8 for stray
// runtime allocations. It is measured as the difference between a run
// sampling every 10 calls and one recording only its at-EOF sample. Before
// the sampling drivers were folded into one Monitor, this run made 4,013
// extra allocations over 3,999 extra samples: 1.004 per sample.
// TestRunWithProgressAllocsPerUpdate guards the delivery path the same way.
func TestMonitorRecordAllocsPerSample(t *testing.T) {
	const (
		rows         = 20_000
		maxPerSample = 1.004
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The fewest of three runs, so stray allocations elsewhere in the
	// process do not count against the sampler.
	measure := func(every int64) (allocs uint64, samples int) {
		for i := 0; i < 3; i++ {
			m := core.NewMonitor(synthPlan(rows), every, core.Dne{}, core.Pmax{}, core.Safe{})
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			if got := ms.Mallocs - before; i == 0 || got < allocs {
				allocs = got
			}
			samples = len(m.Samples)
		}
		return allocs, samples
	}
	dense, n := measure(10)
	sparse, one := measure(1 << 40)
	if one != 1 || n < 1000 {
		t.Fatalf("recorded %d dense and %d sparse samples; want at least 1000 and 1", n, one)
	}
	extra := float64(dense) - float64(sparse)
	t.Logf("%d samples: %d allocs sampled, %d unsampled, %.3f per sample", n, dense, sparse, extra/float64(n-one))
	if extra > maxPerSample*float64(n-one)+8 {
		t.Fatalf("%.3f allocations per recorded sample, want at most %.3f", extra/float64(n-one), maxPerSample)
	}
}

// BenchmarkMonitorOverhead measures the cost of call-count progress monitoring
// at several sampling periods — the ablation for "how often can we afford
// to estimate". The per-sample cost is one incremental bounds pass.
func BenchmarkMonitorOverhead(b *testing.B) {
	const n = 20_000
	for _, every := range []int64{100, 1_000, 10_000} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				op := synthPlan(n)
				m := core.NewMonitor(op, every, core.Dne{}, core.Pmax{}, core.Safe{})
				b.StartTimer()
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClockMonitorOverhead measures executor throughput with the
// wall-clock trigger sampling from its own goroutine: the execution
// goroutine pays only the atomic counter updates, so this should sit within
// noise of the no-monitor baseline regardless of sampling frequency.
func BenchmarkClockMonitorOverhead(b *testing.B) {
	const n = 20_000
	for _, interval := range []time.Duration{100 * time.Microsecond, time.Millisecond} {
		b.Run(fmt.Sprintf("interval=%s", interval), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				op := synthPlan(n)
				m := core.NewClockMonitor(op, interval, core.Dne{}, core.Pmax{}, core.Safe{})
				b.StartTimer()
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoundsPass measures one cardinality-bounds computation over a
// deep plan (the per-sample cost driver) on the incremental path every
// sample actually takes: a prebuilt BoundsEvaluator folding in the runtime
// counters. Must report 0 allocs/op.
func BenchmarkBoundsPass(b *testing.B) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	op, err := tpch.BuildQuery(cat, 21)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := exec.Run(exec.NewCtx(), op); err != nil {
		b.Fatal(err)
	}
	ev := core.NewBoundsEvaluator(op)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Compute()
	}
}

// BenchmarkBoundsPassFullWalk measures the non-incremental reference
// implementation (rebuilds maps and slices per pass) for the trajectory
// record; the incremental/full ratio is the tentpole speedup.
func BenchmarkBoundsPassFullWalk(b *testing.B) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	op, err := tpch.BuildQuery(cat, 21)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := exec.Run(exec.NewCtx(), op); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeBounds(op)
	}
}

// BenchmarkCompileSQL measures SQL front-end latency.
func BenchmarkCompileSQL(b *testing.B) {
	db := OpenTPCH(0.001, 2, 1)
	const sql = `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
		AVG(l_extendedprice) AS avg_price, COUNT(*) AS cnt
		FROM lineitem WHERE l_shipdate <= DATE '1998-09-01'
		GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoinThroughput measures the scan-based join path the paper's
// Section 5.4 favours.
func BenchmarkHashJoinThroughput(b *testing.B) {
	pair := datagen.NewSkewPair(20_000, 20_000, 2, 1)
	db := Open()
	db.Catalog().AddRelation(pair.R1)
	db.Catalog().AddRelation(pair.R2)
	db.DeclareUnique("r1", "a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pb := plan.NewBuilder(db.Catalog())
		op := pb.Scan("r2").HashJoin(pb.Scan("r1"), "b", "a", exec.InnerJoin).Op
		b.StartTimer()
		if _, err := exec.Run(exec.NewCtx(), op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDemandCapAblation quantifies the demand-capping bounds
// refinement (core.BoundsOptions) on an ORDER BY ... LIMIT plan: it reports
// the initial UB/LB ratio — which bounds safe's worst-case error as
// sqrt(UB/LB) — with and without the refinement.
func BenchmarkDemandCapAblation(b *testing.B) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	build := func() exec.Operator {
		op, err := tpch.BuildQuery(cat, 10) // customer/orders/lineitem join, top 20
		if err != nil {
			b.Fatal(err)
		}
		return op
	}
	var withCap, withoutCap core.BoundsSnapshot
	for i := 0; i < b.N; i++ {
		op := build()
		withCap = core.ComputeBounds(op)
		withoutCap = core.ComputeBoundsOpt(op, core.BoundsOptions{DisableDemandCap: true})
	}
	b.ReportMetric(float64(withCap.UB)/float64(withCap.LB), "ub/lb_capped")
	b.ReportMetric(float64(withoutCap.UB)/float64(withoutCap.LB), "ub/lb_uncapped")
}
