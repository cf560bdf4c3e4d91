package experiments

import (
	"fmt"

	"sqlprogress/internal/core"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/tpch"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Fig3 reproduces Figure 3: the dne estimator tracks TPC-H Query 1 almost
// exactly because the per-driver-tuple work has mu ≈ 2 and tiny variance.
func Fig3(opts Options) Result {
	cat := tpch.Generate(tpch.Config{SF: opts.TPCHScale, Z: opts.Zipf, Seed: opts.Seed})
	op, err := tpch.BuildQuery(cat, 1)
	if err != nil {
		panic(err)
	}
	est := 2 * cat.Cardinality("lineitem")
	series, m, err := runSeries(op, sampleEvery(est, opts), core.Dne{})
	if err != nil {
		panic(err)
	}
	pts := series["dne"]
	return Result{
		ID:      "fig3",
		Title:   "The dne estimator for TPCH Query 1",
		Headers: []string{"actual", "dne"},
		Rows:    seriesRows([]string{"dne"}, series),
		Notes: []string{
			fmt.Sprintf("mu = %.3f (paper: 1.989 at 1GB/z=2)", m.Mu()),
			fmt.Sprintf("max abs error = %s, avg abs error = %s (paper: dne almost exactly accurate)",
				pct(core.MaxAbsError(pts)), pct(core.AvgAbsError(pts))),
		},
		Metrics: map[string]float64{
			"mu":          m.Mu(),
			"dne_max_err": core.MaxAbsError(pts),
			"dne_avg_err": core.AvgAbsError(pts),
		},
	}
}

// Fig4 reproduces Figure 4: with the high-fanout tuples arriving first, dne
// substantially underestimates while pmax stays within mu of the truth.
func Fig4(opts Options) Result {
	j, total := synthINL(opts, datagen.OrderSkewFirst)
	series, m, err := runSeries(j, sampleEvery(total, opts), core.Dne{}, core.Pmax{})
	if err != nil {
		panic(err)
	}
	return Result{
		ID:      "fig4",
		Title:   "pmax vs dne",
		Headers: []string{"actual", "dne", "pmax"},
		Rows:    seriesRows([]string{"dne", "pmax"}, series),
		Notes: []string{
			fmt.Sprintf("mu = %.3f", m.Mu()),
			fmt.Sprintf("dne max abs error = %s (underestimates)", pct(core.MaxAbsError(series["dne"]))),
			fmt.Sprintf("pmax max abs error = %s, max ratio error = %.3f (Theorem 5 bound: mu)",
				pct(core.MaxAbsError(series["pmax"])), core.MaxRatioError(series["pmax"])),
		},
		Metrics: map[string]float64{
			"mu":             m.Mu(),
			"dne_max_err":    core.MaxAbsError(series["dne"]),
			"pmax_max_err":   core.MaxAbsError(series["pmax"]),
			"pmax_ratio_err": core.MaxRatioError(series["pmax"]),
		},
	}
}

// Fig5 reproduces Figure 5: with the heaviest tuple last (the worst-case
// order), dne overestimates hugely near the end; safe accounts for the
// possibility and stays closer.
func Fig5(opts Options) Result {
	j, total := synthINL(opts, datagen.OrderSkewLast)
	series, _, err := runSeries(j, sampleEvery(total, opts), core.Dne{}, core.Safe{})
	if err != nil {
		panic(err)
	}
	return Result{
		ID:      "fig5",
		Title:   "worst-case order",
		Headers: []string{"actual", "dne", "safe"},
		Rows:    seriesRows([]string{"dne", "safe"}, series),
		Notes: []string{
			fmt.Sprintf("dne max abs error = %s (paper: 49.5%%)", pct(core.MaxAbsError(series["dne"]))),
			fmt.Sprintf("safe max abs error = %s (paper: 25.2%%)", pct(core.MaxAbsError(series["safe"]))),
		},
		Metrics: map[string]float64{
			"dne_max_err":  core.MaxAbsError(series["dne"]),
			"safe_max_err": core.MaxAbsError(series["safe"]),
		},
	}
}

// Tab1 reproduces Table 1: every estimator's error improves markedly when
// the index-nested-loops plan is replaced by a scan-based (hash) plan over
// the same data and the same worst-case order.
func Tab1(opts Options) Result {
	ests := func() []core.Estimator {
		return []core.Estimator{core.Dne{}, core.Pmax{}, core.Safe{}}
	}
	inl, totalINL := synthINL(opts, datagen.OrderSkewLast)
	inlSeries, _, err := runSeries(inl, sampleEvery(totalINL, opts), ests()...)
	if err != nil {
		panic(err)
	}
	hash, totalHash := synthHash(opts, datagen.OrderSkewLast)
	hashSeries, _, err := runSeries(hash, sampleEvery(totalHash, opts), ests()...)
	if err != nil {
		panic(err)
	}
	paper := map[string][4]string{
		"dne":  {"49.50%", "19.20%", "24.74%", "7.37%"},
		"pmax": {"49.50%", "19.20%", "24.74%", "9.04%"},
		"safe": {"25.2%", "8.2%", "14.8%", "4.2%"},
	}
	var rows [][]string
	for _, name := range []string{"dne", "pmax", "safe"} {
		rows = append(rows, []string{
			name,
			pct(core.MaxAbsError(inlSeries[name])),
			pct(core.MaxAbsError(hashSeries[name])),
			pct(core.AvgAbsError(inlSeries[name])),
			pct(core.AvgAbsError(hashSeries[name])),
			fmt.Sprintf("paper: %s / %s / %s / %s", paper[name][0], paper[name][1], paper[name][2], paper[name][3]),
		})
	}
	metrics := map[string]float64{}
	for _, name := range []string{"dne", "pmax", "safe"} {
		metrics[name+"_max_inl"] = core.MaxAbsError(inlSeries[name])
		metrics[name+"_max_hash"] = core.MaxAbsError(hashSeries[name])
		metrics[name+"_avg_inl"] = core.AvgAbsError(inlSeries[name])
		metrics[name+"_avg_hash"] = core.AvgAbsError(hashSeries[name])
	}
	return Result{
		ID:      "tab1",
		Title:   "Impact of Scan-based Plan",
		Headers: []string{"estimator", "max(INL)", "max(Hash)", "avg(INL)", "avg(Hash)", "paper max(INL)/max(Hash)/avg(INL)/avg(Hash)"},
		Rows:    rows,
		Metrics: metrics,
	}
}

// Fig6 reproduces Figure 6: pmax's ratio error over the execution of the
// multi-subquery TPC-H Q21, decaying toward 1 as the cardinality bounds are
// refined.
func Fig6(opts Options) Result {
	cat := tpch.Generate(tpch.Config{SF: opts.TPCHScale, Z: opts.Zipf, Seed: opts.Seed})
	op, err := tpch.BuildQuery(cat, 21)
	if err != nil {
		panic(err)
	}
	est := 6 * cat.Cardinality("lineitem")
	series, m, err := runSeries(op, sampleEvery(est, opts), core.Pmax{})
	if err != nil {
		panic(err)
	}
	ratios := core.RatioErrors(series["pmax"])
	rows := make([][]string, len(ratios))
	for i, rp := range ratios {
		rows[i] = []string{f3(rp.Actual), f3(rp.Ratio)}
	}
	return Result{
		ID:      "fig6",
		Title:   "Ratio error of pmax over query execution (TPC-H Q21)",
		Headers: []string{"actual", "ratio_error"},
		Rows:    rows,
		Notes: []string{
			fmt.Sprintf("mu = %.3f (paper: 2.782)", m.Mu()),
			fmt.Sprintf("ratio error after 50%% of execution = %.3f (paper: ~1.5 after ~30%%)",
				core.RatioErrorAfter(series["pmax"], 0.5)),
			fmt.Sprintf("ratio error after 90%% = %.3f (converges to 1)",
				core.RatioErrorAfter(series["pmax"], 0.9)),
		},
		Metrics: map[string]float64{
			"mu":            m.Mu(),
			"ratio_at_50pc": core.RatioErrorAfter(series["pmax"], 0.5),
			"ratio_at_90pc": core.RatioErrorAfter(series["pmax"], 0.9),
		},
	}
}

// Fig7 reproduces Figure 7: an additional predicate filters out the
// high-skew tuples, the per-tuple variance collapses, dne becomes almost
// exact — and worst-case-optimal safe is the one left with a visible error.
func Fig7(opts Options) Result {
	j, total := synthINLFiltered(opts, datagen.OrderSkewLast)
	series, _, err := runSeries(j, sampleEvery(total, opts), core.Dne{}, core.Safe{})
	if err != nil {
		panic(err)
	}
	return Result{
		ID:      "fig7",
		Title:   "safe vs. dne (favourable case)",
		Headers: []string{"actual", "dne", "safe"},
		Rows:    seriesRows([]string{"dne", "safe"}, series),
		Notes: []string{
			fmt.Sprintf("dne max abs error = %s (paper: almost exactly accurate)", pct(core.MaxAbsError(series["dne"]))),
			fmt.Sprintf("safe error at end = %s (paper: off by ~20%% at the end)", pct(core.FinalAbsError(series["safe"]))),
		},
		Metrics: map[string]float64{
			"dne_max_err":    core.MaxAbsError(series["dne"]),
			"safe_final_err": core.FinalAbsError(series["safe"]),
		},
	}
}

// --- synthetic plan constructors -------------------------------------------------

// synthINL builds scan(R1, order) -> INL-join(index on R2.B), the paper's
// Figure 2 plan over the zipf pair. The join is linear (R1.A is a key).
func synthINL(opts Options, order datagen.OrderKind) (exec.Operator, int64) {
	pair := datagen.NewSkewPair(opts.SynthRows, int64(opts.SynthRows), opts.Zipf, opts.Seed)
	cat := pairCatalog(pair)
	b := plan.NewBuilder(cat)
	n := b.ScanOrdered("r1", pair.Order(order, opts.Seed+1)).
		INLJoin("r2", "b", "a", exec.InnerJoin)
	return n.Op, int64(opts.SynthRows) * 2
}

// synthHash builds the Example 3 variant: hash join with R1 as the build
// side, R2 probing — the scan-based plan of Section 5.4.
func synthHash(opts Options, order datagen.OrderKind) (exec.Operator, int64) {
	pair := datagen.NewSkewPair(opts.SynthRows, int64(opts.SynthRows), opts.Zipf, opts.Seed)
	cat := pairCatalog(pair)
	b := plan.NewBuilder(cat)
	build := b.ScanOrdered("r1", pair.Order(order, opts.Seed+1))
	probe := b.Scan("r2")
	n := probe.HashJoin(build, "b", "a", exec.InnerJoin)
	return n.Op, int64(opts.SynthRows) * 3
}

// synthINLFiltered is the Figure 7 variant: an embedded predicate on R1
// removes the high-skew keys before the join, collapsing the per-tuple
// variance.
func synthINLFiltered(opts Options, order datagen.OrderKind) (exec.Operator, int64) {
	pair := datagen.NewSkewPair(opts.SynthRows, int64(opts.SynthRows), opts.Zipf, opts.Seed)
	cat := pairCatalog(pair)
	b := plan.NewBuilder(cat)
	// Keys are ranked by fan-out (key 0 heaviest); drop the top 1%.
	cut := int64(opts.SynthRows / 100)
	if cut < 1 {
		cut = 1
	}
	n := b.ScanFilteredOrdered("r1", pair.Order(order, opts.Seed+1), 0.99,
		func(s *schema.Schema) expr.Expr {
			return expr.Compare(expr.GE, expr.NewCol(s, "", "a"), expr.Literal(sqlval.Int(cut)))
		}).
		INLJoin("r2", "b", "a", exec.InnerJoin)
	return n.Op, int64(opts.SynthRows) * 2
}

// pairCatalog registers a SkewPair in a fresh catalog with R1.A declared
// unique (it is), which makes the INL join provably linear.
func pairCatalog(pair *datagen.SkewPair) *catalog.Catalog {
	cat := catalog.New(nil)
	cat.AddRelation(pair.R1)
	cat.AddRelation(pair.R2)
	cat.DeclareUnique("r1", "a")
	return cat
}
