package experiments

import (
	"strconv"
	"strings"
	"testing"

	"sqlprogress/internal/core"
)

// runFast executes one experiment at the fast scale.
func runFast(t *testing.T, id string) Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	return e.Run(Fast())
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestAllRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig3", "fig4", "fig5", "tab1", "fig6", "fig7", "tab2", "tab3", "pager", "thm1", "thm4"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID should miss unknown ids")
	}
}

func TestFig3DneNearlyExact(t *testing.T) {
	r := runFast(t, "fig3")
	if len(r.Rows) == 0 {
		t.Fatal("no series")
	}
	// Paper: dne almost exactly accurate for Q1. Check the series directly.
	for _, row := range r.Rows {
		actual, est := parseF(t, row[0]), parseF(t, row[1])
		if diff := actual - est; diff > 0.06 || diff < -0.06 {
			t.Errorf("dne deviates at actual=%.3f: est=%.3f", actual, est)
		}
	}
}

func TestFig4DneUnderestimatesPmaxBounded(t *testing.T) {
	r := runFast(t, "fig4")
	var worstDneUnder float64
	for _, row := range r.Rows {
		actual, dne, pmax := parseF(t, row[0]), parseF(t, row[1]), parseF(t, row[2])
		if under := actual - dne; under > worstDneUnder {
			worstDneUnder = under
		}
		if pmax < actual-1e-9 {
			t.Errorf("pmax %.3f below actual %.3f (violates Property 4)", pmax, actual)
		}
	}
	if worstDneUnder < 0.2 {
		t.Errorf("dne max underestimate = %.3f, expected the Figure 4 collapse (>0.2)", worstDneUnder)
	}
}

func TestFig5SafeBeatsDne(t *testing.T) {
	r := runFast(t, "fig5")
	var dneMax, safeMax float64
	for _, row := range r.Rows {
		actual, dne, safe := parseF(t, row[0]), parseF(t, row[1]), parseF(t, row[2])
		if d := abs(dne - actual); d > dneMax {
			dneMax = d
		}
		if d := abs(safe - actual); d > safeMax {
			safeMax = d
		}
	}
	if safeMax >= dneMax {
		t.Errorf("safe max err %.3f should beat dne %.3f on the worst-case order", safeMax, dneMax)
	}
}

func TestTab1ScanBasedPlansImproveEveryEstimator(t *testing.T) {
	r := runFast(t, "tab1")
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		name := row[0]
		maxINL, maxHash := parsePct(t, row[1]), parsePct(t, row[2])
		avgINL, avgHash := parsePct(t, row[3]), parsePct(t, row[4])
		if maxHash >= maxINL {
			t.Errorf("%s: max error should improve with the hash plan (%.2f%% -> %.2f%%)", name, maxINL, maxHash)
		}
		if avgHash >= avgINL {
			t.Errorf("%s: avg error should improve with the hash plan (%.2f%% -> %.2f%%)", name, avgINL, avgHash)
		}
	}
	// Paper's ordering under INL: safe's max error is the smallest.
	safeMax := parsePct(t, r.Rows[2][1])
	dneMax := parsePct(t, r.Rows[0][1])
	if safeMax >= dneMax {
		t.Errorf("safe INL max %.2f%% should beat dne %.2f%%", safeMax, dneMax)
	}
}

func TestFig6ErrorDecays(t *testing.T) {
	r := runFast(t, "fig6")
	if len(r.Rows) < 10 {
		t.Fatalf("series too short: %d", len(r.Rows))
	}
	first := parseF(t, r.Rows[1][1])
	last := parseF(t, r.Rows[len(r.Rows)-1][1])
	if last >= first {
		t.Errorf("pmax ratio error should decay: first %.3f, last %.3f", first, last)
	}
	if last > 1.1 {
		t.Errorf("pmax final ratio error = %.3f, want ≈1", last)
	}
}

func TestFig7DneExactSafeOff(t *testing.T) {
	r := runFast(t, "fig7")
	var dneMax, safeFinal float64
	for _, row := range r.Rows {
		actual, dne, safe := parseF(t, row[0]), parseF(t, row[1]), parseF(t, row[2])
		if d := abs(dne - actual); d > dneMax {
			dneMax = d
		}
		// Series end with the at-EOF sample where every constrained
		// estimator reads exactly 1.0; the paper's "off at the end" is the
		// last instant strictly before completion.
		if actual < 1 {
			safeFinal = abs(safe - actual)
		}
	}
	if dneMax > 0.05 {
		t.Errorf("dne max err = %.3f, should be almost exact in the favourable case", dneMax)
	}
	if safeFinal < 0.1 {
		t.Errorf("safe final err = %.3f, paper reports ~20%% — safe should be visibly off", safeFinal)
	}
}

func TestTab2MuValues(t *testing.T) {
	r := runFast(t, "tab2")
	if len(r.Rows) != 21 {
		t.Fatalf("rows = %d, want 21", len(r.Rows))
	}
	small := 0
	for _, row := range r.Rows {
		mu := parseF(t, row[1])
		if mu < 1 || mu > 5 {
			t.Errorf("Q%s: mu = %.3f implausible", row[0], mu)
		}
		if mu < 1.5 {
			small++
		}
	}
	if small < 14 {
		t.Errorf("only %d/21 queries have mu < 1.5; the paper's point is such cases dominate", small)
	}
}

func TestTab3MuValues(t *testing.T) {
	r := runFast(t, "tab3")
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(r.Rows))
	}
	for _, row := range r.Rows {
		mu := parseF(t, row[1])
		if mu < 1 || mu > 2.5 {
			t.Errorf("skyserver %s: mu = %.3f outside Table 3's band", row[0], mu)
		}
	}
}

func TestThm1Indistinguishability(t *testing.T) {
	r := runFast(t, "thm1")
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var safeWorst float64
	worsts := map[string]float64{}
	for _, row := range r.Rows {
		diff := parseF(t, row[5])
		if diff > 1e-9 {
			t.Errorf("%s: estimates differ between twin instances by %g", row[0], diff)
		}
		worsts[row[0]] = parseF(t, row[4])
		if row[0] == "safe" {
			safeWorst = parseF(t, row[4])
		}
	}
	for name, w := range worsts {
		if name == "safe" {
			continue
		}
		if safeWorst > w+1e-9 {
			t.Errorf("safe worst-case %.3f exceeds %s's %.3f; safe should be worst-case optimal here", safeWorst, name, w)
		}
	}
	// The construction forces a real gap: every estimator suffers ratio
	// error > 2 somewhere.
	for name, w := range worsts {
		if w < 2 {
			t.Errorf("%s: worst ratio error %.3f — construction should force > 2", name, w)
		}
	}
}

// TestPagerColdWorseThanWarm pins the I/O-bound scenario's headline: on
// the same query over the same rows, dne's and pmax's max ratio errors
// against a cold buffer pool measurably exceed their warm-pool errors —
// page-weighted GetNext units break the call-uniformity the estimators
// lean on — while pmax stays within its Theorem 5 bound (ratio ≤ mu) in
// both regimes.
func TestPagerColdWorseThanWarm(t *testing.T) {
	r := runFast(t, "pager")
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 queries x 2 cache regimes)", len(r.Rows))
	}
	for _, q := range []string{"scan", "hash-join-agg"} {
		for _, est := range []string{"dne", "pmax"} {
			cold := r.Metrics[q+"_cold_"+est]
			warm := r.Metrics[q+"_warm_"+est]
			if cold <= warm+0.01 {
				t.Errorf("%s: %s cold ratio %.3f should measurably exceed warm %.3f", q, est, cold, warm)
			}
		}
		if hr := r.Metrics[q+"_cold_hit_ratio"]; hr > 0.5 {
			t.Errorf("%s: cold hit ratio %.3f — pool should be too small to cache the scan", q, hr)
		}
		if reads := r.Metrics[q+"_warm_reads"]; reads != 0 {
			t.Errorf("%s: warm run performed %v physical reads, want 0", q, reads)
		}
		for _, regime := range []string{"cold", "warm"} {
			pmax, mu := r.Metrics[q+"_"+regime+"_pmax"], r.Metrics[q+"_"+regime+"_mu"]
			if pmax > mu+1e-9 {
				t.Errorf("%s %s: pmax ratio %.3f exceeds mu %.3f (Theorem 5)", q, regime, pmax, mu)
			}
		}
	}
}

func TestThm4FractionAtLeastHalf(t *testing.T) {
	r := runFast(t, "thm4")
	for _, row := range r.Rows {
		frac := parseF(t, row[1])
		if frac < 0.5 {
			t.Errorf("%s: 2-predictive fraction %.3f < 0.5 violates Theorem 4", row[0], frac)
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	r := Result{
		ID: "x", Title: "t",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"note"},
	}
	out := r.Render()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "# note") {
		t.Errorf("render = %q", out)
	}
	csv := r.CSV()
	if csv != "a,bb\n1,2\n" {
		t.Errorf("csv = %q", csv)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// The threshold requirement of Section 2.5, evaluated over the experiment
// series: Figure 3's dne satisfies (tau=0.5, delta=0.05); Figure 5's dne —
// the worst-case order — fails it, exactly the Theorem 1 regime.
func TestThresholdRequirementAcrossScenarios(t *testing.T) {
	toPoints := func(r Result, estCol int) []core.Point {
		var pts []core.Point
		for _, row := range r.Rows {
			pts = append(pts, core.Point{Actual: parseF(t, row[0]), Est: parseF(t, row[estCol])})
		}
		return pts
	}
	fig3 := runFast(t, "fig3")
	if !core.SatisfiesThreshold(toPoints(fig3, 1), 0.5, 0.05) {
		t.Error("fig3: dne should satisfy the threshold requirement on Q1")
	}
	fig5 := runFast(t, "fig5")
	if core.SatisfiesThreshold(toPoints(fig5, 1), 0.5, 0.1) {
		t.Error("fig5: dne should FAIL the threshold requirement under the worst-case order")
	}
	// safe's ratio-error guarantee converts into a threshold guarantee
	// (Section 2.5): with ratio error e, delta = tau*max(1-1/e, e-1).
	fig7 := runFast(t, "fig7")
	dnePts := toPoints(fig7, 1)
	if !core.SatisfiesThreshold(dnePts, 0.5, 0.02) {
		t.Error("fig7: near-exact dne should satisfy a tight threshold")
	}
}

func TestThm3RandomOrderUnbiased(t *testing.T) {
	r := runFast(t, "thm3")
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		uniAbs, zipfSigned := parseF(t, row[1]), parseF(t, row[4])
		if uniAbs > 0.01 {
			t.Errorf("uniform workload should make dne ~exact, |err| = %g", uniAbs)
		}
		if zipfSigned > 0.1 || zipfSigned < -0.1 {
			t.Errorf("dne should be ~unbiased under random orders, signed err = %g", zipfSigned)
		}
	}
	// Near completion the zipf error collapses.
	last := parseF(t, r.Rows[len(r.Rows)-1][3])
	mid := parseF(t, r.Rows[1][3])
	if last >= mid {
		t.Errorf("zipf |err| should collapse near completion: mid %g, final %g", mid, last)
	}
}
