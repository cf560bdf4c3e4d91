package core

import (
	"testing"
	"time"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/tpch"
)

// checkSamples asserts the invariants every recorded series must satisfy,
// whichever trigger took it: Calls strictly increasing, every sample's hard
// bounds straddle total(Q) (the soundness claim for sampling against live
// atomic counters), every estimate within [0, 1], LB never decreasing and UB
// never increasing, and the series ending with the at-EOF sample.
func checkSamples(t *testing.T, label string, m *Monitor) {
	t.Helper()
	total := m.Total()
	if total <= 0 {
		t.Fatalf("%s: total = %d", label, total)
	}
	if len(m.Samples) == 0 {
		t.Fatalf("%s: no samples", label)
	}
	for i, s := range m.Samples {
		if i > 0 {
			prev := m.Samples[i-1]
			if s.Calls <= prev.Calls {
				t.Fatalf("%s: sample %d calls %d not after %d", label, i, s.Calls, prev.Calls)
			}
			if s.LB < prev.LB {
				t.Fatalf("%s: LB decreased at sample %d (%d -> %d)", label, i, prev.LB, s.LB)
			}
			if s.UB > prev.UB {
				t.Fatalf("%s: UB increased at sample %d (%d -> %d)", label, i, prev.UB, s.UB)
			}
		}
		if s.LB > total || s.UB < total {
			t.Fatalf("%s: sample %d bounds [%d,%d] miss total %d", label, i, s.LB, s.UB, total)
		}
		for j, est := range s.Estimates {
			if est < 0 || est > 1 {
				t.Fatalf("%s: sample %d estimator %d = %f out of [0,1]", label, i, j, est)
			}
		}
	}
	last := m.Samples[len(m.Samples)-1]
	if last.Calls != total {
		t.Fatalf("%s: series ends at %d calls, want the at-EOF sample at %d", label, last.Calls, total)
	}
	// At EOF Curr = total >= LB, so pmax clamps to exactly 1.0. (safe and
	// dne may read slightly below 1 when UB has not fully pinned.)
	for j, est := range last.Estimates {
		if m.Estimators[j].Name() == "pmax" && est != 1 {
			t.Fatalf("%s: final pmax = %v, want exactly 1 at EOF", label, est)
		}
	}
}

// TestAsyncMonitorSamplesRunningTPCHPlan is the acceptance test for the
// off-thread trigger: a wall-clock Monitor concurrently samples a running
// TPC-H plan (run under -race in CI). Q21 exercises the worst of the plan
// zoo — semi/anti joins and rescans — while the sampler races the executor.
// The same plan sampled by the call-count trigger at the batch engine's
// quiesce points must satisfy the same checks.
func TestAsyncMonitorSamplesRunningTPCHPlan(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	op, err := tpch.BuildQuery(cat, 21)
	if err != nil {
		t.Fatal(err)
	}
	m := NewClockMonitor(op, 50*time.Microsecond, Dne{}, Pmax{}, Safe{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	checkSamples(t, "tpch-q21", m)

	if op, err = tpch.BuildQuery(cat, 21); err != nil {
		t.Fatal(err)
	}
	m = NewMonitor(op, 500, Dne{}, Pmax{}, Safe{})
	ctx := exec.NewCtx()
	if _, err := exec.RunBatchObserved(ctx, op, m.Hook()); err != nil {
		t.Fatal(err)
	}
	m.Finish(ctx.Calls())
	checkSamples(t, "tpch-q21-quiesce", m)
}

// TestAsyncMonitorFinalSampleAlways: with an interval far longer than the
// query, no periodic tick ever fires — Stop must still record the at-EOF
// observation so the series ends at progress 1.0 (and Series reads it back).
func TestAsyncMonitorFinalSampleAlways(t *testing.T) {
	r1 := intRel("r1", "a", seq(50))
	r2 := intRel("r2", "b", seq(50))
	j, _ := example1Plan(r1, r2, nil, nil, false)
	m := NewClockMonitor(j, time.Hour, Dne{}, Safe{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.Samples) != 1 {
		t.Fatalf("samples = %d, want exactly the final one", len(m.Samples))
	}
	checkSamples(t, "final-only", m)
	pts, err := m.Series("safe")
	if err != nil {
		t.Fatal(err)
	}
	if got := pts[len(pts)-1]; got.Actual != 1 || got.Est != 1 {
		t.Fatalf("final point = %+v, want (1,1)", got)
	}
}

// TestAsyncMonitorStopWithoutStart: Stop before Start must be a no-op.
func TestAsyncMonitorStopWithoutStart(t *testing.T) {
	r := intRel("r", "a", seq(5))
	m := NewClockMonitor(exec.NewScan(r), 0, Dne{})
	m.Stop()
	if len(m.Samples) != 0 {
		t.Fatalf("samples = %d, want 0", len(m.Samples))
	}
}

// TestMonitorFinalSampleAtCompletion: the inline Monitor's Run must append
// the at-EOF sample even when the periodic hook never fires at total(Q), so
// inline series also end at progress 1.0.
func TestMonitorFinalSampleAtCompletion(t *testing.T) {
	r1 := intRel("r1", "a", seq(40))
	r2 := intRel("r2", "b", seq(40))
	j, _ := example1Plan(r1, r2, nil, nil, false)
	m := NewMonitor(j, 1_000_000, Dne{}, Pmax{}, Safe{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.Samples) != 1 {
		t.Fatalf("samples = %d, want exactly the final one", len(m.Samples))
	}
	last := m.Samples[0]
	if last.Calls != m.Total() {
		t.Fatalf("final sample at %d calls, want total %d", last.Calls, m.Total())
	}
	for j, est := range last.Estimates {
		if m.Estimators[j].Name() == "pmax" && est != 1 {
			t.Fatalf("final pmax = %v, want 1", est)
		}
	}
}

// TestMonitorFinalSampleNotDuplicated: when the sampling period divides
// total(Q) exactly, the hook already captured the at-EOF instant and Finish
// must not record it twice.
func TestMonitorFinalSampleNotDuplicated(t *testing.T) {
	r := intRel("r", "a", seq(10))
	sc := exec.NewScan(r)
	m := NewMonitor(sc, 1, Dne{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	total := m.Total()
	if total < 10 {
		t.Fatalf("total = %d, want at least one call per row", total)
	}
	if n := len(m.Samples); int64(n) != total {
		t.Fatalf("samples = %d, want %d (one per call, no duplicate final)", n, total)
	}
	for i := 1; i < len(m.Samples); i++ {
		if m.Samples[i].Calls == m.Samples[i-1].Calls {
			t.Fatalf("duplicate sample at %d calls", m.Samples[i].Calls)
		}
	}
}

// TestAsyncMonitorOnSample: a delivering monitor must hand OnSample every
// sample, in order, including the final at-EOF one, with the tracker still
// holding that sample's capture — it is what lets a serving layer fan live
// estimates and per-node counters out to clients while the query runs.
// Delivery replaces recording.
func TestAsyncMonitorOnSample(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 1})
	op, err := tpch.BuildQuery(cat, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewClockMonitor(op, 50*time.Microsecond, Dne{}, Pmax{}, Safe{})
	shape := m.Tracker().Shape()
	var streamed []Sample
	m.OnSample = func(s Sample) {
		var sum int64
		for i := 0; i < shape.Len(); i++ {
			sum += m.Tracker().Runtime(ledger.NodeID(i)).Returned
		}
		if sum != s.Calls {
			t.Errorf("sample at %d calls: its capture's node counters sum to %d", s.Calls, sum)
		}
		s.Estimates = append([]float64(nil), s.Estimates...)
		streamed = append(streamed, s)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Stop has returned: the sampler goroutine is joined, streamed is ours.
	if len(m.Samples) != 0 {
		t.Fatalf("a delivering monitor recorded %d samples", len(m.Samples))
	}
	m.Samples = streamed
	checkSamples(t, "tpch-q1-streamed", m)
}
