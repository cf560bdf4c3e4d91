package core

import (
	"slices"
	"testing"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/ledger"
)

// bushyJoinPlan is a hash join whose build and probe sides are hash joins:
// four pipelines with one scan driver each.
func bushyJoinPlan() *exec.HashJoin {
	mk := func(name string) *exec.Scan { return exec.NewScan(intRel(name, "a", seq(4))) }
	join := func(build, probe exec.Operator, bcol, pcol string) *exec.HashJoin {
		return exec.NewHashJoin(build, probe,
			[]expr.Expr{expr.NewCol(build.Schema(), bcol, "a")},
			[]expr.Expr{expr.NewCol(probe.Schema(), pcol, "a")},
			exec.InnerJoin)
	}
	return join(join(mk("r1"), mk("r2"), "", ""), join(mk("r3"), mk("r4"), "", ""), "r1", "r3")
}

// nlJoinPlan is a nested-loops join whose inner scan is rescanned per outer
// row, so its leaf is excluded from LeafCard and its bounds never pin.
func nlJoinPlan() *exec.NLJoin {
	s1, s2 := exec.NewScan(intRel("r1", "a", seq(10))), exec.NewScan(intRel("r2", "b", seq(8)))
	return exec.NewNLJoin(s1, s2, expr.Compare(expr.EQ, expr.Col{Index: 0}, expr.Col{Index: 1}))
}

func captureTestPlans() map[string]func() exec.Operator {
	return map[string]func() exec.Operator{
		"inl-skew": func() exec.Operator { j, _ := skewJoinPlan(200, "random"); return j },
		"bushy":    func() exec.Operator { return bushyJoinPlan() },
		"nl-join":  func() exec.Operator { return nlJoinPlan() },
	}
}

// referenceState derives the State as a sampler without the bounds pass's
// counter record would: the full-walk bounds pass, then a fresh ledger read
// for every counter.
func referenceState(shape *PlanShape, led *ledger.Ledger) State {
	snap := ComputeShapeBounds(shape, led, BoundsOptions{})
	bounds := make([]exec.CardBounds, shape.Len())
	for _, nb := range snap.Nodes {
		bounds[nb.ID] = nb.Bounds
	}
	total := func(id ledger.NodeID, rt ledger.Snapshot) float64 {
		return estimateNodeTotal(shape.Node(id).EstCard, rt, bounds[id])
	}
	s := State{Curr: led.TotalReturned(), LB: max(snap.LB, 1)}
	s.UB = max(snap.UB, s.LB)
	s.UBTight = min(max(snap.UBTight, s.LB), s.UB)
	pipelines := Pipelines(shape)
	for _, p := range pipelines {
		for _, d := range p.Drivers {
			rt := led.View(d).Snapshot()
			s.Drivers = append(s.Drivers, DriverState{Returned: rt.Returned, Done: rt.Done && rt.Rescans == 0, Total: total(d, rt)})
		}
	}
	var walk func(id ledger.NodeID, underRescan bool)
	walk = func(id ledger.NodeID, underRescan bool) {
		n := shape.Node(id)
		if n.IsLeaf() && !underRescan {
			s.LeafCard += bounds[id].LB
			s.LeafConsumed += led.View(id).Returned()
			return
		}
		for i, c := range n.Children {
			walk(c, underRescan || n.Rescanned[i])
		}
	}
	walk(shape.Root().ID, false)
	for _, p := range pipelines {
		ps := PipelineState{Done: true}
		for _, id := range p.Ops {
			rt := led.View(id).Snapshot()
			ps.Work += rt.Returned
			ps.EstWork += total(id, rt)
			ps.Done = ps.Done && rt.Done && rt.Rescans == 0
		}
		for _, d := range p.Drivers {
			rt := led.View(d).Snapshot()
			ps.DriverReturned += rt.Returned
			ps.DriverTotal += total(d, rt)
		}
		s.Pipelines = append(s.Pipelines, ps)
	}
	return s
}

// TestCaptureMatchesFreshLedgerReads checks, at every call of each plan,
// that the State Capture builds from the bounds pass's counter record
// equals one built from the full walk and fresh ledger reads, and that
// Runtime reports the ledger's counters.
func TestCaptureMatchesFreshLedgerReads(t *testing.T) {
	for name, build := range captureTestPlans() {
		root := build()
		tracker := NewTracker(root)
		shape, led := tracker.Shape(), tracker.Ledger()
		check := func(calls int64) {
			got := tracker.Capture()
			want := referenceState(shape, led)
			if got.Curr != want.Curr || got.LB != want.LB || got.UB != want.UB || got.UBTight != want.UBTight ||
				got.LeafCard != want.LeafCard || got.LeafConsumed != want.LeafConsumed ||
				!slices.Equal(got.Drivers, want.Drivers) || !slices.Equal(got.Pipelines, want.Pipelines) {
				t.Fatalf("%s at call %d: captured %+v, reference %+v", name, calls, *got, want)
			}
			for id, rt := range led.SnapshotAll(nil) {
				if r := tracker.Runtime(ledger.NodeID(id)); r != rt {
					t.Fatalf("%s at call %d: node %d runtime %+v, ledger %+v", name, calls, id, r, rt)
				}
			}
		}
		ctx := exec.NewCtx()
		ctx.OnGetNext = check
		if _, err := exec.Run(ctx, root); err != nil {
			t.Fatal(err)
		}
		check(ctx.Calls())
	}
}

// TestCaptureAllocatesNothing holds Capture to zero allocations per sample,
// mid-run and at EOF: the State, its slices and the bounds snapshot are
// tracker-owned and reused.
func TestCaptureAllocatesNothing(t *testing.T) {
	for name, build := range captureTestPlans() {
		root := build()
		tracker := NewTracker(root)
		measure := func(when string) {
			if a := testing.AllocsPerRun(50, func() { tracker.Capture() }); a != 0 {
				t.Errorf("%s %s: Capture made %.1f allocations, want 0", name, when, a)
			}
		}
		ctx := exec.NewCtx()
		midRun := false
		ctx.OnGetNext = func(calls int64) {
			if calls == 20 {
				measure("mid-run")
				midRun = true
			}
		}
		if _, err := exec.Run(ctx, root); err != nil {
			t.Fatal(err)
		}
		if !midRun {
			t.Fatalf("%s finished in %d calls, before the mid-run measurement", name, ctx.Calls())
		}
		measure("at EOF")
	}
}

// countingRule counts the FinalBounds calls made through a shape node.
type countingRule struct {
	FinalBounder
	calls *int
}

func (c countingRule) FinalBounds(children []exec.CardBounds) exec.CardBounds {
	*c.calls++
	return c.FinalBounder.FinalBounds(children)
}

// TestEvaluatorRunsTightTrackOnlyWithPessimisticBounds checks that the
// incremental pass calls each node's rule once when no node carries a
// pessimistic bound and twice when one does, and that both agree with the
// full walk (which always runs both tracks) at every call.
func TestEvaluatorRunsTightTrackOnlyWithPessimisticBounds(t *testing.T) {
	for _, pess := range []bool{false, true} {
		root := bushyJoinPlan()
		shape, led := ShapeOf(root)
		var calls int
		for i := range shape.Nodes {
			shape.Nodes[i].Rule = countingRule{FinalBounder: shape.Nodes[i].Rule, calls: &calls}
		}
		perPass := shape.Len()
		if pess {
			// The root join emits 4 rows of a static bound of 16: a sound,
			// binding pessimistic bound.
			shape.Nodes[0].PessimisticUB = 4
			shape.HasPessimistic = true
			perPass *= 2
		}
		ev := NewShapeEvaluator(shape, led, BoundsOptions{})
		var tightened bool
		check := func(at int64) {
			calls = 0
			got := ev.Compute()
			if calls != perPass {
				t.Fatalf("pessimistic=%v at call %d: %d rule calls per pass, want %d", pess, at, calls, perPass)
			}
			want := ComputeShapeBounds(shape, led, BoundsOptions{})
			if got.LB != want.LB || got.UB != want.UB || got.UBTight != want.UBTight || !slices.Equal(got.Nodes, want.Nodes) {
				t.Fatalf("pessimistic=%v at call %d: evaluator %+v, full walk %+v", pess, at, *got, want)
			}
			tightened = tightened || got.UBTight < got.UB
		}
		ctx := exec.NewCtx()
		ctx.OnGetNext = check
		if _, err := exec.Run(ctx, root); err != nil {
			t.Fatal(err)
		}
		check(ctx.Calls())
		if tightened != pess {
			t.Fatalf("pessimistic=%v: UBTight below UB at some call = %v", pess, tightened)
		}
	}
}
