package core

import (
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// DriverState is the progress-relevant view of one driver node.
type DriverState struct {
	// Returned is how many rows the driver has produced so far (k_i).
	Returned int64
	// Total is the estimated number of rows the driver will produce (N_i):
	// exact for completed nodes and full scans, otherwise the plan-time
	// estimate clamped into the node's current bounds.
	Total float64
	// Done reports whether the driver has finished.
	Done bool
}

// State is an instantaneous snapshot of everything a progress estimator is
// allowed to see: the execution feedback (Curr, per-driver counts, leaf
// consumption) and the statistics-derived bounds. Estimators are pure
// functions of State (plus their own history), never of the data instance —
// the paper's Section 2.4 restriction.
type State struct {
	// Curr is the number of GetNext calls performed so far.
	Curr int64
	// LB and UB bound total(Q) at this instant (Section 5.1).
	LB, UB int64
	// UBTight also bounds total(Q) from above, folding in pessimistic
	// degree-sequence join bounds where the plan carries them:
	// LB <= total(Q) <= UBTight <= UB. Equal to UB for plans without
	// pessimistic bounds; the ℓp-safe estimator is Curr/sqrt(LB·UBTight).
	UBTight int64
	// Drivers holds one entry per driver node across all pipelines.
	Drivers []DriverState
	// LeafCard is the summed cardinality of scanned leaves (mu's
	// denominator).
	LeafCard int64
	// LeafConsumed is the number of leaf rows consumed so far (for the
	// running estimate of mu used by heuristic switching).
	LeafConsumed int64
	// Pipelines holds per-pipeline progress, in Pipelines(root) order; the
	// dynamic dne refinement (DneDynamic) scales each pipeline's driver
	// total by its observed per-driver-tuple work.
	Pipelines []PipelineState
}

// PipelineState is the progress-relevant view of one pipeline.
type PipelineState struct {
	// Work is the GetNext calls performed by the pipeline's operators so
	// far.
	Work int64
	// DriverReturned and DriverTotal aggregate the pipeline's driver nodes
	// (rows consumed, estimated final rows).
	DriverReturned int64
	DriverTotal    float64
	// EstWork is the plan-time estimate of the pipeline's total work (sum
	// of member nodes' estimated cardinalities clamped into their bounds).
	EstWork float64
	// Done reports that every member operator reached EOF.
	Done bool
}

// Interval returns hard bounds on the true progress at this instant:
// Curr/UB <= progress <= Curr/LB. Any estimator may be constrained into it.
func (s *State) Interval() (lo, hi float64) {
	if s.Curr <= 0 {
		return 0, 1
	}
	lo = float64(s.Curr) / float64(s.UB)
	hi = float64(s.Curr) / float64(s.LB)
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// TightInterval is Interval computed against the pessimistic upper bound:
// Curr/UBTight <= progress <= Curr/LB. Identical to Interval for plans
// without pessimistic bounds.
func (s *State) TightInterval() (lo, hi float64) {
	if s.Curr <= 0 {
		return 0, 1
	}
	lo = float64(s.Curr) / float64(s.UBTight)
	hi = float64(s.Curr) / float64(s.LB)
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// MuRunning is the average work per consumed leaf tuple so far — the
// observable proxy for mu used by heuristic estimator switching (Section
// 6.4). Theorem 7 shows no estimator can bound the true mu from it.
func (s *State) MuRunning() float64 {
	if s.LeafConsumed <= 0 {
		return 1
	}
	return float64(s.Curr) / float64(s.LeafConsumed)
}

// Tracker captures States from a running plan. It owns the plan's shape,
// its ledger, a prebuilt BoundsEvaluator and the State it fills, so each
// capture is one incremental bounds pass plus a sweep over precomputed node
// indices: no allocations, and no operator-tree access of any kind on the
// sample path. The bounds pass reads each node's ledger slot once and
// records the counters with its bounds; every counter the State carries
// comes from that record, so one capture reads the ledger once. Captures
// read ledger counters atomically and may therefore run on a goroutine
// other than the executing ones (Monitor's wall-clock trigger does); Capture
// itself is not reentrant.
type Tracker struct {
	shape    *PlanShape
	led      *ledger.Ledger
	ev       *BoundsEvaluator
	snap     *BoundsSnapshot // the most recent Capture's bounds pass
	state    State
	leafIdx  []int   // snapshot index per leaf outside rescanned subtrees
	pipeOps  [][]int // snapshot index per pipeline member
	pipeDrvs [][]int // snapshot index per pipeline driver
}

// NewTracker prepares a tracker for the plan rooted at root, deriving its
// shape and binding its ledger (the plan structure is fixed; only runtime
// counters change between captures).
func NewTracker(root exec.Operator) *Tracker {
	shape, led := ShapeOf(root)
	return NewShapeTracker(shape, led)
}

// NewShapeTracker prepares a tracker over an already-derived
// (PlanShape, *Ledger) pair.
func NewShapeTracker(shape *PlanShape, led *ledger.Ledger) *Tracker {
	t := &Tracker{
		shape: shape,
		led:   led,
		ev:    NewShapeEvaluator(shape, led, BoundsOptions{}),
	}
	indexes := func(ids []ledger.NodeID) []int {
		out := make([]int, len(ids))
		for i, id := range ids {
			out[i] = t.ev.IndexOfID(id)
		}
		return out
	}
	drivers := 0
	for _, p := range Pipelines(shape) {
		t.pipeOps = append(t.pipeOps, indexes(p.Ops))
		t.pipeDrvs = append(t.pipeDrvs, indexes(p.Drivers))
		drivers += len(p.Drivers)
	}
	var walk func(id ledger.NodeID, underRescan bool)
	walk = func(id ledger.NodeID, underRescan bool) {
		n := shape.Node(id)
		if n.IsLeaf() && !underRescan {
			t.leafIdx = append(t.leafIdx, t.ev.IndexOfID(id))
			return
		}
		for i, c := range n.Children {
			walk(c, underRescan || n.Rescanned[i])
		}
	}
	walk(shape.Root().ID, false)
	t.state.Drivers = make([]DriverState, 0, drivers)
	t.state.Pipelines = make([]PipelineState, 0, len(t.pipeOps))
	return t
}

// Ledger returns the plan's progress ledger.
func (t *Tracker) Ledger() *ledger.Ledger { return t.led }

// Shape returns the plan's shape.
func (t *Tracker) Shape() *PlanShape { return t.shape }

// Capture snapshots the current State. The State is owned by the tracker
// and valid until the next Capture, which overwrites it in place (its
// Drivers and Pipelines slices included); copy what must outlive that.
func (t *Tracker) Capture() *State {
	snap := t.ev.Compute()
	t.snap = snap
	s := &t.state
	s.LB, s.UB, s.UBTight = snap.LB, snap.UB, snap.UBTight
	// Curr from the same per-node counters the bounds saw: summing the
	// snapshot's refined LBs would over-count (they include static lower
	// bounds of nodes that have not produced yet), so sum the Returned
	// counters the pass read. Every node's LB is at least its Returned, so
	// Curr <= LB <= total(Q) <= UB.
	s.Curr = 0
	for i := range snap.Nodes {
		s.Curr += snap.Nodes[i].Runtime.Returned
	}
	if s.LB < 1 {
		s.LB = 1
	}
	if s.UB < s.LB {
		s.UB = s.LB
	}
	if s.UBTight < s.LB {
		s.UBTight = s.LB
	}
	if s.UBTight > s.UB {
		s.UBTight = s.UB
	}
	s.LeafCard, s.LeafConsumed = 0, 0
	for _, j := range t.leafIdx {
		s.LeafCard += snap.Nodes[j].Bounds.LB
		s.LeafConsumed += snap.Nodes[j].Runtime.Returned
	}
	s.Drivers, s.Pipelines = s.Drivers[:0], s.Pipelines[:0]
	for pi, ops := range t.pipeOps {
		ps := PipelineState{Done: true}
		for _, j := range ops {
			rt := snap.Nodes[j].Runtime
			ps.Work += rt.Returned
			ps.EstWork += t.nodeTotal(j)
			if !rt.Done || rt.Rescans > 0 {
				ps.Done = false
			}
		}
		for _, j := range t.pipeDrvs[pi] {
			rt, total := snap.Nodes[j].Runtime, t.nodeTotal(j)
			ps.DriverReturned += rt.Returned
			ps.DriverTotal += total
			s.Drivers = append(s.Drivers, DriverState{Returned: rt.Returned, Total: total, Done: rt.Done && rt.Rescans == 0})
		}
		s.Pipelines = append(s.Pipelines, ps)
	}
	return s
}

// nodeTotal estimates the final count of the node at snapshot index j from
// the most recent bounds pass.
func (t *Tracker) nodeTotal(j int) float64 {
	nb := &t.snap.Nodes[j]
	return estimateNodeTotal(t.shape.Node(nb.ID).EstCard, nb.Runtime, nb.Bounds)
}

// Runtime returns node id's ledger counters as the most recent Capture read
// them: the same instant its State and bounds describe. It is the zero
// Snapshot before the first Capture.
func (t *Tracker) Runtime(id ledger.NodeID) ledger.Snapshot {
	if t.snap == nil {
		return ledger.Snapshot{}
	}
	return t.snap.Nodes[t.ev.IndexOfID(id)].Runtime
}

// estimateNodeTotal estimates a node's final GetNext count: exact when the
// node finished or its bounds pin it, otherwise the plan-time estimate
// clamped into the current hard bounds (falling back to the bounds midpoint
// or lower bound).
func estimateNodeTotal(est int64, rt exec.StatsSnapshot, b exec.CardBounds) float64 {
	var total float64
	switch {
	case rt.Done && rt.Rescans == 0:
		total = float64(rt.Returned)
	case b.LB == b.UB:
		total = float64(b.LB)
	default:
		switch {
		case est >= 0:
			total = clampF(float64(est), float64(b.LB), float64(b.UB))
		case b.UB >= exec.Unbounded:
			total = float64(maxI64(b.LB, 1))
		default:
			total = float64(b.LB+b.UB) / 2
		}
	}
	if total < 1 {
		total = 1
	}
	return total
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
