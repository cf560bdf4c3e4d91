package core

import (
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// BoundsEvaluator is the incremental form of the bounds pass. The plan's
// static structure — child lists, rescan and demand-cap topology, bounds
// rules, the snapshot layout — comes from the PlanShape once at
// construction; each Compute call then only folds the ledger counters into
// preallocated buffers. One Compute is an allocation-free sweep of the
// shape instead of the full walk's per-node map and slice rebuilding, which
// is what lets a monitor sample frequently (and off-thread) without
// throttling the executor. No exec.Operator is touched on the sample path:
// the evaluator reads cached ledger slot pointers and static rule closures.
//
// Compute reads runtime counters through ledger.View.Snapshot, so it is
// safe to call from a goroutine other than the ones executing the plan; the
// bounds it derives are valid even against slightly-stale counters (see
// DESIGN.md, "Concurrency model & monitoring overhead"). Compute itself is
// not reentrant: at most one goroutine may call it at a time.
type BoundsEvaluator struct {
	opts BoundsOptions
	root *evalNode
	snap BoundsSnapshot
	n    int   // node count
	idx  []int // NodeID -> position in snap.Nodes
	// tight is set when some node carries a pessimistic bound. Without one
	// the tight track equals the classic track, so Compute skips it and
	// with it the second FinalBounds call per node.
	tight bool
}

// evalNode caches the per-node static structure the full walk re-derives
// every pass.
type evalNode struct {
	view      ledger.View
	rule      FinalBounder
	delivered exec.DeliveredBounder // non-nil iff node is a DeliveredBounder

	children    []*evalNode
	rescanned   []bool // parallel to children
	hasRescan   bool
	firstStream int // driving child's index in children, -1 if none

	demandCap int64 // static pull bound reaching this node (-1 = unbounded)
	mayStop   bool  // an ancestor may abandon this node before EOF
	pessUB    int64 // pessimistic delivered-rows bound (-1 = none)

	childBounds []exec.CardBounds // scratch, parallel to children
	childTight  []exec.CardBounds // scratch for the tight track
	snapIdx     int               // position in BoundsSnapshot.Nodes
	id          ledger.NodeID
}

// NewBoundsEvaluator prepares an incremental evaluator for the plan rooted
// at root with default options, binding the plan's ledger if needed.
func NewBoundsEvaluator(root exec.Operator) *BoundsEvaluator {
	return NewBoundsEvaluatorOpt(root, BoundsOptions{})
}

// NewBoundsEvaluatorOpt is NewBoundsEvaluator with explicit options.
func NewBoundsEvaluatorOpt(root exec.Operator, opts BoundsOptions) *BoundsEvaluator {
	shape, led := ShapeOf(root)
	return NewShapeEvaluator(shape, led, opts)
}

// NewShapeEvaluator prepares an incremental evaluator over an
// already-derived (PlanShape, *Ledger) pair.
func NewShapeEvaluator(shape *PlanShape, led *ledger.Ledger, opts BoundsOptions) *BoundsEvaluator {
	ev := &BoundsEvaluator{opts: opts, idx: make([]int, shape.Len())}
	ev.root = ev.build(shape, led, shape.Root().ID, -1, false)
	ev.snap.opts = opts
	ev.snap.Nodes = make([]NodeBounds, ev.n)
	var index func(n *evalNode)
	index = func(n *evalNode) {
		ev.snap.Nodes[n.snapIdx].ID = n.id
		ev.idx[n.id] = n.snapIdx
		for _, c := range n.children {
			index(c)
		}
	}
	index(ev.root)
	return ev
}

// build mirrors walkBounds' traversal once, assigning each node its slot in
// the snapshot in the exact emission order of the full walk (non-rescanned
// subtrees, then rescanned subtrees, then the node itself), so snapshots
// from both implementations are comparable element-wise.
func (ev *BoundsEvaluator) build(shape *PlanShape, led *ledger.Ledger, id ledger.NodeID, demandCap int64, mayStop bool) *evalNode {
	sn := shape.Node(id)
	n := &evalNode{
		view:        led.View(id),
		rule:        sn.Rule,
		delivered:   sn.Delivered,
		children:    make([]*evalNode, len(sn.Children)),
		rescanned:   sn.Rescanned,
		hasRescan:   sn.HasRescan,
		childBounds: make([]exec.CardBounds, len(sn.Children)),
		childTight:  make([]exec.CardBounds, len(sn.Children)),
		firstStream: sn.FirstStream,
		demandCap:   demandCap,
		mayStop:     mayStop,
		pessUB:      sn.PessimisticUB,
		id:          id,
	}
	if sn.PessimisticUB >= 0 {
		ev.tight = true
	}
	caps := sn.demandCaps(demandCap, ev.opts, make([]int64, len(sn.Children)))
	stops := sn.earlyStops(mayStop, make([]bool, len(sn.Children)))
	for i, c := range sn.Children {
		if !sn.Rescanned[i] {
			n.children[i] = ev.build(shape, led, c, caps[i], stops[i])
		}
	}
	for i, c := range sn.Children {
		if sn.Rescanned[i] {
			n.children[i] = ev.build(shape, led, c, caps[i], stops[i])
		}
	}
	n.snapIdx = ev.n
	ev.n++
	return n
}

// IndexOfID returns the node's position in Compute's snapshot Nodes, or -1
// when the id is out of range.
func (ev *BoundsEvaluator) IndexOfID(id ledger.NodeID) int {
	if id < 0 || int(id) >= len(ev.idx) {
		return -1
	}
	return ev.idx[id]
}

// IndexOf returns the operator's position in Compute's snapshot Nodes, or
// -1 when the operator is not part of the plan.
func (ev *BoundsEvaluator) IndexOf(op exec.Operator) int {
	return ev.IndexOfID(op.LedgerID())
}

// Compute performs one incremental bounds pass, equivalent to
// ComputeShapeBounds over the same shape and ledger at the same instant.
// The returned snapshot is owned by the evaluator and overwritten by the
// next Compute call.
func (ev *BoundsEvaluator) Compute() *BoundsSnapshot {
	ev.snap.LB, ev.snap.UB, ev.snap.UBTight = 0, 0, 0
	ev.eval(ev.root, 1, 1)
	return &ev.snap
}

// eval is walkBounds over the cached structure: same arithmetic, no
// allocations, with the plan-total LB/UB/UBTight accumulated in-line (the
// totals fold node bounds in post-order instead of a second sweep over the
// snapshot). Each node's ledger slot is read once and recorded with its
// bounds. mult bounds how many times this subtree may be re-opened; multT
// is the tight track's rescan multiplier.
func (ev *BoundsEvaluator) eval(n *evalNode, mult, multT int64) (perRun, perRunT exec.CardBounds) {
	if !n.hasRescan {
		for i, c := range n.children {
			n.childBounds[i], n.childTight[i] = ev.eval(c, mult, multT)
		}
	} else {
		for i, c := range n.children {
			if !n.rescanned[i] {
				n.childBounds[i], n.childTight[i] = ev.eval(c, mult, multT)
			}
		}
		var driveUB, driveUBT int64 = exec.Unbounded, exec.Unbounded
		if n.firstStream >= 0 {
			driveUB = n.childBounds[n.firstStream].UB
			driveUBT = n.childTight[n.firstStream].UB
		}
		for i, c := range n.children {
			if n.rescanned[i] {
				n.childBounds[i], n.childTight[i] = ev.eval(c,
					exec.SatMul(mult, driveUB), exec.SatMul(multT, driveUBT))
			}
		}
	}

	rt := n.view.Snapshot()
	total, perRun := n.settle(n.rule.FinalBounds(n.childBounds), mult, rt)
	totalT, perRunT := total, perRun
	if ev.tight {
		ruleT := n.rule.FinalBounds(n.childTight)
		if n.pessUB >= 0 {
			ruleT = capBounds(ruleT, n.pessUB)
		}
		totalT, perRunT = n.settle(ruleT, multT, rt)
		if totalT.UB > total.UB {
			totalT.UB = total.UB
		}
		if perRunT.UB > perRun.UB {
			perRunT.UB = perRun.UB
		}
	}
	nb := &ev.snap.Nodes[n.snapIdx]
	nb.Bounds, nb.UBTight, nb.Runtime = total, totalT.UB, rt
	ev.snap.LB = exec.SatAdd(ev.snap.LB, total.LB)
	ev.snap.UB = exec.SatAdd(ev.snap.UB, total.UB)
	ev.snap.UBTight = exec.SatAdd(ev.snap.UBTight, totalT.UB)
	return perRun, perRunT
}

// settle turns one track's static rule into the node's total-count bounds
// and its per-run delivered bounds, applying early stops, demand caps and
// the runtime counters rt exactly as walkBounds does. mult is the track's
// rescan multiplier.
func (n *evalNode) settle(rule exec.CardBounds, mult int64, rt exec.StatsSnapshot) (total, perRun exec.CardBounds) {
	deliveredRule, sameEmission := rule, true
	if n.delivered != nil {
		deliveredRule = n.delivered.DeliveredBounds()
		sameEmission = deliveredRule == rule
	}
	if n.mayStop {
		rule.LB, deliveredRule.LB = 0, 0
	}
	if n.demandCap >= 0 && mult == 1 {
		deliveredRule = capBounds(deliveredRule, n.demandCap)
		if sameEmission {
			rule = capBounds(rule, n.demandCap)
		}
	}
	if mult == 1 {
		pinned := rt.Done && rt.Rescans == 0
		return refineWithRuntime(rule, rt.Returned, pinned), refineWithRuntime(deliveredRule, rt.Delivered, pinned)
	}
	total = exec.CardBounds{LB: rt.Returned, UB: exec.SatMul(rule.UB, mult)}
	if total.UB < total.LB {
		total.UB = total.LB
	}
	return total, deliveredRule
}
