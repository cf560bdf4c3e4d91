package core

import (
	"fmt"
	"strings"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
)

// NodeBounds pairs a plan node (by ledger NodeID) with bounds on its final
// total row count (across rescans, for nested-loops inners).
type NodeBounds struct {
	ID     ledger.NodeID
	Bounds exec.CardBounds
	// UBTight is the node's total-count upper bound with pessimistic
	// (degree-norm) join bounds folded in; UBTight <= Bounds.UB always, and
	// equals Bounds.UB when no pessimistic bound reaches the node.
	UBTight int64
	// Runtime is the node's ledger counters as the pass read them: the one
	// read of the node per pass, which the bounds above were refined with.
	// Samplers take every other per-node counter they need from it, so a
	// sample is internally consistent without a second ledger read.
	Runtime exec.StatsSnapshot
}

// BoundsSnapshot is the result of one bounds pass over the plan at some
// instant of the execution: per-node bounds and their sums, which bound
// total(Q) (Section 5.1).
type BoundsSnapshot struct {
	Nodes []NodeBounds
	// LB and UB bound the total number of GetNext calls the query will
	// perform: LB <= total(Q) <= UB.
	LB, UB int64
	// UBTight also bounds total(Q) from above, additionally folding in any
	// pessimistic degree-sequence join bounds (ShapeNode.PessimisticUB):
	// LB <= total(Q) <= UBTight <= UB. Equal to UB when the plan carries no
	// pessimistic bounds.
	UBTight int64

	opts BoundsOptions
}

// BoundsOptions tunes the bounds pass.
type BoundsOptions struct {
	// DisableDemandCap turns off the demand-capping refinement (for
	// ablation): by default, a Top operator's limit caps the final
	// emission of the one-to-one streaming chain beneath it (Top pulls at
	// most K rows; a Project emits exactly what it is asked for), which
	// tightens UB substantially on ORDER BY ... LIMIT plans.
	DisableDemandCap bool
}

// ComputeBounds derives cardinality bounds for every node of the plan,
// combining each operator's static rule (FinalBounds) with runtime
// feedback:
//
//   - every node has produced Returned rows already, so LB >= Returned;
//   - a node at EOF (not subject to rescans) is pinned: LB = UB = Returned;
//   - nodes inside a rescanned nested-loops inner have their per-run bounds
//     scaled by a bound on the number of rescans (the driving side's UB),
//     and are never pinned at EOF;
//   - every node's emission is bounded by its parent's demand where that
//     demand is itself bounded (Top/Project chains);
//   - nodes an ancestor may stop pulling early (EarlyStopper children and
//     their streaming descendants) keep no static lower bound: the query
//     may finish with them short of EOF, so only rows already returned
//     bound them from below.
func ComputeBounds(root exec.Operator) BoundsSnapshot {
	return ComputeBoundsOpt(root, BoundsOptions{})
}

// ComputeBoundsOpt is ComputeBounds with explicit options. It derives the
// plan's shape (binding the ledger if needed) and delegates to
// ComputeShapeBounds — the operator tree is only touched for this static
// derivation, never for the counters.
func ComputeBoundsOpt(root exec.Operator, opts BoundsOptions) BoundsSnapshot {
	shape, led := ShapeOf(root)
	return ComputeShapeBounds(shape, led, opts)
}

// ComputeShapeBounds is the full bounds pass over (PlanShape, *Ledger): the
// reference implementation the incremental BoundsEvaluator must agree with
// at every instant.
func ComputeShapeBounds(shape *PlanShape, led *ledger.Ledger, opts BoundsOptions) BoundsSnapshot {
	var snap BoundsSnapshot
	snap.opts = opts
	walkBounds(shape, led, shape.Root().ID, 1, 1, -1, false, &snap)
	for _, nb := range snap.Nodes {
		snap.LB = exec.SatAdd(snap.LB, nb.Bounds.LB)
		snap.UB = exec.SatAdd(snap.UB, nb.Bounds.UB)
		snap.UBTight = exec.SatAdd(snap.UBTight, nb.UBTight)
	}
	return snap
}

// walkBounds returns per-run bounds on a node's *delivered* rows (what the
// parent's bounds rule expects) while recording bounds on its GetNext
// count in the snapshot. The two differ only for scans with embedded
// predicates. mult bounds how many times this subtree may be re-opened
// (1 outside nested loops); demandCap bounds how many rows ancestors will
// ever pull from this node (-1 = unbounded); mayStop marks nodes an
// ancestor may abandon before EOF, voiding their static lower bounds.
//
// The pass runs the same arithmetic twice: the classic track, and a tight
// track that additionally intersects each node's pessimistic degree-norm
// bound (ShapeNode.PessimisticUB) and propagates the tightened child bounds
// upward. The tight track's result is the per-node UBTight; with no
// pessimistic bounds in the plan both tracks are identical. multT is the
// tight track's rescan multiplier (tight drive bounds can be smaller).
func walkBounds(shape *PlanShape, led *ledger.Ledger, id ledger.NodeID, mult, multT, demandCap int64, mayStop bool, snap *BoundsSnapshot) (perRun, perRunT exec.CardBounds) {
	n := shape.Node(id)
	childCaps := n.demandCaps(demandCap, snap.opts, make([]int64, len(n.Children)))
	childStops := n.earlyStops(mayStop, make([]bool, len(n.Children)))

	childBounds := make([]exec.CardBounds, len(n.Children))
	childTight := make([]exec.CardBounds, len(n.Children))
	// Non-rescanned children first: a rescanned child's run count is
	// bounded by the driving (first streaming) child's final cardinality.
	var driveUB, driveUBT int64 = exec.Unbounded, exec.Unbounded
	for i, c := range n.Children {
		if !n.Rescanned[i] {
			childBounds[i], childTight[i] = walkBounds(shape, led, c, mult, multT, childCaps[i], childStops[i], snap)
		}
	}
	if n.FirstStream >= 0 && n.HasRescan {
		driveUB = childBounds[n.FirstStream].UB
		driveUBT = childTight[n.FirstStream].UB
	}
	for i, c := range n.Children {
		if n.Rescanned[i] {
			childBounds[i], childTight[i] = walkBounds(shape, led, c,
				exec.SatMul(mult, driveUB), exec.SatMul(multT, driveUBT), childCaps[i], childStops[i], snap)
		}
	}

	rule := n.Rule.FinalBounds(childBounds)
	ruleT := n.Rule.FinalBounds(childTight)
	if n.PessimisticUB >= 0 {
		// The pessimistic bound caps delivered rows; for the operators that
		// carry one, counted calls equal delivered rows, so it caps both
		// (capping the static LB too: two sound intervals cannot truly be
		// disjoint, so the cap only bites where the LB was not).
		ruleT = capBounds(ruleT, n.PessimisticUB)
	}
	deliveredRule, deliveredRuleT := rule, ruleT
	sameEmission, sameEmissionT := true, true
	if n.Delivered != nil {
		deliveredRule = n.Delivered.DeliveredBounds()
		sameEmission = deliveredRule == rule
		deliveredRuleT = deliveredRule
		sameEmissionT = deliveredRuleT == ruleT
	}
	if mayStop {
		// An ancestor may stop pulling before this node reaches EOF: the
		// static rules' lower bounds assume a full drain and are unsound
		// here. refineWithRuntime restores LB = rows already returned.
		rule.LB, deliveredRule.LB = 0, 0
		ruleT.LB, deliveredRuleT.LB = 0, 0
	}
	if demandCap >= 0 && mult == 1 {
		// The parent will never pull more than demandCap rows, so the
		// node's delivered count — and, when counting equals delivery, its
		// GetNext count — is bounded by it. The truncating chain stops
		// early only at child EOF, so the final count is exactly
		// min(natural, cap): the cap applies to the lower bound too.
		deliveredRule = capBounds(deliveredRule, demandCap)
		if sameEmission {
			rule = capBounds(rule, demandCap)
		}
	}
	if demandCap >= 0 && multT == 1 {
		deliveredRuleT = capBounds(deliveredRuleT, demandCap)
		if sameEmissionT {
			ruleT = capBounds(ruleT, demandCap)
		}
	}
	rt := led.View(id).Snapshot()

	var total, totalT exec.CardBounds
	if mult == 1 {
		pinned := rt.Done && rt.Rescans == 0
		total = refineWithRuntime(rule, rt.Returned, pinned)
		perRun = refineWithRuntime(deliveredRule, rt.Delivered, pinned)
	} else {
		// Under a rescanned subtree: per-run bounds stay static, totals
		// accumulate across runs.
		perRun = deliveredRule
		total = exec.CardBounds{LB: rt.Returned, UB: exec.SatMul(rule.UB, mult)}
		if total.UB < total.LB {
			total.UB = total.LB
		}
	}
	if multT == 1 {
		pinned := rt.Done && rt.Rescans == 0
		totalT = refineWithRuntime(ruleT, rt.Returned, pinned)
		perRunT = refineWithRuntime(deliveredRuleT, rt.Delivered, pinned)
	} else {
		perRunT = deliveredRuleT
		totalT = exec.CardBounds{LB: rt.Returned, UB: exec.SatMul(ruleT.UB, multT)}
		if totalT.UB < totalT.LB {
			totalT.UB = totalT.LB
		}
	}
	// The tight track never reports looser than the classic one (defensive
	// against non-monotone bounds rules).
	if totalT.UB > total.UB {
		totalT.UB = total.UB
	}
	if perRunT.UB > perRun.UB {
		perRunT.UB = perRun.UB
	}
	snap.Nodes = append(snap.Nodes, NodeBounds{ID: id, Bounds: total, UBTight: totalT.UB, Runtime: rt})
	return perRun, perRunT
}

// capBounds clamps both ends of b at cap.
func capBounds(b exec.CardBounds, cap int64) exec.CardBounds {
	if b.LB > cap {
		b.LB = cap
	}
	if b.UB > cap {
		b.UB = cap
	}
	return b
}

// refineWithRuntime tightens static bounds with execution feedback: at
// least the observed count; exactly the observed count at EOF.
func refineWithRuntime(b exec.CardBounds, observed int64, pinned bool) exec.CardBounds {
	if observed > b.LB {
		b.LB = observed
	}
	if pinned {
		b.LB, b.UB = observed, observed
	}
	if b.UB < b.LB {
		b.UB = b.LB
	}
	return b
}

// ScannedLeafCardinality sums the cardinalities of the plan's leaf nodes
// that are scanned exactly once — the denominator of the paper's mu
// (Section 5.2). Leaves inside rescanned nested-loops inners are excluded.
// For leaves whose exact cardinality is not static (range scans without
// runtime completion), the lower bound is used, keeping mu's guarantee
// direction intact (mu computed this way can only over-estimate). Weighted
// leaves (paged scans charging physical-read units) have their ledger
// count deflated by the worst-case unit charge for the same reason: the
// denominator must never exceed the rows actually scanned.
func ScannedLeafCardinality(root exec.Operator) int64 {
	var total int64
	var walk func(op exec.Operator, underRescan bool)
	walk = func(op exec.Operator, underRescan bool) {
		children := op.Children()
		if len(children) == 0 && !underRescan {
			b := op.FinalBounds(nil)
			lb := b.LB
			rt := exec.NodeSnapshot(op)
			if rt.Done && rt.Rescans == 0 {
				ret := rt.Returned
				if wl, ok := op.(exec.WeightedLeaf); ok {
					ret -= wl.MaxReadUnits()
				}
				if ret > lb {
					lb = ret
				}
			}
			total += lb
			return
		}
		rescanned := make(map[int]bool)
		if r, ok := op.(exec.Rescanner); ok {
			for _, i := range r.RescannedChildren() {
				rescanned[i] = true
			}
		}
		for i, c := range children {
			walk(c, underRescan || rescanned[i])
		}
	}
	walk(root, false)
	return total
}

// Mu computes the paper's mu for a completed execution: total(Q) divided by
// the summed cardinality of the scanned leaves. pmax's ratio error is at
// most this value (Theorem 5).
func Mu(root exec.Operator) float64 {
	leaves := ScannedLeafCardinality(root)
	if leaves <= 0 {
		return 1
	}
	return float64(exec.TotalCalls(root)) / float64(leaves)
}

// ExplainBounds renders the plan tree with each node's current cardinality
// bounds and runtime counters — the Section 5.1 state, made visible. Useful
// when debugging why pmax or safe behaves as it does on a plan.
func ExplainBounds(root exec.Operator) string {
	snap := ComputeBounds(root)
	byID := make(map[ledger.NodeID]exec.CardBounds, len(snap.Nodes))
	for _, nb := range snap.Nodes {
		byID[nb.ID] = nb.Bounds
	}
	var b strings.Builder
	fmt.Fprintf(&b, "total bounds: LB=%d UB=%d UBtight=%d (Curr=%d)\n", snap.LB, snap.UB, snap.UBTight, exec.TotalCalls(root))
	var rec func(op exec.Operator, depth int)
	rec = func(op exec.Operator, depth int) {
		rt := exec.NodeView(op)
		nb := byID[op.LedgerID()]
		ubStr := fmt.Sprintf("%d", nb.UB)
		if nb.UB >= exec.Unbounded {
			ubStr = "inf"
		}
		fmt.Fprintf(&b, "%s%s  [rows=%d done=%v bounds=[%d,%s]]\n",
			strings.Repeat("  ", depth), op.Name(), rt.Returned(), rt.Done(), nb.LB, ubStr)
		for _, c := range op.Children() {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return b.String()
}
