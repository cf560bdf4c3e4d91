// Package exec implements a Volcano-style iterator executor with per-operator
// GetNext accounting — the paper's model of work (Section 2.2).
//
// Every physical operator implements Operator. A GetNext call is one
// successful Next() returning a row, attributed to the operator that returned
// it; EOF probes are not counted. The counted nodes are exactly the plan-tree
// operators: for an index nested loops join the inner index lookup is an
// access path inside the join, not a counted node, matching the paper's
// arithmetic in Example 1.
//
// Rows returned by operators remain valid indefinitely: they are either fresh
// allocations or references into immutable base relations. Operators never
// reuse row buffers.
package exec

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"sqlprogress/internal/ledger"
	"sqlprogress/internal/schema"
)

// ErrCanceled is returned by Next once the execution context has been
// canceled. The paper's motivating use case — watching the progress
// estimate and deciding to terminate — needs a termination path.
var ErrCanceled = errors.New("exec: query canceled")

// Ctx carries per-execution state: the global GetNext counter and an optional
// observation hook used by progress estimators to sample the execution.
//
// The call counter is updated atomically, so a monitoring goroutine may read
// Calls while the plan runs on another goroutine (see the wall-clock trigger
// of core.Monitor).
type Ctx struct {
	// calls is the total number of GetNext calls performed so far across all
	// operators (the paper's Curr).
	calls atomic.Int64
	// OnGetNext, when non-nil, is invoked after every counted call. Progress
	// monitors use it to sample estimates at regular points of the
	// execution. It runs on the execution goroutine and must be set before
	// the run starts.
	OnGetNext func(calls int64)

	// Inject, when non-nil, is invoked on every counted call (before
	// OnGetNext) with the post-increment count, and may return an error to
	// abort the run with that error — the produced row still counts, so the
	// bounds invariants hold at the instant of failure. It runs on the
	// execution goroutine and must be set before the run starts; the fault
	// layer (internal/fault) uses it to create deterministic stalls, operator
	// errors, and exact-call cancellations.
	Inject func(calls int64) error

	// BatchSize overrides DefaultBatchSize for batch-at-a-time runs (zero
	// means the default). Set before the run starts; it only affects chunk
	// granularity, never accounting semantics.
	BatchSize int

	// vectorized marks a run started by RunBatch: operators take their bulk
	// accounting fast path when additionally no per-call hook is installed.
	// Set once before execution starts and read-only during the run (the
	// worker goroutines of the parallel operators read it concurrently).
	vectorized bool

	canceled atomic.Bool
}

// NewCtx returns a fresh execution context.
func NewCtx() *Ctx { return &Ctx{} }

// Cancel requests termination. It is safe to call from the OnGetNext
// callback or from another goroutine; the execution stops at the next
// counted GetNext call with ErrCanceled.
func (c *Ctx) Cancel() { c.canceled.Store(true) }

// Canceled reports whether Cancel was called.
func (c *Ctx) Canceled() bool { return c.canceled.Load() }

// Calls returns the total number of GetNext calls performed so far across
// all operators (the paper's Curr). Safe to call from any goroutine.
func (c *Ctx) Calls() int64 { return c.calls.Load() }

func (c *Ctx) tick() error {
	n := c.calls.Add(1)
	if c.Inject != nil {
		if err := c.Inject(n); err != nil {
			return err
		}
	}
	if c.OnGetNext != nil {
		c.OnGetNext(n)
	}
	return nil
}

// RuntimeStats is the execution feedback a node exposes; progress estimators
// may read it at any instant (it is exactly the "execution trace seen so
// far" the paper allows). It is a ledger slot: the node's counters live in
// the per-query progress ledger (internal/ledger), not inside the operator
// struct, so samplers read a flat array rather than walking the tree.
//
// All counters are updated atomically by the writing goroutine, so a
// sampler on another goroutine can read them while the plan runs. Individual
// accessor loads are not mutually consistent; use Snapshot for the
// read-ordering protocol that keeps bound derivations sound (see DESIGN.md,
// "Concurrency model & monitoring overhead").
type RuntimeStats = ledger.Slot

// StatsSnapshot is a plain-value copy of a node's runtime counters, taken
// with Snapshot's ordering guarantee: if Done && Rescans == 0, Returned and
// Delivered are the node's exact final counts (see internal/ledger).
type StatsSnapshot = ledger.Snapshot

// CardBounds is a closed interval bounding a node's final output cardinality
// (total rows it will have produced when the query completes).
type CardBounds struct {
	LB, UB int64
}

// Unbounded is the UB used when no finite bound is derivable.
const Unbounded = math.MaxInt64 / 4

// SatMul multiplies with saturation at Unbounded (cardinality products
// overflow quickly on adversarial plans).
func SatMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a >= Unbounded || b >= Unbounded || a > Unbounded/b {
		return Unbounded
	}
	return a * b
}

// SatAdd adds with saturation at Unbounded.
func SatAdd(a, b int64) int64 {
	if a >= Unbounded || b >= Unbounded || a+b >= Unbounded {
		return Unbounded
	}
	return a + b
}

// Operator is a physical operator node under the iterator model.
type Operator interface {
	// Open prepares the operator (and recursively its inputs) for
	// iteration. Blocking operators perform their build work here, issuing
	// counted GetNext calls against their inputs.
	Open(ctx *Ctx) error
	// Next returns the next row, or ok=false at end of stream.
	Next(ctx *Ctx) (row schema.Row, ok bool, err error)
	// Close releases resources. Operators support Close-then-Open rescans.
	Close() error

	// Schema describes the rows the operator produces.
	Schema() *schema.Schema
	// Children returns the operator's counted plan-tree inputs.
	Children() []Operator
	// Name is a short physical-operator name for plan explanation.
	Name() string

	// Runtime exposes execution feedback for progress estimation: the
	// node's current ledger slot (or its private fallback slot before
	// EnsureLedger binds the plan).
	Runtime() *RuntimeStats
	// LedgerID returns the node's dense ledger NodeID assigned by
	// EnsureLedger, or ledger.None before the plan is bound.
	LedgerID() ledger.NodeID
	// FinalBounds returns static bounds on this node's final GetNext-call
	// count given bounds on its children's *delivered* rows (ordered as
	// Children()). The progress layer tightens the result with runtime
	// feedback. For every operator except scans with embedded predicates,
	// the call count equals the delivered-row count.
	FinalBounds(children []CardBounds) CardBounds
	// EstimatedCard is the plan-time cardinality estimate for this node
	// (-1 when the builder provided none).
	EstimatedCard() int64
	// SetEstimatedCard records the plan-time estimate.
	SetEstimatedCard(int64)
	// StreamChildren lists the child indexes executing in the same pipeline
	// as this node (e.g. a hash join's probe side).
	StreamChildren() []int
	// BlockingChildren lists the child indexes fully consumed before this
	// node produces output (e.g. a hash join's build side, a sort's input).
	BlockingChildren() []int

	// progressBase exposes the embedded bookkeeping for ledger binding.
	// All operators live in this package; wrappers elsewhere compose plans
	// from these nodes rather than implementing Operator themselves.
	progressBase() *base
}

// base carries the bookkeeping shared by all operators.
type base struct {
	// own is the node's private fallback slot, valid from construction so
	// counters work even for fragments executed without EnsureLedger.
	own ledger.Slot
	// slot points at the counters currently in use: &own until EnsureLedger
	// rebinds the node into a per-query ledger. It is atomic because a
	// sampler goroutine may call Runtime() concurrently with the rebinding
	// that Run performs just before execution starts.
	slot atomic.Pointer[ledger.Slot]
	id   ledger.NodeID
	led  *ledger.Ledger
	sch  *schema.Schema
	est  int64
}

// init prepares the bookkeeping in place. base holds atomics, so it must
// never be copied after construction — operators initialize the embedded
// field rather than assigning a composite literal.
func (b *base) init(sch *schema.Schema) {
	b.sch = sch
	b.est = -1
	b.id = ledger.None
	b.slot.Store(&b.own)
}

// Runtime implements Operator.
func (b *base) Runtime() *RuntimeStats { return b.slot.Load() }

// LedgerID implements Operator.
func (b *base) LedgerID() ledger.NodeID { return b.id }

func (b *base) progressBase() *base { return b }

// Schema implements Operator.
func (b *base) Schema() *schema.Schema { return b.sch }

// EstimatedCard implements Operator.
func (b *base) EstimatedCard() int64 { return b.est }

// SetEstimatedCard implements Operator.
func (b *base) SetEstimatedCard(v int64) { b.est = v }

// emit counts and returns one produced row, honouring cancellation. The
// produced row still counts (the work happened) so bounds invariants hold
// at the instant of cancellation.
func (b *base) emit(ctx *Ctx, row schema.Row) (schema.Row, bool, error) {
	if ctx.canceled.Load() {
		return nil, false, ErrCanceled
	}
	s := b.slot.Load()
	s.CountCall()
	s.CountDelivered()
	if err := ctx.tick(); err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// countScanned counts a scanned-but-filtered row: one GetNext of work with
// no row delivered to the parent (scans with embedded predicates). It
// mirrors emit minus the delivery.
func (b *base) countScanned(ctx *Ctx) error {
	if ctx.canceled.Load() {
		return ErrCanceled
	}
	b.slot.Load().CountCall()
	return ctx.tick()
}

// eof marks the node done and returns end-of-stream.
func (b *base) eof() (schema.Row, bool, error) {
	b.slot.Load().MarkDone()
	return nil, false, nil
}

// markDone sets the EOF flag without ending the caller's Next — operators
// that exhaust a child mid-call use it before continuing.
func (b *base) markDone() { b.slot.Load().MarkDone() }

// reopen resets per-run state for a rescan. The rescan counter is bumped
// *before* done is cleared: a concurrent Snapshot that still sees the
// previous run's done=true will then see Rescans > 0 and refuse to pin the
// node (see ledger.Slot.Snapshot).
func (b *base) reopen() {
	s := b.slot.Load()
	if s.Done() || s.Returned() > 0 {
		s.MarkRescan()
	}
	s.ClearDone()
}

// workerSlotted is implemented by operators whose node counters are split
// across per-worker ledger sub-slots behind the node's single NodeID.
// EnsureLedger allocates the sub-slots at binding time; before binding the
// operator counts into its private fallback slots.
type workerSlotted interface {
	Operator
	workerCount() int
	fallbackSlots() []ledger.Slot
}

// EnsureLedger binds every node of the plan to one per-query ledger,
// assigning dense pre-order NodeIDs (the shape index used by core's
// PlanShape). It is idempotent: a tree already densely bound to a single
// ledger is returned as-is, so repeated runs of the same plan keep their
// accumulated counters. Otherwise a fresh ledger sized to the tree is
// allocated, any counts accumulated in the nodes' previous slots are
// carried over, and each node's slot pointer is swapped atomically —
// callers must bind before execution starts (Run does it), but a sampler
// already watching the tree observes the switch safely.
func EnsureLedger(root Operator) *ledger.Ledger {
	n := 0
	bound := true
	var led *ledger.Ledger
	Walk(root, func(o Operator) {
		b := o.progressBase()
		if b.led == nil || b.id != ledger.NodeID(n) {
			bound = false
		} else if led == nil {
			led = b.led
		} else if b.led != led {
			bound = false
		}
		if ws, ok := o.(workerSlotted); ok && b.led != nil && b.led.Workers(b.id) < ws.workerCount() {
			bound = false
		}
		n++
	})
	if bound && led != nil && led.Len() == n {
		return led
	}
	led = ledger.New(n)
	id := ledger.NodeID(0)
	Walk(root, func(o Operator) {
		b := o.progressBase()
		s := led.Slot(id)
		s.CopyFrom(b.slot.Load())
		b.led = led
		b.id = id
		b.slot.Store(s)
		if ws, ok := o.(workerSlotted); ok {
			led.EnsureWorkers(id, ws.workerCount())
			fb := ws.fallbackSlots()
			for w := range fb {
				led.WorkerSlot(id, w+1).CopyFrom(&fb[w])
			}
		}
		id++
	})
	return led
}

// Run drains an operator tree to completion, returning all produced root
// rows. It is the standard way tests and examples execute a plan. Run binds
// the plan to a progress ledger first, so samplers attached to the tree
// always observe ledger-backed counters.
func Run(ctx *Ctx, op Operator) ([]schema.Row, error) {
	if ctx == nil {
		ctx = NewCtx()
	}
	EnsureLedger(op)
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	var out []schema.Row
	for {
		row, ok, err := op.Next(ctx)
		if err != nil {
			op.Close()
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, row)
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// Walk visits op and all descendants in pre-order.
func Walk(op Operator, visit func(Operator)) {
	visit(op)
	for _, c := range op.Children() {
		Walk(c, visit)
	}
}

// NodeView returns op's aggregating counter reader: its ledger node view
// when bound (covering any worker sub-slots), else a view over its private
// fallback slots. Single-slot nodes degenerate to their one slot, so this
// is the uniform way to read any node's runtime counters.
func NodeView(op Operator) ledger.View {
	b := op.progressBase()
	if b.led != nil && b.id != ledger.None {
		return b.led.View(b.id)
	}
	if ws, ok := op.(workerSlotted); ok {
		return ledger.ViewOf(b.slot.Load(), ws.fallbackSlots())
	}
	return ledger.ViewOf(b.slot.Load(), nil)
}

// NodeSnapshot reads op's aggregated runtime counters under the snapshot
// ordering protocol (see NodeView).
func NodeSnapshot(op Operator) ledger.Snapshot { return NodeView(op).Snapshot() }

// TotalCalls sums Returned over the tree: the total GetNext calls performed
// so far (Curr; after completion, total(Q)).
func TotalCalls(op Operator) int64 {
	var total int64
	Walk(op, func(o Operator) { total += NodeView(o).Returned() })
	return total
}

// Explain renders the operator tree with runtime counters, one node per
// line, children indented.
func Explain(op Operator) string {
	var b strings.Builder
	var rec func(o Operator, depth int)
	rec = func(o Operator, depth int) {
		rt := NodeView(o)
		fmt.Fprintf(&b, "%s%s  [rows=%d done=%v est=%d]\n",
			strings.Repeat("  ", depth), o.Name(), rt.Returned(), rt.Done(), o.EstimatedCard())
		for _, c := range o.Children() {
			rec(c, depth+1)
		}
	}
	rec(op, 0)
	return b.String()
}

// DeliveredBounder is implemented by operators whose delivered-row count
// can be lower than their GetNext count — scans with embedded predicates.
// DeliveredBounds bounds the rows the node will hand to its parent; the
// progress layer uses it (instead of FinalBounds) when propagating child
// cardinalities upward.
type DeliveredBounder interface {
	DeliveredBounds() CardBounds
}

// WeightedLeaf is implemented by leaf operators whose counted GetNext
// calls may include non-row work units — paged scans under a nonzero read
// cost charge extra units per physical page read. MaxReadUnits bounds
// those extra units, letting analyses that need row-based counts (mu's
// scanned-leaf cardinality) conservatively recover them from the ledger's
// unit-inflated totals.
type WeightedLeaf interface {
	MaxReadUnits() int64
}

// EarlyStopper is implemented by operators that may stop pulling from a
// child before that child reaches EOF for data-dependent reasons — a merge
// join stops pulling the surviving side the moment the other side
// exhausts. Such a child (and any node it streams from in turn) may end
// the query short of EOF, so its static *lower* bound on final call count
// is unsound; the bounds pass keeps only runtime feedback (rows already
// returned) as its LB. Upper bounds are unaffected.
type EarlyStopper interface {
	// EarlyStopChildren lists child indexes (as in Children()) the
	// operator may abandon before EOF.
	EarlyStopChildren() []int
}
