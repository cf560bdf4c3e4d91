package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sqlprogress/internal/ledger"
	"sqlprogress/internal/schema"
)

// This file holds the machinery shared by the parallel pipeline operators
// (ParallelScan, ParallelHashJoin, ParallelHashAgg): the worker→reader batch
// transport, per-worker ledger crediting, and the morsel-driven parallel
// scan itself.
//
// Each of these operators is a single plan node whose own counters are
// split across per-worker ledger sub-slots (ledger.EnsureWorkers). Each worker writes only its own padded sub-slot,
// preserving the single-writer discipline the snapshot ordering protocol
// relies on, and every reader aggregates the group through ledger.View. The
// node's FinalBounds therefore stay those of the logical operator: a
// parallel scan of n rows is bounded [n, n+units] no matter how many
// workers share the work.

// creditWorker credits `calls` counted GetNext calls (of which `delivered`
// rows were handed upward) against one worker's sub-slot. On the fast path
// it is the bulk credit creditScan performs on a primary slot; with per-call
// hooks installed it degrades to individual counts and ticks, so faults and
// samplers observe every exact call count and the sub-slot never runs ahead
// of Curr by more than one call.
func creditWorker(ctx *Ctx, s *ledger.Slot, calls, delivered int64) error {
	if calls == 0 {
		return nil
	}
	if ctx.canceled.Load() {
		return ErrCanceled
	}
	if ctx.Inject == nil && ctx.OnGetNext == nil {
		s.CountCalls(calls)
		if delivered > 0 {
			s.CountDeliveredN(delivered)
		}
		ctx.calls.Add(calls)
		return nil
	}
	for i := int64(0); i < calls; i++ {
		s.CountCall()
		if delivered > 0 {
			s.CountDelivered()
			delivered--
		}
		if err := ctx.tick(); err != nil {
			return err
		}
	}
	return nil
}

// workerSlot returns worker w's sub-slot for op: the primary slot for worker
// 0, the ledger sub-slot when bound, the private fallback slab otherwise.
func workerSlot(op workerSlotted, w int) *ledger.Slot {
	b := op.progressBase()
	if w == 0 {
		return b.slot.Load()
	}
	if b.led != nil && b.id != ledger.None && b.led.Workers(b.id) > w {
		return b.led.WorkerSlot(b.id, w)
	}
	return &op.fallbackSlots()[w-1]
}

// reopenWorkerSlots runs base.reopen's rescan protocol on every worker
// sub-slot beyond the primary (which the operator's own reopen handles):
// bump rescans before clearing done, so a racing aggregate Snapshot never
// pins a stale sub-slot count.
func reopenWorkerSlots(op workerSlotted) {
	for w := 1; w < op.workerCount(); w++ {
		s := workerSlot(op, w)
		if s.Done() || s.Returned() > 0 {
			s.MarkRescan()
		}
		s.ClearDone()
	}
}

// gather is the worker→reader transport shared by the parallel operators:
// workers hand the reader whole batches over a channel, recycling spent
// batches through a free list (zero steady-state allocation, no row
// copying), with first-error-wins failure and quit-based teardown.
type gather struct {
	ch       chan *Batch
	free     chan *Batch
	quit     chan struct{}
	wg       *sync.WaitGroup
	errMu    sync.Mutex
	firstErr error
}

// start launches one goroutine per worker running run(w); a closer goroutine
// closes the output channel when the last worker exits.
func (g *gather) start(workers int, run func(w int) error) {
	g.ch = make(chan *Batch, workers)
	g.free = make(chan *Batch, 2*workers)
	g.quit = make(chan struct{})
	g.firstErr = nil
	wg := &sync.WaitGroup{}
	g.wg = wg
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := run(w); err != nil {
				g.fail(err)
			}
		}(w)
	}
	ch := g.ch
	go func() {
		wg.Wait()
		close(ch)
	}()
}

// fail records a worker's error; the first non-cancellation error wins, so
// an injected fault surfaces over the cancellation sweep it triggers,
// exactly as the serial executor would report it.
func (g *gather) fail(err error) {
	g.errMu.Lock()
	if g.firstErr == nil || (g.firstErr == ErrCanceled && err != ErrCanceled) {
		g.firstErr = err
	}
	g.errMu.Unlock()
}

// err returns the recorded worker error, if any.
func (g *gather) err() error {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.firstErr
}

// getBatch takes a recycled batch off the free list, or allocates one.
func (g *gather) getBatch() *Batch {
	select {
	case b := <-g.free:
		b.Reset()
		return b
	default:
		return &Batch{}
	}
}

// putBatch returns a spent batch to the free list (dropping it if full).
func (g *gather) putBatch(b *Batch) {
	select {
	case g.free <- b:
	default:
	}
}

// send delivers a worker batch to the reader; false means the operator is
// shutting down and the worker should exit without error.
func (g *gather) send(wb *Batch) bool {
	select {
	case g.ch <- wb:
		return true
	case <-g.quit:
		return false
	}
}

// stop tears the transport down: signals quit and waits for the workers, so
// the children are quiesced when the caller closes them. Safe to call when
// never started.
func (g *gather) stop() {
	if g.quit != nil {
		close(g.quit)
		g.wg.Wait()
		g.quit = nil
	}
}

// morselRows is the nominal morsel size: enough rows that claiming one
// (an atomic add) is amortized to nothing, small enough that an idle worker
// never waits long behind a straggler.
const morselRows = 4096

// ParallelScan is the morsel-driven parallel scan: one leaf plan node whose
// scan positions are carved into page-aligned morsels (Store.AlignWindow)
// claimed dynamically by whichever worker is idle, so uneven costs never
// stall the whole plan behind one statically assigned partition. Each worker credits rows and weighted
// read units to its own ledger sub-slot; the reader merges batches without
// recounting, so the node's aggregate counters — and its final bounds
// [n, n+MaxReadUnits] — are exactly a serial scan's.
//
// Row order across morsels is nondeterministic in concurrent mode; the
// lockstep variant drains morsels on the reader's goroutine in fixed order
// for byte-deterministic runs (the evaluation matrix's parallel cells).
// Predicates and permutations are not supported: a predicate goes in a
// Filter above the scan.
type ParallelScan struct {
	base
	Src      schema.Store
	workers  int
	fallback []ledger.Slot

	morsels    int
	nextMorsel atomic.Int64

	g   gather
	buf *Batch
	pos int

	lockstep bool
	lsBuf    Batch
	lsCur    schema.Cursor
	lsSlot   *ledger.Slot
}

// NewParallelScan builds a morsel-driven parallel scan of st with the given
// worker count.
func NewParallelScan(st schema.Store, workers int) *ParallelScan {
	if workers < 1 {
		panic("exec: parallel scan needs at least one worker")
	}
	p := &ParallelScan{Src: st, workers: workers}
	n := int(st.Cardinality())
	p.morsels = (n + morselRows - 1) / morselRows
	if p.morsels < workers {
		p.morsels = workers
	}
	if workers > 1 {
		p.fallback = make([]ledger.Slot, workers-1)
	}
	p.init(st.Schema())
	return p
}

// NewParallelScanLockstep builds a parallel scan that drains its morsels on
// the caller's goroutine in deterministic order: same rows, same sub-slot
// counts, reproducible interleaving.
func NewParallelScanLockstep(st schema.Store, workers int) *ParallelScan {
	p := NewParallelScan(st, workers)
	p.lockstep = true
	return p
}

func (p *ParallelScan) workerCount() int             { return p.workers }
func (p *ParallelScan) fallbackSlots() []ledger.Slot { return p.fallback }

// Open implements Operator: resets the morsel counter and, in concurrent
// mode, launches the workers.
func (p *ParallelScan) Open(ctx *Ctx) error {
	p.reopen()
	reopenWorkerSlots(p)
	p.nextMorsel.Store(0)
	p.buf, p.pos = nil, 0
	if p.lockstep {
		if p.lsCur != nil {
			p.lsCur.Close()
			p.lsCur = nil
		}
		return nil
	}
	p.g.start(p.workers, func(w int) error { return p.runWorker(ctx, w) })
	return nil
}

// runWorker claims morsels until they run out, marking the worker's
// sub-slot done at exhaustion (the node is done when all workers are).
func (p *ParallelScan) runWorker(ctx *Ctx, w int) error {
	slot := workerSlot(p, w)
	for {
		m := int(p.nextMorsel.Add(1)) - 1
		if m >= p.morsels {
			slot.MarkDone()
			return nil
		}
		stopped, err := p.scanMorsel(ctx, m, slot)
		if err != nil || stopped {
			return err
		}
	}
}

// scanMorsel drains morsel m through a store cursor, crediting rows plus
// weighted read units to slot and shipping batches to the reader. stopped
// reports a quit-initiated exit (reader closed early).
func (p *ParallelScan) scanMorsel(ctx *Ctx, m int, slot *ledger.Slot) (stopped bool, err error) {
	lo, hi := p.Src.AlignWindow(m, p.morsels)
	if lo >= hi {
		return false, nil
	}
	cur, err := p.Src.OpenCursor(lo, hi)
	if err != nil {
		return false, err
	}
	defer cur.Close()
	want := ctx.batchSize()
	for {
		wb := p.g.getBatch()
		var units int64
		eof := false
		for wb.Len() < want {
			rows, u, err := cur.NextChunk(want - wb.Len())
			if err != nil {
				p.g.putBatch(wb)
				return false, err
			}
			units += u
			if len(rows) == 0 {
				eof = true
				break
			}
			wb.Rows = append(wb.Rows, rows...)
		}
		if err := creditWorker(ctx, slot, int64(wb.Len())+units, int64(wb.Len())); err != nil {
			p.g.putBatch(wb)
			return false, err
		}
		if wb.Len() == 0 {
			p.g.putBatch(wb)
			return false, nil
		}
		if !p.g.send(wb) {
			return true, nil
		}
		if eof {
			return false, nil
		}
	}
}

// lockstepFill refills p.buf with the next non-empty batch, claiming and
// draining morsels on the caller's goroutine. Morsel m's rows are credited
// to sub-slot m % workers — the same slot occupancy a perfectly balanced
// concurrent run produces. It reports false once every morsel is drained,
// after marking all worker sub-slots done (the reader owns every slot in
// lockstep mode).
func (p *ParallelScan) lockstepFill(ctx *Ctx) (bool, error) {
	want := ctx.batchSize()
	for {
		if p.lsCur == nil {
			m := int(p.nextMorsel.Add(1)) - 1
			if m >= p.morsels {
				for w := 0; w < p.workers; w++ {
					workerSlot(p, w).MarkDone()
				}
				return false, nil
			}
			lo, hi := p.Src.AlignWindow(m, p.morsels)
			if lo >= hi {
				continue
			}
			cur, err := p.Src.OpenCursor(lo, hi)
			if err != nil {
				return false, err
			}
			p.lsCur = cur
			p.lsSlot = workerSlot(p, m%p.workers)
		}
		p.lsBuf.Reset()
		var units int64
		for p.lsBuf.Len() < want {
			rows, u, err := p.lsCur.NextChunk(want - p.lsBuf.Len())
			if err != nil {
				return false, err
			}
			units += u
			if len(rows) == 0 {
				p.lsCur.Close()
				p.lsCur = nil
				break
			}
			p.lsBuf.Rows = append(p.lsBuf.Rows, rows...)
		}
		if err := creditWorker(ctx, p.lsSlot, int64(p.lsBuf.Len())+units, int64(p.lsBuf.Len())); err != nil {
			return false, err
		}
		if p.lsBuf.Len() > 0 {
			p.buf, p.pos = &p.lsBuf, 0
			return true, nil
		}
	}
}

// Next implements Operator: hands out rows from worker batches with no
// additional accounting — the workers credited their sub-slots when the
// rows were scanned.
func (p *ParallelScan) Next(ctx *Ctx) (schema.Row, bool, error) {
	for {
		if p.buf != nil && p.pos < p.buf.Len() {
			if ctx.canceled.Load() {
				return nil, false, ErrCanceled
			}
			row := p.buf.Rows[p.pos]
			p.pos++
			return row, true, nil
		}
		if p.lockstep {
			p.buf = nil
			ok, err := p.lockstepFill(ctx)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			continue
		}
		if p.buf != nil {
			p.g.putBatch(p.buf)
			p.buf = nil
		}
		wb, ok := <-p.g.ch
		if !ok {
			if err := p.g.err(); err != nil {
				return nil, false, err
			}
			return nil, false, nil
		}
		p.buf, p.pos = wb, 0
	}
}

// NextBatch implements BatchOperator: one worker batch per pull, appended
// into the caller's buffer. Accounting happened worker-side under the
// engine's active regime (bulk or exact), so no fastPath branch is needed.
func (p *ParallelScan) NextBatch(ctx *Ctx, b *Batch) error {
	b.Reset()
	if ctx.canceled.Load() {
		return ErrCanceled
	}
	if p.lockstep {
		if p.buf != nil && p.pos < p.buf.Len() {
			b.Rows = append(b.Rows, p.buf.Rows[p.pos:]...)
			p.buf = nil
			return nil
		}
		p.buf = nil
		ok, err := p.lockstepFill(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		b.Rows = append(b.Rows, p.buf.Rows...)
		p.buf = nil
		return nil
	}
	if p.buf != nil {
		if p.pos < p.buf.Len() {
			b.Rows = append(b.Rows, p.buf.Rows[p.pos:]...)
		}
		p.g.putBatch(p.buf)
		p.buf = nil
		if b.Len() > 0 {
			return nil
		}
	}
	wb, ok := <-p.g.ch
	if !ok {
		return p.g.err()
	}
	b.Rows = append(b.Rows, wb.Rows...)
	p.g.putBatch(wb)
	return nil
}

// Close implements Operator.
func (p *ParallelScan) Close() error {
	p.g.stop()
	p.buf = nil
	if p.lsCur != nil {
		err := p.lsCur.Close()
		p.lsCur = nil
		return err
	}
	return nil
}

// Children implements Operator: the morsel scan is a leaf.
func (p *ParallelScan) Children() []Operator { return nil }

// Name implements Operator.
func (p *ParallelScan) Name() string {
	return fmt.Sprintf("ParallelScan(%s, w=%d)", p.Src.StoreName(), p.workers)
}

// FinalBounds implements Operator: the workers jointly scan every stored row
// exactly once, plus up to MaxReadUnits weighted units cold — identical to a
// serial whole-store Scan, because worker count never changes the work.
func (p *ParallelScan) FinalBounds([]CardBounds) CardBounds {
	n := p.Src.Cardinality()
	b := CardBounds{LB: n, UB: n}
	if rc, ok := p.Src.(schema.ReadCoster); ok {
		b.UB = SatAdd(b.UB, rc.MaxReadUnits(0, int(n)))
	}
	return b
}

// DeliveredBounds implements DeliveredBounder: every stored row is handed to
// the parent; weighted read units inflate this node's call count only.
func (p *ParallelScan) DeliveredBounds() CardBounds {
	n := p.Src.Cardinality()
	return CardBounds{LB: n, UB: n}
}

// MaxReadUnits implements WeightedLeaf.
func (p *ParallelScan) MaxReadUnits() int64 {
	if rc, ok := p.Src.(schema.ReadCoster); ok {
		return rc.MaxReadUnits(0, int(p.Src.Cardinality()))
	}
	return 0
}

// StreamChildren implements Operator.
func (p *ParallelScan) StreamChildren() []int { return nil }

// BlockingChildren implements Operator.
func (p *ParallelScan) BlockingChildren() []int { return nil }
