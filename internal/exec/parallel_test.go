package exec

import (
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

func seqRel(name string, n int) *schema.Relation {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 7)}
	}
	return relOf(name, []string{"a", "b"}, rows)
}

// TestScanPartitionsDisjointCover: the probe partitions of the parallel join
// and aggregation tile the store exactly — disjoint windows whose exact
// bounds sum to its cardinality.
func TestScanPartitionsDisjointCover(t *testing.T) {
	rel := seqRel("r", 97)
	for _, parts := range []int{1, 2, 3, 4, 8, 97, 100} {
		covered := make([]bool, len(rel.Rows))
		var total int64
		for p := 0; p < parts; p++ {
			s := NewStoreScanPartition(rel, p, parts)
			lo, hi := s.window()
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Fatalf("parts=%d: position %d covered twice", parts, i)
				}
				covered[i] = true
			}
			b := s.FinalBounds(nil)
			if b.LB != b.UB || b.LB != int64(hi-lo) {
				t.Fatalf("parts=%d part=%d: bounds %+v != window size %d", parts, p, b, hi-lo)
			}
			total += b.LB
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("parts=%d: position %d not covered", parts, i)
			}
		}
		if total != rel.Cardinality() {
			t.Fatalf("parts=%d: windows sum to %d, want %d", parts, total, rel.Cardinality())
		}
	}
}

// joinInputs builds fresh probe/build relations for the parallel join tests:
// a skewed probe (many duplicate keys, some unmatched) and a build side with
// duplicate keys and rows that match nothing.
func joinInputs() (probe, build *schema.Relation) {
	probe = relOf("p", []string{"a", "x"}, nil)
	for i := int64(0); i < 400; i++ {
		probe.Append(schema.Row{sqlval.Int(i % 23), sqlval.Int(i)})
	}
	build = relOf("b", []string{"k", "y"}, nil)
	for i := int64(0); i < 60; i++ {
		build.Append(schema.Row{sqlval.Int(i % 31), sqlval.Int(1000 + i)})
	}
	return probe, build
}

func parallelJoinOf(probe, build *schema.Relation, workers int, mode JoinMode, lockstep bool) *ParallelHashJoin {
	parts := make([]Operator, workers)
	for i := range parts {
		parts[i] = NewStoreScanPartition(probe, i, workers)
	}
	sb := NewScan(build)
	bk := []expr.Expr{col(sb, "b", "k")}
	pk := []expr.Expr{col(parts[0], "p", "a")}
	if lockstep {
		return NewParallelHashJoinLockstep(sb, parts, bk, pk, mode)
	}
	return NewParallelHashJoin(sb, parts, bk, pk, mode)
}

func serialJoinOf(probe, build *schema.Relation, mode JoinMode) *HashJoin {
	sp := NewScan(probe)
	sb := NewScan(build)
	return NewHashJoin(sb, sp,
		[]expr.Expr{col(sb, "b", "k")}, []expr.Expr{col(sp, "p", "a")}, mode)
}

// TestParallelScanMatchesSerial: the morsel scan returns exactly the serial
// scan's rows with identical aggregate node counters and identical plan-total
// calls, for any worker count, under both engines.
func TestParallelScanMatchesSerial(t *testing.T) {
	rel := seqRel("r", 9973)
	want, err := Run(NewCtx(), NewScan(rel))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		for _, batch := range []bool{false, true} {
			p := NewParallelScan(rel, workers)
			ctx := NewCtx()
			var got []schema.Row
			if batch {
				got, err = RunBatch(ctx, p)
			} else {
				got, err = Run(ctx, p)
			}
			if err != nil {
				t.Fatalf("workers=%d batch=%v: %v", workers, batch, err)
			}
			sameRows(t, got, want, "morsel scan rows")
			snap := NodeSnapshot(p)
			if snap.Returned != rel.Cardinality() || snap.Delivered != rel.Cardinality() || !snap.Done {
				t.Fatalf("workers=%d batch=%v: aggregate snapshot %+v, want %d/%d done",
					workers, batch, snap, rel.Cardinality(), rel.Cardinality())
			}
			if calls := ctx.Calls(); calls != rel.Cardinality() {
				t.Fatalf("workers=%d batch=%v: %d calls, want %d", workers, batch, calls, rel.Cardinality())
			}
		}
	}
}

// TestParallelScanBounds: a morsel scan's bounds are a serial scan's — worker
// count never changes the work.
func TestParallelScanBounds(t *testing.T) {
	rel := seqRel("r", 500)
	serial := NewScan(rel).FinalBounds(nil)
	for _, workers := range []int{1, 3, 8} {
		if b := NewParallelScan(rel, workers).FinalBounds(nil); b != serial {
			t.Fatalf("workers=%d: bounds %+v, want serial %+v", workers, b, serial)
		}
	}
}

// TestParallelScanLockstepDeterministic: two lockstep runs produce identical
// row order and identical per-sub-slot occupancy; the aggregate equals a
// concurrent run's aggregate.
func TestParallelScanLockstepDeterministic(t *testing.T) {
	rel := seqRel("r", 9000)
	var firstRows []schema.Row
	var firstSlots []int64
	for i := 0; i < 2; i++ {
		p := NewParallelScanLockstep(rel, 3)
		led := EnsureLedger(p)
		rows, err := Run(NewCtx(), p)
		if err != nil {
			t.Fatal(err)
		}
		var slots []int64
		id := p.progressBase().id
		for w := 0; w < led.Workers(id); w++ {
			slots = append(slots, led.WorkerSlot(id, w).Returned())
		}
		if i == 0 {
			firstRows, firstSlots = rows, slots
			continue
		}
		if len(rows) != len(firstRows) {
			t.Fatalf("run %d: %d rows vs %d", i, len(rows), len(firstRows))
		}
		for j := range rows {
			if !rowsEqual(rows[j], firstRows[j]) {
				t.Fatalf("run %d: row %d differs (lockstep order not deterministic)", i, j)
			}
		}
		if !reflect.DeepEqual(slots, firstSlots) {
			t.Fatalf("run %d: sub-slot occupancy %v vs %v", i, slots, firstSlots)
		}
	}
	// Aggregate counters match a concurrent run.
	p := NewParallelScan(rel, 3)
	if _, err := Run(NewCtx(), p); err != nil {
		t.Fatal(err)
	}
	ls := NewParallelScanLockstep(rel, 3)
	if _, err := Run(NewCtx(), ls); err != nil {
		t.Fatal(err)
	}
	if a, b := NodeSnapshot(p), NodeSnapshot(ls); a != b {
		t.Fatalf("concurrent aggregate %+v != lockstep aggregate %+v", a, b)
	}
}

// TestParallelScanLockstepMatchesConcurrent: lockstep drain produces the
// concurrent scan's row multiset, global call count and final aggregate
// ledger, under both engines.
func TestParallelScanLockstepMatchesConcurrent(t *testing.T) {
	rel := seqRel("r", 9000)
	for _, batch := range []bool{false, true} {
		run := Run
		if batch {
			run = RunBatch
		}
		conc, lock := NewParallelScan(rel, 3), NewParallelScanLockstep(rel, 3)
		cctx, lctx := NewCtx(), NewCtx()
		want, err := run(cctx, conc)
		if err != nil {
			t.Fatalf("batch=%v concurrent: %v", batch, err)
		}
		got, err := run(lctx, lock)
		if err != nil {
			t.Fatalf("batch=%v lockstep: %v", batch, err)
		}
		sameRows(t, got, want, "lockstep morsel scan")
		if cctx.Calls() != lctx.Calls() {
			t.Fatalf("batch=%v: %d lockstep calls, want %d", batch, lctx.Calls(), cctx.Calls())
		}
		csnap := EnsureLedger(conc).SnapshotAll(nil)
		lsnap := EnsureLedger(lock).SnapshotAll(nil)
		if !reflect.DeepEqual(csnap, lsnap) {
			t.Fatalf("batch=%v: lockstep ledger %+v != concurrent %+v", batch, lsnap, csnap)
		}
		if !lsnap[0].Done {
			t.Fatalf("batch=%v: lockstep scan not marked done", batch)
		}
	}
}

// TestParallelScanRescan: reopening accumulates counters and surfaces a
// nonzero aggregate rescan count, voiding exactness as the protocol requires.
func TestParallelScanRescan(t *testing.T) {
	rel := seqRel("r", 300)
	p := NewParallelScan(rel, 4)
	first, err := Run(NewCtx(), p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(NewCtx(), p)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, second, first, "rescan rows")
	snap := NodeSnapshot(p)
	if snap.Rescans == 0 {
		t.Fatal("aggregate rescans = 0 after reopen")
	}
	if snap.Returned != 2*rel.Cardinality() {
		t.Fatalf("returned %d after rescan, want %d", snap.Returned, 2*rel.Cardinality())
	}
}

// TestParallelScanErrorAndCancel: injected faults and cancellation surface
// from worker goroutines exactly like the serial engine's errors.
func TestParallelScanErrorAndCancel(t *testing.T) {
	rel := seqRel("r", 5000)
	sentinel := errors.New("boom")
	ctx := NewCtx()
	ctx.Inject = func(calls int64) error {
		if calls == 97 {
			return sentinel
		}
		return nil
	}
	if _, err := Run(ctx, NewParallelScan(rel, 4)); !errors.Is(err, sentinel) {
		t.Fatalf("injected fault: got %v, want %v", err, sentinel)
	}

	ctx = NewCtx()
	ctx.Inject = func(calls int64) error {
		if calls == 123 {
			ctx.Cancel()
		}
		return nil
	}
	if _, err := Run(ctx, NewParallelScan(rel, 4)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel: got %v, want ErrCanceled", err)
	}
}

// The TestExchange* tests check the parallel scan in its role as the scan
// exchange: worker goroutines (or, in lockstep, the reader's own goroutine)
// filling disjoint single-writer sub-slots of one ledger node and handing
// rows to a single consumer.

// workerReturned lists the Returned count of each of p's worker sub-slots.
func workerReturned(p *ParallelScan) []int64 {
	led := EnsureLedger(p)
	id := p.progressBase().id
	out := make([]int64, led.Workers(id))
	for w := range out {
		out[w] = led.WorkerSlot(id, w).Returned()
	}
	return out
}

// TestExchangeMatchesSerialScan: for every worker count the exchange delivers
// every row of a small relation once, the node is marked done, its worker
// sub-slots hold disjoint shares summing to the cardinality, and the plan
// total is the serial scan's.
func TestExchangeMatchesSerialScan(t *testing.T) {
	rel := seqRel("r", 233)
	want, err := Run(NewCtx(), NewScan(rel))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		for _, p := range []*ParallelScan{NewParallelScan(rel, workers), NewParallelScanLockstep(rel, workers)} {
			ctx := NewCtx()
			got, err := Run(ctx, p)
			if err != nil {
				t.Fatalf("workers=%d lockstep=%v: %v", workers, p.lockstep, err)
			}
			sameRows(t, got, want, "parallel scan")
			if snap := NodeSnapshot(p); snap.Returned != rel.Cardinality() || !snap.Done {
				t.Fatalf("workers=%d lockstep=%v: aggregate %+v, want %d done", workers, p.lockstep, snap, rel.Cardinality())
			}
			shares := workerReturned(p)
			if len(shares) != workers {
				t.Fatalf("workers=%d lockstep=%v: %d sub-slots", workers, p.lockstep, len(shares))
			}
			var sum int64
			for _, n := range shares {
				sum += n
			}
			if sum != rel.Cardinality() {
				t.Fatalf("workers=%d lockstep=%v: sub-slots %v sum to %d, want %d", workers, p.lockstep, shares, sum, rel.Cardinality())
			}
			if calls := ctx.Calls(); calls != rel.Cardinality() {
				t.Fatalf("workers=%d lockstep=%v: %d calls, want %d", workers, p.lockstep, calls, rel.Cardinality())
			}
		}
	}
}

// TestExchangeErrorPropagation: a fault injected early in a small scan
// surfaces from the exchange in both modes.
func TestExchangeErrorPropagation(t *testing.T) {
	rel := seqRel("r", 200)
	sentinel := errors.New("boom")
	for _, p := range []*ParallelScan{NewParallelScan(rel, 4), NewParallelScanLockstep(rel, 4)} {
		ctx := NewCtx()
		ctx.Inject = func(calls int64) error {
			if calls == 37 {
				return sentinel
			}
			return nil
		}
		if _, err := Run(ctx, p); !errors.Is(err, sentinel) {
			t.Fatalf("lockstep=%v: got err %v, want %v", p.lockstep, err, sentinel)
		}
	}
}

// TestExchangeCancelPropagation: cancellation surfaces as ErrCanceled in both
// modes and leaves the counters coherent — no worker sub-slot and no plan
// total counts past the scan's bound.
func TestExchangeCancelPropagation(t *testing.T) {
	rel := seqRel("r", 200)
	for _, p := range []*ParallelScan{NewParallelScan(rel, 4), NewParallelScanLockstep(rel, 4)} {
		ctx := NewCtx()
		ctx.Inject = func(calls int64) error {
			if calls == 41 {
				ctx.Cancel()
			}
			return nil
		}
		if _, err := Run(ctx, p); !errors.Is(err, ErrCanceled) {
			t.Fatalf("lockstep=%v: got err %v, want ErrCanceled", p.lockstep, err)
		}
		ub := p.FinalBounds(nil).UB
		var sum int64
		for w, n := range workerReturned(p) {
			if n > ub {
				t.Fatalf("lockstep=%v: worker %d counted %d > bound %d", p.lockstep, w, n, ub)
			}
			sum += n
		}
		if snap := NodeSnapshot(p); snap.Returned != sum || sum > ub || ctx.Calls() > ub {
			t.Fatalf("lockstep=%v: aggregate %d, sub-slots %d, calls %d, bound %d",
				p.lockstep, snap.Returned, sum, ctx.Calls(), ub)
		}
	}
}

// TestExchangeRescan: reopening a concurrent exchange marks a rescan on every
// worker sub-slot and counters accumulate across runs (the paper's Curr is
// cumulative).
func TestExchangeRescan(t *testing.T) {
	rel := seqRel("r", 64)
	p := NewParallelScan(rel, 3)
	first, err := Run(NewCtx(), p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(NewCtx(), p)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, second, first, "rescan output")
	led := EnsureLedger(p)
	id := p.progressBase().id
	for w := 0; w < led.Workers(id); w++ {
		if r := led.WorkerSlot(id, w).Rescans(); r != 1 {
			t.Fatalf("worker %d rescans = %d, want 1", w, r)
		}
	}
	if n := NodeSnapshot(p).Returned; n != 2*rel.Cardinality() {
		t.Fatalf("returned %d after rescan, want %d", n, 2*rel.Cardinality())
	}
}

// TestExchangeLockstepDeterministic: under either engine, two lockstep runs
// deliver rows in the identical order and leave identical ledger trails —
// the property the concurrent exchange deliberately does not have and the
// evaluation matrix needs for byte-stable artifacts.
func TestExchangeLockstepDeterministic(t *testing.T) {
	rel := seqRel("r", 157)
	for _, batch := range []bool{false, true} {
		runOnce := func() ([]int64, []StatsSnapshot, []int64, int64) {
			p := NewParallelScanLockstep(rel, 4)
			ctx := NewCtx()
			ctx.BatchSize = 16
			run := Run
			if batch {
				run = RunBatch
			}
			out, err := run(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			order := make([]int64, len(out))
			for i, r := range out {
				order[i] = r[0].AsInt()
			}
			return order, EnsureLedger(p).SnapshotAll(nil), workerReturned(p), ctx.Calls()
		}
		o1, s1, w1, c1 := runOnce()
		o2, s2, w2, c2 := runOnce()
		if c1 != c2 || len(o1) != len(o2) || int64(len(o1)) != rel.Cardinality() {
			t.Fatalf("batch=%v: shape differs across runs: %d/%d rows, %d/%d calls", batch, len(o1), len(o2), c1, c2)
		}
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("batch=%v: delivery order differs across runs", batch)
		}
		if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(w1, w2) {
			t.Fatalf("batch=%v: ledger differs: %+v %v vs %+v %v", batch, s1, w1, s2, w2)
		}
	}
}

// TestExchangeLockstepRescan: a lockstep exchange survives Open→drain→
// Open→drain on one context like any operator.
func TestExchangeLockstepRescan(t *testing.T) {
	p := NewParallelScanLockstep(seqRel("r", 50), 4)
	ctx := NewCtx()
	first, err := Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, second, first, "lockstep rescan")
	if snap := NodeSnapshot(p); snap.Rescans == 0 || snap.Returned != 100 {
		t.Fatalf("after lockstep rescan: %+v, want 100 returned and a rescan", snap)
	}
}

// TestParallelScanUnderFilter: a predicate over a morsel scan sits in a
// Filter above it. Both modes deliver exactly the serial filtered rows, the
// scan counts every stored row while the filter delivers fewer, and the plan
// total equals the serial Scan+Filter plan's.
func TestParallelScanUnderFilter(t *testing.T) {
	rel := seqRel("r", 12000)
	filterOf := func(child Operator) *Filter {
		return NewFilter(child, expr.Compare(expr.EQ, col(child, "r", "b"), intLit(3)))
	}
	wantCtx := NewCtx()
	want, err := Run(wantCtx, filterOf(NewScan(rel)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, p := range []*ParallelScan{NewParallelScan(rel, workers), NewParallelScanLockstep(rel, workers)} {
			ctx := NewCtx()
			got, err := Run(ctx, filterOf(p))
			if err != nil {
				t.Fatalf("workers=%d lockstep=%v: %v", workers, p.lockstep, err)
			}
			sameRows(t, got, want, "filtered morsel scan")
			if n := NodeSnapshot(p).Returned; n != rel.Cardinality() {
				t.Fatalf("workers=%d lockstep=%v: scan counted %d, want %d", workers, p.lockstep, n, rel.Cardinality())
			}
			if calls := ctx.Calls(); calls != wantCtx.Calls() {
				t.Fatalf("workers=%d lockstep=%v: %d calls, serial plan %d", workers, p.lockstep, calls, wantCtx.Calls())
			}
		}
	}
}

// TestParallelScanPagedWeightedUnits: against a disk-backed store with a
// weighted read cost, the morsel workers credit physical read units to their
// own sub-slots and the aggregate equals the serial scan's total exactly —
// every page is read once regardless of which worker claimed it.
func TestParallelScanPagedWeightedUnits(t *testing.T) {
	rel := seqRel("r", 4000)
	path := filepath.Join(t.TempDir(), "r.heap")
	if err := pager.WriteRelation(path, rel); err != nil {
		t.Fatal(err)
	}
	hf, err := pager.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	want, err := Run(NewCtx(), NewScan(rel))
	if err != nil {
		t.Fatal(err)
	}
	serialPR := pager.NewPagedRelation(hf, pager.NewPool(2))
	serialPR.SetReadCost(2)
	serialCtx := NewCtx()
	if _, err := Run(serialCtx, NewStoreScan(serialPR)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		pr := pager.NewPagedRelation(hf, pager.NewPool(2))
		pr.SetReadCost(2)
		p := NewParallelScan(pr, workers)
		ctx := NewCtx()
		got, err := Run(ctx, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameRows(t, got, want, "paged morsel scan")
		if calls := ctx.Calls(); calls != serialCtx.Calls() {
			t.Fatalf("workers=%d: %d weighted calls, serial scan counted %d", workers, calls, serialCtx.Calls())
		}
	}
}

// TestParallelScanPagedIOStillCorrect runs morsel workers against a real
// disk-backed store through a pool smaller than the file — page-aligned
// morsels racing each other for two frames — and must produce exactly the
// serial in-memory rows and calls.
func TestParallelScanPagedIOStillCorrect(t *testing.T) {
	rel := seqRel("r", 4000)
	path := filepath.Join(t.TempDir(), "r.heap")
	if err := pager.WriteRelation(path, rel); err != nil {
		t.Fatal(err)
	}
	hf, err := pager.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	want, err := Run(NewCtx(), NewScan(rel))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		ctx := NewCtx()
		got, err := Run(ctx, NewParallelScan(pager.NewPagedRelation(hf, pager.NewPool(2)), workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameRows(t, got, want, "paged morsel scan")
		if calls := ctx.Calls(); calls != rel.Cardinality() {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls, rel.Cardinality())
		}
	}
}

// TestParallelScanConcurrentLedgerReaders runs a morsel scan while sampler
// goroutines hammer the ledger: samplers never touch the operator tree, and
// aggregating the worker sub-slots stays race-free and monotone against
// concurrent writers.
func TestParallelScanConcurrentLedgerReaders(t *testing.T) {
	rel := seqRel("r", 40000)
	p := NewParallelScan(rel, 4)
	led := EnsureLedger(p)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var snaps []StatsSnapshot
			var prevTotal, prevSnap int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snaps = led.SnapshotAll(snaps[:0])
				if snaps[0].Returned < prevSnap {
					t.Errorf("aggregate snapshot went backward: %d -> %d", prevSnap, snaps[0].Returned)
					return
				}
				prevSnap = snaps[0].Returned
				if tot := led.TotalReturned(); tot < prevTotal {
					t.Errorf("TotalReturned went backward: %d -> %d", prevTotal, tot)
					return
				} else {
					prevTotal = tot
				}
			}
		}()
	}
	_, err := Run(NewCtx(), p)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n := led.TotalReturned(); n != rel.Cardinality() {
		t.Fatalf("final TotalReturned = %d, want %d", n, rel.Cardinality())
	}
}

// TestParallelHashJoinMatchesSerial: for every join mode, the partitioned
// join produces the serial HashJoin's multiset with identical plan-total
// calls and an aggregate join-node snapshot equal to the serial node's.
func TestParallelHashJoinMatchesSerial(t *testing.T) {
	probe, build := joinInputs()
	for _, mode := range []JoinMode{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		serial := serialJoinOf(probe, build, mode)
		serialCtx := NewCtx()
		want, err := Run(serialCtx, serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []bool{false, true} {
				j := parallelJoinOf(probe, build, workers, mode, false)
				ctx := NewCtx()
				var got []schema.Row
				if batch {
					got, err = RunBatch(ctx, j)
				} else {
					got, err = Run(ctx, j)
				}
				if err != nil {
					t.Fatalf("mode=%v workers=%d batch=%v: %v", mode, workers, batch, err)
				}
				sameRows(t, got, want, "parallel join rows")
				if gc, wc := ctx.Calls(), serialCtx.Calls(); gc != wc {
					t.Fatalf("mode=%v workers=%d batch=%v: %d calls, serial %d", mode, workers, batch, gc, wc)
				}
				if gs, ws := NodeSnapshot(j), NodeSnapshot(serial); gs != ws {
					t.Fatalf("mode=%v workers=%d batch=%v: join snapshot %+v, serial %+v", mode, workers, batch, gs, ws)
				}
			}
		}
	}
}

// TestParallelHashJoinBoundsMatchSerial: summed probe-partition bounds feed
// the serial per-mode arithmetic, so the node's final bounds equal the serial
// join's for the same inputs.
func TestParallelHashJoinBoundsMatchSerial(t *testing.T) {
	probe, build := joinInputs()
	for _, mode := range []JoinMode{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		for _, linear := range []bool{false, true} {
			serial := serialJoinOf(probe, build, mode)
			serial.Linear = linear
			sb := []CardBounds{
				serial.Children()[0].FinalBounds(nil),
				serial.Children()[1].FinalBounds(nil),
			}
			want := serial.FinalBounds(sb)
			j := parallelJoinOf(probe, build, 3, mode, false)
			j.Linear = linear
			var ch []CardBounds
			for _, c := range j.Children() {
				ch = append(ch, c.FinalBounds(nil))
			}
			if got := j.FinalBounds(ch); got != want {
				t.Fatalf("mode=%v linear=%v: bounds %+v, serial %+v", mode, linear, got, want)
			}
		}
	}
}

// TestParallelHashJoinLockstepDeterministic: lockstep probing yields the same
// row order and the same per-sub-slot counts run after run.
func TestParallelHashJoinLockstepDeterministic(t *testing.T) {
	probe, build := joinInputs()
	var firstRows []schema.Row
	var firstSlots []int64
	for i := 0; i < 2; i++ {
		j := parallelJoinOf(probe, build, 3, InnerJoin, true)
		led := EnsureLedger(j)
		rows, err := Run(NewCtx(), j)
		if err != nil {
			t.Fatal(err)
		}
		var slots []int64
		id := j.progressBase().id
		for w := 0; w < led.Workers(id); w++ {
			slots = append(slots, led.WorkerSlot(id, w).Returned())
		}
		if i == 0 {
			firstRows, firstSlots = rows, slots
			continue
		}
		if len(rows) != len(firstRows) {
			t.Fatalf("run %d: %d rows vs %d", i, len(rows), len(firstRows))
		}
		for k := range rows {
			if !rowsEqual(rows[k], firstRows[k]) {
				t.Fatalf("run %d: row %d differs", i, k)
			}
		}
		if !reflect.DeepEqual(slots, firstSlots) {
			t.Fatalf("run %d: sub-slot occupancy %v vs %v", i, slots, firstSlots)
		}
	}
}

// TestParallelHashJoinRescan: the partitioned join replays exactly on reopen.
func TestParallelHashJoinRescan(t *testing.T) {
	probe, build := joinInputs()
	j := parallelJoinOf(probe, build, 3, InnerJoin, false)
	first, err := Run(NewCtx(), j)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(NewCtx(), j)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, second, first, "join rescan rows")
	if snap := NodeSnapshot(j); snap.Rescans == 0 {
		t.Fatalf("aggregate snapshot %+v, want nonzero rescans", snap)
	}
}

// TestParallelHashJoinErrorPropagation: a fault inside a probe partition
// subtree surfaces as the run's error.
func TestParallelHashJoinErrorPropagation(t *testing.T) {
	probe, build := joinInputs()
	sentinel := errors.New("boom")
	ctx := NewCtx()
	ctx.Inject = func(calls int64) error {
		if calls == 113 {
			return sentinel
		}
		return nil
	}
	if _, err := Run(ctx, parallelJoinOf(probe, build, 4, InnerJoin, false)); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want %v", err, sentinel)
	}
}

// aggPlanOf builds a fresh parallel aggregation over partition scans of rel.
func aggPlanOf(rel *schema.Relation, workers int, lockstep bool) *ParallelHashAgg {
	parts := make([]Operator, workers)
	for i := range parts {
		parts[i] = NewStoreScanPartition(rel, i, workers)
	}
	gb := []expr.Expr{col(parts[0], "big", "k")}
	aggs := []expr.Agg{
		{Kind: expr.AggCountStar, Name: "n"},
		{Kind: expr.AggSum, Arg: col(parts[0], "big", "v"), Name: "s"},
		{Kind: expr.AggAvg, Arg: col(parts[0], "big", "v"), Name: "a"},
		{Kind: expr.AggMin, Arg: col(parts[0], "big", "v"), Name: "lo"},
		{Kind: expr.AggMax, Arg: col(parts[0], "big", "v"), Name: "hi"},
	}
	names := []string{"k"}
	kinds := []sqlval.Kind{sqlval.KindInt}
	if lockstep {
		return NewParallelHashAggLockstep(parts, gb, names, kinds, aggs)
	}
	return NewParallelHashAgg(parts, gb, names, kinds, aggs)
}

func aggRel() *schema.Relation {
	rel := relOf("big", []string{"k", "v"}, nil)
	for i := int64(0); i < 3000; i++ {
		rel.Append(schema.Row{sqlval.Int(i % 41), sqlval.Int(i*3 - 700)})
	}
	return rel
}

// TestParallelHashAggMatchesSerial: the merged parallel aggregation emits
// exactly the serial HashAgg's groups — same order (both sort by key), same
// values for COUNT/SUM/AVG/MIN/MAX — with identical plan-total calls.
func TestParallelHashAggMatchesSerial(t *testing.T) {
	rel := aggRel()
	sc := NewScan(rel)
	serial := NewHashAgg(sc,
		[]expr.Expr{col(sc, "big", "k")}, []string{"k"}, []sqlval.Kind{sqlval.KindInt},
		[]expr.Agg{
			{Kind: expr.AggCountStar, Name: "n"},
			{Kind: expr.AggSum, Arg: col(sc, "big", "v"), Name: "s"},
			{Kind: expr.AggAvg, Arg: col(sc, "big", "v"), Name: "a"},
			{Kind: expr.AggMin, Arg: col(sc, "big", "v"), Name: "lo"},
			{Kind: expr.AggMax, Arg: col(sc, "big", "v"), Name: "hi"},
		})
	serialCtx := NewCtx()
	want, err := Run(serialCtx, serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5} {
		for _, batch := range []bool{false, true} {
			a := aggPlanOf(rel, workers, false)
			ctx := NewCtx()
			var got []schema.Row
			if batch {
				got, err = RunBatch(ctx, a)
			} else {
				got, err = Run(ctx, a)
			}
			if err != nil {
				t.Fatalf("workers=%d batch=%v: %v", workers, batch, err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d batch=%v: %d groups, want %d", workers, batch, len(got), len(want))
			}
			for i := range got {
				if !rowsEqual(got[i], want[i]) {
					t.Fatalf("workers=%d batch=%v: group %d = %v, want %v", workers, batch, i, got[i], want[i])
				}
			}
			if gc, wc := ctx.Calls(), serialCtx.Calls(); gc != wc {
				t.Fatalf("workers=%d batch=%v: %d calls, serial %d", workers, batch, gc, wc)
			}
			if gs, ws := NodeSnapshot(a), NodeSnapshot(serial); gs != ws {
				t.Fatalf("workers=%d batch=%v: agg snapshot %+v, serial %+v", workers, batch, gs, ws)
			}
		}
	}
}

// TestParallelHashAggLockstepDeterministic: lockstep folding is fully
// reproducible, and its output equals the concurrent merge's (the merge
// itself is order-fixed either way).
func TestParallelHashAggLockstepDeterministic(t *testing.T) {
	rel := aggRel()
	var first []schema.Row
	for i := 0; i < 2; i++ {
		a := aggPlanOf(rel, 3, true)
		rows, err := Run(NewCtx(), a)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rows
			continue
		}
		if len(rows) != len(first) {
			t.Fatalf("run %d: %d rows vs %d", i, len(rows), len(first))
		}
		for k := range rows {
			if !rowsEqual(rows[k], first[k]) {
				t.Fatalf("run %d: group %d differs", i, k)
			}
		}
	}
	conc, err := Run(NewCtx(), aggPlanOf(rel, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	for k := range conc {
		if !rowsEqual(conc[k], first[k]) {
			t.Fatalf("concurrent group %d differs from lockstep", k)
		}
	}
}

// TestParallelHashAggErrorPropagation: a fault during the blocking fold
// surfaces from Open.
func TestParallelHashAggErrorPropagation(t *testing.T) {
	rel := aggRel()
	sentinel := errors.New("boom")
	ctx := NewCtx()
	ctx.Inject = func(calls int64) error {
		if calls == 511 {
			return sentinel
		}
		return nil
	}
	if _, err := Run(ctx, aggPlanOf(rel, 4, false)); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want %v", err, sentinel)
	}
}

// TestParallelOpsNativeBatch pins vectorization status for the new operators.
func TestParallelOpsNativeBatch(t *testing.T) {
	rel := seqRel("r", 100)
	if !NativeBatch(NewParallelScan(rel, 2)) {
		t.Error("ParallelScan not NativeBatch")
	}
	probe, build := joinInputs()
	if !NativeBatch(parallelJoinOf(probe, build, 2, InnerJoin, false)) {
		t.Error("ParallelHashJoin not NativeBatch")
	}
	if !NativeBatch(aggPlanOf(aggRel(), 2, false)) {
		t.Error("ParallelHashAgg not NativeBatch")
	}
}
