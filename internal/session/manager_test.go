package session

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/tpch"
)

var (
	catOnce sync.Once
	catMem  *catalog.Catalog
)

// testCatalog returns a shared tiny TPC-H catalog (generation dominates
// test time; the catalog itself is read-only under execution).
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	catOnce.Do(func() {
		catMem = tpch.Generate(tpch.Config{SF: 0.002, Z: 2, Seed: 7})
	})
	return catMem
}

// slowPlan builds a cross-product plan whose run is long enough to observe
// running state, samples, and mid-flight cancellation.
func slowPlan(cat *catalog.Catalog) exec.Operator {
	b := plan.NewBuilder(cat)
	return b.Cross(b.Scan("lineitem"), b.Scan("lineitem")).Op
}

// waitState polls until the session reaches a state satisfying ok.
func waitState(t *testing.T, s *Session, ok func(State) bool) State {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := s.State(); ok(st) {
			return st
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("session %s stuck in %s", s.ID(), s.State())
	return ""
}

func waitTerminal(t *testing.T, s *Session) State {
	return waitState(t, s, State.Terminal)
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := New(testCatalog(t), Config{SampleInterval: 100 * time.Microsecond})
	defer m.Close()
	s, err := m.Submit("SELECT COUNT(*) FROM lineitem", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s); st != StateFinished {
		t.Fatalf("state = %s, err = %v", st, s.Err())
	}
	in := s.Info()
	if in.RowCount != 1 || len(in.Rows) != 1 {
		t.Fatalf("rows = %d / %v", in.RowCount, in.Rows)
	}
	if in.Calls <= 0 {
		t.Fatalf("calls = %d", in.Calls)
	}
	if in.Progress == nil || !in.Progress.Final {
		t.Fatalf("missing final progress: %+v", in.Progress)
	}
	for name, v := range in.Progress.Estimates {
		if v < 0.999 {
			t.Fatalf("final %s estimate = %f, want 1.0", name, v)
		}
	}
	mt := m.Metrics()
	if mt.Admitted != 1 || mt.Completed != 1 {
		t.Fatalf("metrics: %+v", mt)
	}
}

func TestSubmitCompileErrorRejected(t *testing.T) {
	m := New(testCatalog(t), Config{})
	defer m.Close()
	if _, err := m.Submit("SELECT FROM FROM", SubmitOptions{}); err == nil {
		t.Fatal("want compile error")
	}
	if _, err := m.Submit("SELECT COUNT(*) FROM lineitem", SubmitOptions{Estimators: []string{"nope"}}); err == nil {
		t.Fatal("want estimator error")
	}
	if mt := m.Metrics(); mt.Rejected != 2 || mt.Admitted != 0 {
		t.Fatalf("metrics: %+v", mt)
	}
}

func TestQueueingAndShedding(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{MaxConcurrent: 2, MaxQueue: 2, SampleInterval: time.Millisecond})
	defer m.Close()

	// Fill both run slots with slow queries, then the queue, then shed.
	var all []*Session
	for i := 0; i < 4; i++ {
		s, err := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		all = append(all, s)
	}
	if _, err := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{}); !errors.Is(err, ErrShed) {
		t.Fatalf("5th submit err = %v, want ErrShed", err)
	}
	mt := m.Metrics()
	if mt.Shed != 1 || mt.Admitted != 4 {
		t.Fatalf("metrics: %+v", mt)
	}
	if mt.Active != 2 || mt.Queued != 2 {
		t.Fatalf("gauges: %+v", mt)
	}
	// Cancel a runner; a queued session must take the freed slot.
	if _, err := m.Cancel(all[0].ID(), ""); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, all[0])
	waitState(t, all[2], func(st State) bool { return st == StateRunning || st.Terminal() })
	for _, s := range all[1:] {
		m.Cancel(s.ID(), "")
	}
	for _, s := range all {
		if st := waitTerminal(t, s); st != StateCanceled {
			t.Fatalf("%s: state %s", s.ID(), st)
		}
	}
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{MaxConcurrent: 1, MaxQueue: 4, SampleInterval: time.Millisecond})
	defer m.Close()
	running, _ := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{})
	queued, _ := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{})
	if _, err := m.Cancel(queued.ID(), "changed my mind"); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued session state = %s", st)
	}
	in := queued.Info()
	if in.Started != nil || in.CancelReason != "changed my mind" {
		t.Fatalf("info: %+v", in)
	}
	m.Cancel(running.ID(), "")
	waitTerminal(t, running)
	if mt := m.Metrics(); mt.Canceled != 2 {
		t.Fatalf("metrics: %+v", mt)
	}
}

func TestCancelUnknownSession(t *testing.T) {
	m := New(testCatalog(t), Config{})
	defer m.Close()
	if _, err := m.Cancel("q999999", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Get("q999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadlineCancelsSession(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{SampleInterval: time.Millisecond})
	defer m.Close()
	s, err := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{Deadline: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s); st != StateCanceled {
		t.Fatalf("state = %s, err = %v", st, s.Err())
	}
	if in := s.Info(); in.CancelReason != "deadline exceeded" {
		t.Fatalf("reason = %q", in.CancelReason)
	}
}

func TestSubscribeStreamsAndCloses(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{SampleInterval: 200 * time.Microsecond})
	defer m.Close()
	b := plan.NewBuilder(cat)
	s, err := m.SubmitPlan(b.Cross(b.Scan("orders"), b.Scan("supplier")).Op, "orders x supplier", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub := s.Subscribe()
	defer unsub()
	var events []Progress
	for p := range ch {
		events = append(events, p)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if !last.Final || last.State != StateFinished {
		t.Fatalf("last event: %+v", last)
	}
	if est := last.Estimates["safe"]; est < 0.999 {
		t.Fatalf("final safe estimate = %f", est)
	}
	// Subscribing after the end yields the final event, then closure.
	ch2, unsub2 := s.Subscribe()
	defer unsub2()
	p, ok := <-ch2
	if !ok || !p.Final {
		t.Fatalf("late subscribe got %+v ok=%v", p, ok)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("late subscribe channel not closed")
	}
}

func TestCloseDrainsEverything(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{MaxConcurrent: 2, MaxQueue: 8, SampleInterval: time.Millisecond})
	var all []*Session
	for i := 0; i < 6; i++ {
		s, err := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, s)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if st := s.State(); !st.Terminal() {
			t.Fatalf("%s not terminal after Close: %s", s.ID(), st)
		}
	}
	// Admission is closed.
	if _, err := m.SubmitPlan(slowPlan(cat), "cross", SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Queued sessions must have been canceled without running.
	queuedCanceled := 0
	for _, s := range all {
		in := s.Info()
		if in.State == StateCanceled && in.Started == nil {
			queuedCanceled++
			if in.CancelReason != "server shutdown" {
				t.Fatalf("queued cancel reason = %q", in.CancelReason)
			}
		}
	}
	if queuedCanceled == 0 {
		t.Fatal("expected at least one queued session canceled by Close")
	}
	// Close is idempotent.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestListOrder(t *testing.T) {
	m := New(testCatalog(t), Config{MaxConcurrent: 1})
	defer m.Close()
	a, _ := m.Submit("SELECT COUNT(*) FROM supplier", SubmitOptions{})
	b, _ := m.Submit("SELECT COUNT(*) FROM region", SubmitOptions{})
	ls := m.List()
	if len(ls) != 2 || ls[0] != a || ls[1] != b {
		t.Fatalf("list = %v", ls)
	}
	waitTerminal(t, a)
	waitTerminal(t, b)
}

// TestNodeProgressDeltaStream verifies the ledger-delta stream: the final
// event carries every plan node's cumulative counters (all done, with the
// per-node calls summing to the session total), node names come from the
// plan shape, and intermediate events only re-send nodes that advanced.
func TestNodeProgressDeltaStream(t *testing.T) {
	m := New(testCatalog(t), Config{SampleInterval: 100 * time.Microsecond})
	defer m.Close()
	s, err := m.Submit("SELECT COUNT(*) FROM lineitem", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s); st != StateFinished {
		t.Fatalf("state = %s, err = %v", st, s.Err())
	}
	in := s.Info()
	if in.Progress == nil || !in.Progress.Final {
		t.Fatalf("missing final progress: %+v", in.Progress)
	}
	nodes := in.Progress.Nodes
	if len(nodes) == 0 {
		t.Fatal("final event has no node counters")
	}
	var sum int64
	for i, n := range nodes {
		if n.ID != int32(i) {
			t.Fatalf("node %d has id %d; final event must carry the dense id space", i, n.ID)
		}
		if n.Name == "" {
			t.Fatalf("node %d has no name", i)
		}
		if !n.Done {
			t.Fatalf("node %d (%s) not done at EOF", i, n.Name)
		}
		sum += n.Calls
	}
	if sum != in.Calls {
		t.Fatalf("per-node calls sum to %d, session total is %d", sum, in.Calls)
	}
}

// TestNodeProgressParallelPlan streams a parallel (morsel-scan) plan through
// a session and checks the aggregated per-node ledger counters account for
// every row exactly once: the workers' sub-slots sum transparently behind the
// scan's single NodeID.
func TestNodeProgressParallelPlan(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{SampleInterval: 100 * time.Microsecond})
	defer m.Close()
	b := plan.NewBuilder(cat)
	root := b.ParallelScan("lineitem", 4).ScalarAgg(plan.AggSpec{Kind: expr.AggCountStar, As: "n"}).Op
	s, err := m.SubmitPlan(root, "parallel count(lineitem)", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s); st != StateFinished {
		t.Fatalf("state = %s, err = %v", st, s.Err())
	}
	in := s.Info()
	nodes := in.Progress.Nodes
	// agg + morsel scan = 2 nodes; the scan's workers share one NodeID.
	if len(nodes) != 2 {
		t.Fatalf("final event has %d nodes, want 2", len(nodes))
	}
	card := cat.MustRelation("lineitem").Cardinality()
	if nodes[1].Calls != card {
		t.Fatalf("scan calls sum to %d, want %d", nodes[1].Calls, card)
	}
	if nodes[1].Delivered != card {
		t.Fatalf("scan delivered %d, want %d", nodes[1].Delivered, card)
	}
}

// TestFinishedSessionRetainsOnlyKeptRows checks a finished session holds a
// copy of its first KeepRows rows, not a view pinning the whole result.
func TestFinishedSessionRetainsOnlyKeptRows(t *testing.T) {
	const keep = 5
	m := New(testCatalog(t), Config{KeepRows: keep})
	defer m.Close()
	s, err := m.Submit("SELECT l_orderkey FROM lineitem", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s); st != StateFinished {
		t.Fatalf("state = %s, err = %v", st, s.Err())
	}
	s.mu.Lock()
	n, c, total := len(s.rows), cap(s.rows), s.rowCount
	s.mu.Unlock()
	if total <= keep {
		t.Fatalf("result has %d rows; the test needs more than %d", total, keep)
	}
	if n != keep || c > keep {
		t.Fatalf("retained len %d cap %d, want len %d and cap at most %d", n, c, keep, keep)
	}
}

// TestNodeCountersMatchEventInstant checks that an event's node counters
// and its Calls describe the same instant: on every event that lists every
// plan node, the nodes' counted calls sum to exactly the event's Curr.
// Node counters read after the capture would run ahead of it.
func TestNodeCountersMatchEventInstant(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{SampleInterval: 100 * time.Microsecond})
	defer m.Close()
	root := slowPlan(cat)
	nodes := 0
	exec.Walk(root, func(exec.Operator) { nodes++ })
	s, err := m.SubmitPlan(root, "slow", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub := s.Subscribe()
	defer unsub()
	full, seen := 0, 0
	check := func(p Progress) {
		seen++
		if len(p.Nodes) != nodes {
			return
		}
		full++
		var sum int64
		for _, n := range p.Nodes {
			sum += n.Calls
		}
		if sum != p.Calls {
			t.Errorf("event %d (final %v): node calls sum to %d, event Calls is %d", p.Seq, p.Final, sum, p.Calls)
		}
	}
	for p := range ch {
		check(p)
		if seen == 40 {
			if _, err := m.Cancel(s.ID(), "test"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := waitTerminal(t, s); st != StateCanceled {
		t.Fatalf("state = %s, err = %v", st, s.Err())
	}
	if full < 2 {
		t.Fatalf("only %d of %d events listed every node", full, seen)
	}
	t.Logf("%d of %d events listed all %d nodes", full, seen, nodes)
}
