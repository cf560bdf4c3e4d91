package session

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// terminalFieldsReleased reports which plan-bound fields a terminal session
// still holds.
func terminalFieldsReleased(s *Session) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var held []string
	if s.root != nil {
		held = append(held, "root")
	}
	if s.execCtx != nil {
		held = append(held, "execCtx")
	}
	if s.mon != nil {
		held = append(held, "mon")
	}
	if s.shape != nil {
		held = append(held, "shape")
	}
	if s.led != nil {
		held = append(held, "led")
	}
	if s.nodeScratch != nil {
		held = append(held, "nodeScratch")
	}
	if s.nodePrev != nil {
		held = append(held, "nodePrev")
	}
	return held
}

// TestTerminalSessionReleasesPlan checks that finished, canceled and
// never-run sessions drop their plan, context, monitor and per-node state,
// while Info, the final event and Samples stay as they were.
func TestTerminalSessionReleasesPlan(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Config{SampleInterval: 100 * time.Microsecond, MaxConcurrent: 1})
	defer m.Close()

	done, err := m.Submit("SELECT r_name, COUNT(*) FROM nation, region WHERE n_regionkey = r_regionkey GROUP BY r_name", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, done); st != StateFinished {
		t.Fatalf("state = %s, err = %v", st, done.Err())
	}
	in := done.Info()
	if in.RowCount != 5 || len(in.Rows) != 5 || len(in.Columns) != 2 || in.Calls <= 0 {
		t.Fatalf("finished info = %+v", in)
	}
	if in.Progress == nil || !in.Progress.Final || len(in.Progress.Nodes) == 0 {
		t.Fatalf("final event = %+v", in.Progress)
	}
	if smp := done.Samples(); len(smp) == 0 || smp[len(smp)-1].Calls != in.Calls {
		t.Fatalf("samples = %+v, want a series ending at %d", smp, in.Calls)
	}

	running, err := m.SubmitPlan(slowPlan(cat), "slow", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit("SELECT COUNT(*) FROM nation", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID(), "test"); err != nil {
		t.Fatal(err)
	}
	waitState(t, running, func(st State) bool { return st == StateRunning })
	if _, err := m.Cancel(running.ID(), "test"); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{done, running, queued} {
		st := waitTerminal(t, s)
		if held := terminalFieldsReleased(s); len(held) > 0 {
			t.Errorf("%s session %s still holds %v", st, s.ID(), held)
		}
	}
	if queued.Samples() != nil {
		t.Error("a session canceled before running has samples")
	}
}

// TestFinishedSessionsRetainLittleHeap bounds what a remembered finished
// short session keeps alive: 1,000 of them must retain at most 16 KB each.
// Before the terminal transition released the plan, each pinned its batch
// buffers and arena slabs (about 33 KB per session in the serving
// benchmark).
func TestFinishedSessionsRetainLittleHeap(t *testing.T) {
	const sessions, maxPerSession = 1000, 16 << 10
	m := New(testCatalog(t), Config{})
	defer m.Close()
	short := func(i int) string {
		k := i % 5
		switch i / 5 % 5 {
		case 0:
			return fmt.Sprintf("SELECT n_name FROM nation WHERE n_regionkey = %d", k)
		case 1:
			return fmt.Sprintf("SELECT COUNT(*) FROM supplier WHERE s_nationkey = %d", 3*k)
		case 2:
			return fmt.Sprintf("SELECT r_name, COUNT(*) FROM nation, region WHERE n_regionkey = r_regionkey AND r_regionkey <= %d GROUP BY r_name", k)
		case 3:
			return fmt.Sprintf("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = %d", 1+60*k)
		default:
			return fmt.Sprintf("SELECT COUNT(*), MAX(s_acctbal) FROM supplier, nation WHERE s_nationkey = n_nationkey AND n_regionkey = %d", k)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < sessions; i++ {
		s, err := m.Submit(short(i), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, s); st != StateFinished {
			t.Fatalf("%s: state = %s, err = %v", s.Text(), st, s.Err())
		}
	}
	after := heap()
	if n := len(m.List()); n != sessions {
		t.Fatalf("manager remembers %d sessions, want %d", n, sessions)
	}
	per := (int64(after) - int64(before)) / sessions
	t.Logf("retained %d B per finished session", per)
	if per > maxPerSession {
		t.Fatalf("each finished session retains %d B, want at most %d", per, maxPerSession)
	}
}
