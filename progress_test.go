package sqlprogress

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sqlprogress/internal/core"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/tpch"
)

// progressPlans are the plans the sampling tests run: four built-in TPC-H
// plans of different shape (scan and aggregate, a join chain, an
// IN-subquery join, nested iteration with semi and anti joins) and one
// short selective SQL join whose root bound is small enough that the
// default period samples every call.
var progressPlans = []struct {
	label string
	tpch  int
	sql   string
}{
	{label: "q1", tpch: 1},
	{label: "q3", tpch: 3},
	{label: "q18", tpch: 18},
	{label: "q21", tpch: 21},
	{label: "short-join", sql: "SELECT COUNT(*), MAX(s_acctbal) FROM supplier, nation WHERE s_nationkey = n_nationkey AND n_regionkey = 2"},
}

// goldenKinds are the estimators recorded per update: safe as the headline
// plus one estimator per part of the State it reads (drivers, pipelines,
// leaf consumption, the tight bound, history).
var goldenKinds = []EstimatorKind{Safe, Dne, DneDynamic, HybridMu, LpSafe, Combiner}

var (
	progressDBOnce sync.Once
	progressDBVal  *DB
)

func progressDB() *DB {
	progressDBOnce.Do(func() { progressDBVal = OpenTPCH(0.005, 2, 42) })
	return progressDBVal
}

func progressQuery(t testing.TB, db *DB, i int) *Query {
	t.Helper()
	p := progressPlans[i]
	if p.sql != "" {
		q, err := db.Query(p.sql)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	op, err := tpch.BuildQuery(db.Catalog(), p.tpch)
	if err != nil {
		t.Fatal(err)
	}
	return WrapOperator(db, op)
}

// goldenOptions samples at the default period, so the golden file also
// pins the period choice.
func goldenOptions() ProgressOptions {
	return ProgressOptions{Estimator: goldenKinds[0], Extra: goldenKinds[1:]}
}

// goldenUpdate is one delivered update: the instant and every recorded
// estimator's output, in goldenKinds order.
type goldenUpdate struct {
	Calls     int64     `json:"calls"`
	Estimates []float64 `json:"estimates"`
}

func recordUpdates(t *testing.T, q *Query) []goldenUpdate {
	t.Helper()
	var out []goldenUpdate
	_, err := q.RunWithProgress(goldenOptions(), func(u ProgressUpdate) {
		g := goldenUpdate{Calls: u.Calls, Estimates: make([]float64, len(goldenKinds))}
		for i, k := range goldenKinds {
			g.Estimates[i] = u.Estimates[k]
		}
		if u.Estimate != g.Estimates[0] {
			t.Fatalf("headline estimate %v differs from %s's %v", u.Estimate, goldenKinds[0], g.Estimates[0])
		}
		out = append(out, g)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProgressUpdatesMatchGolden replays the sampled plans and compares
// every update's instant and estimates, bit for bit, with
// testdata/progress_golden.json. The file was recorded before sampling
// read its counters from the bounds pass's snapshot, so it pins that
// sampling instants, the default period and every delivered value stayed
// the same.
func TestProgressUpdatesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "progress_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]goldenUpdate
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	db := progressDB()
	for i, p := range progressPlans {
		t.Run(p.label, func(t *testing.T) {
			want, ok := golden[p.label]
			if !ok {
				t.Fatalf("no golden updates for %s", p.label)
			}
			got := recordUpdates(t, progressQuery(t, db, i))
			if len(got) != len(want) {
				t.Fatalf("%d updates, golden has %d", len(got), len(want))
			}
			for j := range got {
				if got[j].Calls != want[j].Calls {
					t.Fatalf("update %d at call %d, golden %d", j, got[j].Calls, want[j].Calls)
				}
				for k, kind := range goldenKinds {
					if math.Float64bits(got[j].Estimates[k]) != math.Float64bits(want[j].Estimates[k]) {
						t.Fatalf("update %d (call %d): %s = %v, golden %v", j, got[j].Calls, kind, got[j].Estimates[k], want[j].Estimates[k])
					}
				}
			}
		})
	}
}

// TestProgressUpdatesMatchFullWalk recomputes, inside the callback and so
// at the same instant, the full-walk bounds pass and a fresh ledger read,
// and checks each update's interval, safe estimate and per-node counters
// against them.
func TestProgressUpdatesMatchFullWalk(t *testing.T) {
	db := progressDB()
	for i, p := range progressPlans {
		t.Run(p.label, func(t *testing.T) {
			q := progressQuery(t, db, i)
			shape, led := core.ShapeOf(q.Plan())
			updates := 0
			_, err := q.RunWithProgress(ProgressOptions{}, func(u ProgressUpdate) {
				updates++
				snap := core.ComputeBounds(q.Plan())
				s := core.State{Curr: led.TotalReturned(), LB: max(snap.LB, 1)}
				s.UB = max(snap.UB, s.LB)
				lo, hi := s.Interval()
				if u.Calls != s.Curr || u.Lo != lo || u.Hi != hi {
					t.Fatalf("update at %d: [%v, %v], full walk at %d: [%v, %v]", u.Calls, u.Lo, u.Hi, s.Curr, lo, hi)
				}
				if want := (core.Safe{}).Estimate(&s); u.Estimate != want || u.Estimates[Safe] != want {
					t.Fatalf("update at %d: safe %v, full walk %v", u.Calls, u.Estimate, want)
				}
				nodes := led.SnapshotAll(nil)
				if len(u.Nodes) != len(nodes) {
					t.Fatalf("update has %d nodes, ledger %d", len(u.Nodes), len(nodes))
				}
				for id, rt := range nodes {
					want := NodeCount{
						ID:        int32(id),
						Name:      shape.Node(ledger.NodeID(id)).Name,
						Calls:     rt.Returned,
						Delivered: rt.Delivered,
						Rescans:   rt.Rescans,
						Done:      rt.Done,
					}
					if u.Nodes[id] != want {
						t.Fatalf("update at %d: node %d = %+v, ledger %+v", u.Calls, id, u.Nodes[id], want)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if updates == 0 {
				t.Fatal("no updates delivered")
			}
		})
	}
}

// TestRunWithProgressAllocsPerUpdate holds the sampling path to at most
// three allocations per delivered update (the Estimates map and the Nodes
// slice, which callers may retain) on top of the run's fixed cost. The
// short join samples every call; the same query with a period longer than
// the run delivers nothing and measures the fixed cost.
func TestRunWithProgressAllocsPerUpdate(t *testing.T) {
	db := progressDB()
	const short = 4
	measure := func(every int64) (allocs float64, updates int) {
		allocs = testing.AllocsPerRun(5, func() {
			updates = 0
			q := progressQuery(t, db, short)
			if _, err := q.RunWithProgress(ProgressOptions{Every: every}, func(ProgressUpdate) { updates++ }); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, updates
	}
	dense, n := measure(1)
	sparse, none := measure(1 << 40)
	if none != 0 || n < 50 {
		t.Fatalf("got %d dense and %d sparse updates; want at least 50 and 0", n, none)
	}
	perUpdate := (dense - sparse) / float64(n)
	t.Logf("%d updates: %.0f allocs sampled, %.0f unsampled, %.2f per update", n, dense, sparse, perUpdate)
	if dense > sparse+3*float64(n)+8 {
		t.Fatalf("%.2f allocations per update (%.0f sampled vs %.0f unsampled over %d updates), want at most 3", perUpdate, dense, sparse, n)
	}
}

// TestRunWithProgressNilCallback checks that a run without a callback
// returns Run's result at Run's cost: it still validates the estimators
// and refuses a second run, but installs no per-call hook, so it takes the
// batch fast path.
func TestRunWithProgressNilCallback(t *testing.T) {
	db := progressDB()
	opts := ProgressOptions{Extra: []EstimatorKind{Combiner, HybridVar}}
	for i, p := range progressPlans {
		want, err := progressQuery(t, db, i).Run()
		if err != nil {
			t.Fatal(err)
		}
		q := progressQuery(t, db, i)
		got, err := q.RunWithProgress(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: nil-callback result differs from Run's", p.label)
		}
		if _, err := q.RunWithProgress(opts, nil); err == nil {
			t.Fatalf("%s: second run of a used query succeeded", p.label)
		}
	}
	if _, err := progressQuery(t, db, 0).RunWithProgress(ProgressOptions{Estimator: "bogus"}, nil); err == nil {
		t.Fatal("unknown estimator accepted without a callback")
	}
	runAllocs := testing.AllocsPerRun(3, func() {
		if _, err := progressQuery(t, db, 0).Run(); err != nil {
			t.Fatal(err)
		}
	})
	nilAllocs := testing.AllocsPerRun(3, func() {
		if _, err := progressQuery(t, db, 0).RunWithProgress(opts, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("q1: Run %.0f allocs, RunWithProgress(nil) %.0f", runAllocs, nilAllocs)
	if nilAllocs > runAllocs+16 {
		t.Fatalf("RunWithProgress(nil) made %.0f allocations, Run %.0f; want at most 16 more", nilAllocs, runAllocs)
	}
}
