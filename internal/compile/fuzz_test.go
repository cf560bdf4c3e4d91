package compile

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/core"
	"sqlprogress/internal/coretest"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Randomized cross-validation: generate random data and random queries from
// a constrained grammar, execute them through the full parse->compile->exec
// stack, and compare against an independent naive evaluator written
// directly over the in-memory rows.

type fuzzDB struct {
	cat *catalog.Catalog
	t1  [][3]int64 // a, b, c
	t2  [][2]int64 // d, e
}

func newFuzzDB(r *rand.Rand) *fuzzDB {
	db := &fuzzDB{cat: catalog.New(nil)}
	n1, n2 := 30+r.Intn(120), 20+r.Intn(80)
	rel1 := schema.NewRelation("t1", schema.New(
		schema.Column{Name: "a", Type: sqlval.KindInt},
		schema.Column{Name: "b", Type: sqlval.KindInt},
		schema.Column{Name: "c", Type: sqlval.KindInt},
	))
	for i := 0; i < n1; i++ {
		row := [3]int64{r.Int63n(10), r.Int63n(7), r.Int63n(100)}
		db.t1 = append(db.t1, row)
		rel1.Append(schema.Row{sqlval.Int(row[0]), sqlval.Int(row[1]), sqlval.Int(row[2])})
	}
	rel2 := schema.NewRelation("t2", schema.New(
		schema.Column{Name: "d", Type: sqlval.KindInt},
		schema.Column{Name: "e", Type: sqlval.KindInt},
	))
	for i := 0; i < n2; i++ {
		row := [2]int64{r.Int63n(10), r.Int63n(50)}
		db.t2 = append(db.t2, row)
		rel2.Append(schema.Row{sqlval.Int(row[0]), sqlval.Int(row[1])})
	}
	db.cat.AddRelation(rel1)
	db.cat.AddRelation(rel2)
	return db
}

// predicate is a simple comparison on one t1 column, shared by the SQL
// text and the naive evaluator.
type predicate struct {
	col int // 0=a 1=b 2=c
	op  string
	val int64
}

func (p predicate) sql() string {
	return fmt.Sprintf("%s %s %d", [3]string{"a", "b", "c"}[p.col], p.op, p.val)
}

func (p predicate) eval(row [3]int64) bool {
	v := row[p.col]
	switch p.op {
	case "=":
		return v == p.val
	case "<>":
		return v != p.val
	case "<":
		return v < p.val
	case "<=":
		return v <= p.val
	case ">":
		return v > p.val
	default:
		return v >= p.val
	}
}

func randPred(r *rand.Rand) predicate {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	col := r.Intn(3)
	max := []int64{10, 7, 100}[col]
	return predicate{col: col, op: ops[r.Intn(len(ops))], val: r.Int63n(max + 2)}
}

func canon(rows [][]int64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprintf("%d", v)
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func resultToInts(t *testing.T, rows []schema.Row) [][]int64 {
	t.Helper()
	out := make([][]int64, len(rows))
	for i, r := range rows {
		vals := make([]int64, len(r))
		for j, v := range r {
			switch v.Kind() {
			case sqlval.KindInt:
				vals[j] = v.AsInt()
			case sqlval.KindFloat:
				vals[j] = int64(v.AsFloat())
			case sqlval.KindNull:
				vals[j] = -999999
			default:
				t.Fatalf("unexpected kind %v", v.Kind())
			}
		}
		out[i] = vals
	}
	return out
}

func runFuzzSQL(t *testing.T, db *fuzzDB, sql string) [][]int64 {
	t.Helper()
	op, err := CompileSQL(db.cat, sql)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	rows, err := exec.Run(exec.NewCtx(), op)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return resultToInts(t, rows)
}

func compare(t *testing.T, sql string, got, want [][]int64) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("%s:\n got %d rows, want %d\n got:  %v\n want: %v", sql, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s:\n row %d: got %s, want %s", sql, i, g[i], w[i])
		}
	}
}

// Each family checks one query shape for one seed; the Test wrappers sweep
// fixed seed ranges as deterministic regressions, and FuzzDifferential
// explores arbitrary (seed, family) pairs under the native fuzzer.

func fuzzFilterProjection(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p1, p2 := randPred(r), randPred(r)
	conj := r.Intn(2) == 0
	connector := "AND"
	if !conj {
		connector = "OR"
	}
	sql := fmt.Sprintf("SELECT a, b, c FROM t1 WHERE %s %s %s", p1.sql(), connector, p2.sql())
	var want [][]int64
	for _, row := range db.t1 {
		keep := p1.eval(row) && p2.eval(row)
		if !conj {
			keep = p1.eval(row) || p2.eval(row)
		}
		if keep {
			want = append(want, []int64{row[0], row[1], row[2]})
		}
	}
	compare(t, sql, runFuzzSQL(t, db, sql), want)
}

func fuzzJoin(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p := randPred(r)
	sql := fmt.Sprintf("SELECT a, b, e FROM t1, t2 WHERE a = d AND %s", p.sql())
	var want [][]int64
	for _, r1 := range db.t1 {
		if !p.eval(r1) {
			continue
		}
		for _, r2 := range db.t2 {
			if r1[0] == r2[0] {
				want = append(want, []int64{r1[0], r1[1], r2[1]})
			}
		}
	}
	compare(t, sql, runFuzzSQL(t, db, sql), want)
}

func fuzzGroupByAggregates(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p := randPred(r)
	sql := fmt.Sprintf(
		"SELECT b, COUNT(*), SUM(c), MIN(c), MAX(c) FROM t1 WHERE %s GROUP BY b", p.sql())
	type agg struct{ cnt, sum, min, max int64 }
	groups := map[int64]*agg{}
	for _, row := range db.t1 {
		if !p.eval(row) {
			continue
		}
		g := groups[row[1]]
		if g == nil {
			g = &agg{min: row[2], max: row[2]}
			groups[row[1]] = g
		}
		g.cnt++
		g.sum += row[2]
		if row[2] < g.min {
			g.min = row[2]
		}
		if row[2] > g.max {
			g.max = row[2]
		}
	}
	var want [][]int64
	for b, g := range groups {
		want = append(want, []int64{b, g.cnt, g.sum, g.min, g.max})
	}
	compare(t, sql, runFuzzSQL(t, db, sql), want)
}

func fuzzJoinGroupBy(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	sql := "SELECT b, COUNT(*), SUM(e) FROM t1 JOIN t2 ON a = d GROUP BY b"
	type agg struct{ cnt, sum int64 }
	groups := map[int64]*agg{}
	for _, r1 := range db.t1 {
		for _, r2 := range db.t2 {
			if r1[0] != r2[0] {
				continue
			}
			g := groups[r1[1]]
			if g == nil {
				g = &agg{}
				groups[r1[1]] = g
			}
			g.cnt++
			g.sum += r2[1]
		}
	}
	var want [][]int64
	for b, g := range groups {
		want = append(want, []int64{b, g.cnt, g.sum})
	}
	compare(t, sql, runFuzzSQL(t, db, sql), want)
}

func fuzzSemiAntiJoin(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	exists := map[int64]bool{}
	for _, r2 := range db.t2 {
		exists[r2[0]] = true
	}
	for _, neg := range []bool{false, true} {
		kw := "EXISTS"
		if neg {
			kw = "NOT EXISTS"
		}
		sql := fmt.Sprintf(
			"SELECT a, c FROM t1 WHERE %s (SELECT 1 FROM t2 WHERE t2.d = t1.a)", kw)
		var want [][]int64
		for _, r1 := range db.t1 {
			if exists[r1[0]] != neg {
				want = append(want, []int64{r1[0], r1[2]})
			}
		}
		compare(t, sql, runFuzzSQL(t, db, sql), want)
	}
}

// fuzzProgressInvariants runs a fixed query set over seed-random data under
// a monitor and asserts the core invariants hold for arbitrary compiled
// plans, not just the hand-built experiment plans.
func fuzzProgressInvariants(t *testing.T, seed int64) {
	queries := []string{
		"SELECT a, b FROM t1 WHERE c > 50",
		"SELECT b, COUNT(*) FROM t1 GROUP BY b ORDER BY b",
		"SELECT a, e FROM t1, t2 WHERE a = d",
		"SELECT b, SUM(e) FROM t1 JOIN t2 ON a = d GROUP BY b ORDER BY b LIMIT 3",
		"SELECT a FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.d = t1.a) ORDER BY a",
	}
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	for _, sql := range queries {
		op, err := CompileSQL(db.cat, sql)
		if err != nil {
			t.Fatalf("compile %q: %v", sql, err)
		}
		checkProgressInvariants(t, sql, op)
	}
}

// fuzzParallelScan cross-validates the parallel access path: a morsel-driven
// ParallelScan of t1 over a seed-random worker count, concurrent and
// lockstep, under a Filter holding a random predicate, must produce exactly
// the naive evaluation's rows (order aside) — and the progress invariants
// must hold while the workers write their ledger sub-slots.
func fuzzParallelScan(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p := randPred(r)
	workers := 1 + r.Intn(4)
	rel := db.cat.MustRelation("t1")
	ops := map[string]expr.CmpOp{"=": expr.EQ, "<>": expr.NE, "<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE}
	var want [][]int64
	for _, row := range db.t1 {
		if p.eval(row) {
			want = append(want, []int64{row[0], row[1], row[2]})
		}
	}
	for _, lockstep := range []bool{false, true} {
		newScan := exec.NewParallelScan
		if lockstep {
			newScan = exec.NewParallelScanLockstep
		}
		build := func() exec.Operator {
			return exec.NewFilter(newScan(rel, workers), expr.Compare(ops[p.op],
				expr.NewCol(rel.Schema(), "", [3]string{"a", "b", "c"}[p.col]),
				expr.Literal(sqlval.Int(p.val))))
		}
		label := fmt.Sprintf("parallel scan(w=%d, lockstep=%v) WHERE %s", workers, lockstep, p.sql())
		rows, err := exec.Run(exec.NewCtx(), build())
		if err != nil {
			t.Fatalf("run %s: %v", label, err)
		}
		compare(t, label, resultToInts(t, rows), want)
		if lockstep {
			coretest.CheckProgressInvariants(t, label, build(), 1)
		} else {
			coretest.CheckParallelInvariants(t, label, build(), 1)
		}
	}
}

// fuzzBatchVsRow runs seed-random compiled queries under both the batch and
// the row engine and asserts full observational equivalence: identical
// result rows (in order), identical total GetNext calls, identical per-node
// ledger snapshots, and — at every batch quiesce point — bitwise-identical
// dne/pmax/safe estimates when the row engine is sampled at the same Curr.
// The query set deliberately mixes native-batch shapes (filters, hash
// joins, aggregates) with row-pull operators (LIMIT, anti-join rescans) so
// both execution regimes are exercised from the SQL surface.
func fuzzBatchVsRow(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p := randPred(r)
	queries := []string{
		fmt.Sprintf("SELECT a, b, c FROM t1 WHERE %s", p.sql()),
		"SELECT b, COUNT(*), SUM(c), MIN(c) FROM t1 GROUP BY b ORDER BY b",
		"SELECT a, e FROM t1, t2 WHERE a = d",
		"SELECT b, SUM(e) FROM t1 JOIN t2 ON a = d GROUP BY b ORDER BY b LIMIT 3",
		"SELECT a, c FROM t1 WHERE NOT EXISTS (SELECT 1 FROM t2 WHERE t2.d = t1.a)",
	}
	for _, sql := range queries {
		sql := sql
		build := func() exec.Operator {
			op, err := CompileSQL(db.cat, sql)
			if err != nil {
				t.Fatalf("compile %q: %v", sql, err)
			}
			return op
		}
		coretest.CheckBatchRowEquivalence(t, sql, build, false)
	}
}

// fuzzPagedVsMem compiles seed-random queries against two catalogs holding
// identical data — one keeping t1 in memory, the other serving it from a
// heap file through a cold buffer pool — and asserts full observational
// equivalence via the paged differential: identical result rows, identical
// total GetNext calls, identical final ledger snapshots, and
// bitwise-identical dne/pmax/safe estimator trails at every counted call,
// under both the row and the batch engine. t2 stays in-memory on both
// sides: EXISTS subqueries build a hash index over the inner table, an
// in-memory-only facility.
func fuzzPagedVsMem(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	p := randPred(r)
	pagedCat := catalog.New(nil)
	path := filepath.Join(t.TempDir(), "t1.heap")
	if err := pager.WriteRelation(path, db.cat.MustRelation("t1")); err != nil {
		t.Fatalf("write heap: %v", err)
	}
	if _, err := pagedCat.AttachHeapFile(path, pager.NewPool(4)); err != nil {
		t.Fatalf("attach heap: %v", err)
	}
	pagedCat.AddRelation(db.cat.MustRelation("t2"))
	queries := []string{
		fmt.Sprintf("SELECT a, b, c FROM t1 WHERE %s", p.sql()),
		"SELECT b, COUNT(*), SUM(c), MAX(c) FROM t1 GROUP BY b ORDER BY b",
		"SELECT a, e FROM t1, t2 WHERE a = d",
		"SELECT b, SUM(e) FROM t1 JOIN t2 ON a = d GROUP BY b ORDER BY b LIMIT 3",
		"SELECT a, c FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.d = t1.a)",
	}
	for _, sql := range queries {
		sql := sql
		build := func(cat *catalog.Catalog) exec.Operator {
			op, err := CompileSQL(cat, sql)
			if err != nil {
				t.Fatalf("compile %q: %v", sql, err)
			}
			return op
		}
		coretest.CheckPagedEquivalence(t, sql, db.cat, pagedCat, build, false)
	}
}

// permutedFuzzCatalog builds a second catalog holding exactly db's rows with
// both tables re-appended in a seeded-shuffled order. Statistics are rebuilt
// from the shuffled relations, so everything downstream of the catalog —
// histograms, indexes, compiled plans — derives from the permuted store.
func permutedFuzzCatalog(db *fuzzDB, r *rand.Rand) *catalog.Catalog {
	cat := catalog.New(nil)
	rel1 := schema.NewRelation("t1", schema.New(
		schema.Column{Name: "a", Type: sqlval.KindInt},
		schema.Column{Name: "b", Type: sqlval.KindInt},
		schema.Column{Name: "c", Type: sqlval.KindInt},
	))
	for _, i := range r.Perm(len(db.t1)) {
		row := db.t1[i]
		rel1.Append(schema.Row{sqlval.Int(row[0]), sqlval.Int(row[1]), sqlval.Int(row[2])})
	}
	rel2 := schema.NewRelation("t2", schema.New(
		schema.Column{Name: "d", Type: sqlval.KindInt},
		schema.Column{Name: "e", Type: sqlval.KindInt},
	))
	for _, i := range r.Perm(len(db.t2)) {
		row := db.t2[i]
		rel2.Append(schema.Row{sqlval.Int(row[0]), sqlval.Int(row[1])})
	}
	cat.AddRelation(rel1)
	cat.AddRelation(rel2)
	return cat
}

// orderMark is the end-of-run observable state the metamorphic family holds
// fixed across permutations: result multiset, total counted GetNext calls,
// the full per-node ledger, and the three headline estimators' final values.
type orderMark struct {
	rows            [][]int64
	calls           int64
	nodes           []ledger.Snapshot
	dne, pmax, safe float64
}

func runOrderMark(t *testing.T, cat *catalog.Catalog, sql string) orderMark {
	t.Helper()
	op, err := CompileSQL(cat, sql)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	tracker := core.NewTracker(op)
	ctx := exec.NewCtx()
	rows, err := exec.Run(ctx, op)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	s := tracker.Capture()
	return orderMark{
		rows:  resultToInts(t, rows),
		calls: ctx.Calls(),
		nodes: tracker.Ledger().SnapshotAll(nil),
		dne:   (core.Dne{}).Estimate(s),
		pmax:  (core.Pmax{}).Estimate(s),
		safe:  (core.Safe{}).Estimate(s),
	}
}

// fuzzOrderInvariance is the metamorphic order-invariance family: permuting
// the stored row order of both base tables must leave every end-of-run
// observable of an order-insensitive plan unchanged — the result multiset,
// the total counted GetNext calls, the final per-node ledger, and the final
// dne/pmax/safe estimates. The query set avoids LIMIT (whose work depends on
// which rows arrive first); ORDER BY is fine because results are compared as
// multisets and Sort consumes its input fully either way.
func fuzzOrderInvariance(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	perm := permutedFuzzCatalog(db, r)
	p := randPred(r)
	queries := []string{
		fmt.Sprintf("SELECT a, b, c FROM t1 WHERE %s", p.sql()),
		"SELECT b, COUNT(*), SUM(c), MIN(c), MAX(c) FROM t1 GROUP BY b",
		"SELECT a, e FROM t1, t2 WHERE a = d",
		"SELECT b, COUNT(*), SUM(e) FROM t1 JOIN t2 ON a = d GROUP BY b ORDER BY b",
		"SELECT a, c FROM t1 WHERE NOT EXISTS (SELECT 1 FROM t2 WHERE t2.d = t1.a)",
	}
	for _, sql := range queries {
		base := runOrderMark(t, db.cat, sql)
		shuf := runOrderMark(t, perm, sql)
		compare(t, sql, shuf.rows, base.rows)
		if base.calls != shuf.calls {
			t.Fatalf("%s: total calls changed under permutation: %d vs %d", sql, base.calls, shuf.calls)
		}
		if len(base.nodes) != len(shuf.nodes) {
			t.Fatalf("%s: ledger has %d slots vs %d under permutation", sql, len(base.nodes), len(shuf.nodes))
		}
		for i := range base.nodes {
			if base.nodes[i] != shuf.nodes[i] {
				t.Fatalf("%s: ledger slot %d changed under permutation: %+v vs %+v",
					sql, i, base.nodes[i], shuf.nodes[i])
			}
		}
		if base.dne != shuf.dne || base.pmax != shuf.pmax || base.safe != shuf.safe {
			t.Fatalf("%s: final estimates changed under permutation: dne %v/%v pmax %v/%v safe %v/%v",
				sql, base.dne, shuf.dne, base.pmax, shuf.pmax, base.safe, shuf.safe)
		}
	}
}

// fuzzParallelJoinAgg cross-validates the partitioned-parallel operators
// against their serial counterparts over seed-random data: a ParallelHashJoin
// (seed-chosen join mode and worker count) must produce the serial HashJoin's
// result multiset with identical total counted calls and an identical
// aggregate root-node snapshot — the workers' sub-slots summing to exactly
// the serial node's counters — and a ParallelAgg must reproduce HashAgg's
// groups value-for-value (COUNT/SUM/MIN/MAX over ints: exact merge). Both
// parallel plans then rerun under per-call sampling via
// CheckParallelInvariants, proving monotone non-crossing bounds while the
// workers write their ledger sub-slots concurrently.
func fuzzParallelJoinAgg(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	workers := 1 + r.Intn(4)
	modes := []exec.JoinMode{exec.InnerJoin, exec.LeftOuterJoin, exec.SemiJoin, exec.AntiJoin}
	mode := modes[r.Intn(len(modes))]
	b := plan.NewBuilder(db.cat)

	runPlan := func(label string, op exec.Operator) ([][]int64, int64, ledger.Snapshot) {
		ctx := exec.NewCtx()
		rows, err := exec.Run(ctx, op)
		if err != nil {
			t.Fatalf("run %s: %v", label, err)
		}
		return resultToInts(t, rows), ctx.Calls(), exec.NodeSnapshot(op)
	}

	joinLabel := fmt.Sprintf("pjoin(mode=%v,w=%d)", mode, workers)
	parJoin := func() exec.Operator {
		return b.ParallelHashJoin("t1", workers, b.Scan("t2"), "a", "d", mode).Op
	}
	wantRows, wantCalls, wantSnap := runPlan(joinLabel,
		b.Scan("t1").HashJoin(b.Scan("t2"), "a", "d", mode).Op)
	gotRows, gotCalls, gotSnap := runPlan(joinLabel, parJoin())
	compare(t, joinLabel, gotRows, wantRows)
	if gotCalls != wantCalls {
		t.Fatalf("%s: total calls %d, serial %d", joinLabel, gotCalls, wantCalls)
	}
	if gotSnap != wantSnap {
		t.Fatalf("%s: aggregate snapshot %+v, serial %+v", joinLabel, gotSnap, wantSnap)
	}
	coretest.CheckParallelInvariants(t, joinLabel, parJoin(), 1)

	aggLabel := fmt.Sprintf("pagg(w=%d)", workers)
	specs := []plan.AggSpec{
		{Kind: expr.AggCountStar, As: "n"},
		{Kind: expr.AggSum, Col: "c", As: "s"},
		{Kind: expr.AggMin, Col: "c", As: "lo"},
		{Kind: expr.AggMax, Col: "c", As: "hi"},
	}
	parAgg := func() exec.Operator {
		return b.ParallelAgg("t1", workers, 0, []string{"b"}, specs...).Op
	}
	wantRows, wantCalls, wantSnap = runPlan(aggLabel,
		b.Scan("t1").HashAgg(0, []string{"b"}, specs...).Op)
	gotRows, gotCalls, gotSnap = runPlan(aggLabel, parAgg())
	compare(t, aggLabel, gotRows, wantRows)
	if gotCalls != wantCalls {
		t.Fatalf("%s: total calls %d, serial %d", aggLabel, gotCalls, wantCalls)
	}
	if gotSnap != wantSnap {
		t.Fatalf("%s: aggregate snapshot %+v, serial %+v", aggLabel, gotSnap, wantSnap)
	}
	coretest.CheckParallelInvariants(t, aggLabel, parAgg(), 1)
}

// fuzzPrunedJoins cross-checks the query shapes column pruning must get
// right against the naive evaluator, under both engines: HAVING and ORDER BY
// on columns the select list drops, a WHERE on a LEFT JOIN's build side,
// subqueries reading an outer column nothing else reads, SELECT *, a
// three-way join whose key only the later join reads, and a COUNT(*)-only
// join whose joined rows carry no columns at all. A third table t3(f, g)
// joins the fuzz database for the three-way and subquery shapes.
func fuzzPrunedJoins(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	db := newFuzzDB(r)
	rel3 := schema.NewRelation("t3", schema.New(
		schema.Column{Name: "f", Type: sqlval.KindInt},
		schema.Column{Name: "g", Type: sqlval.KindInt},
	))
	var t3 [][2]int64
	for i, n := 0, 10+r.Intn(40); i < n; i++ {
		row := [2]int64{r.Int63n(60), r.Int63n(10)}
		t3 = append(t3, row)
		rel3.Append(schema.Row{sqlval.Int(row[0]), sqlval.Int(row[1])})
	}
	db.cat.AddRelation(rel3)
	k := r.Int63n(50)

	// join calls fn for every t1 ⋈ t2 pair on a = d.
	join := func(fn func(r1 [3]int64, r2 [2]int64)) {
		for _, r1 := range db.t1 {
			for _, r2 := range db.t2 {
				if r1[0] == r2[0] {
					fn(r1, r2)
				}
			}
		}
	}
	inT3 := func(v int64, ok func(g int64) bool) bool {
		for _, r3 := range t3 {
			if r3[0] == v && ok(r3[1]) {
				return true
			}
		}
		return false
	}
	anyG := func(int64) bool { return true }
	cases := map[string]func() [][]int64{
		fmt.Sprintf("SELECT b, COUNT(*) FROM t1, t2 WHERE a = d GROUP BY b HAVING MAX(e) > %d ORDER BY SUM(c)", k): func() [][]int64 {
			cnt, maxE := map[int64]int64{}, map[int64]int64{}
			join(func(r1 [3]int64, r2 [2]int64) {
				if cnt[r1[1]]++; cnt[r1[1]] == 1 || r2[1] > maxE[r1[1]] {
					maxE[r1[1]] = r2[1]
				}
			})
			var out [][]int64
			for b, n := range cnt {
				if maxE[b] > k {
					out = append(out, []int64{b, n})
				}
			}
			return out
		},
		"SELECT b, d FROM t1, t2 WHERE a = d ORDER BY e, c": func() [][]int64 {
			var out [][]int64
			join(func(r1 [3]int64, r2 [2]int64) { out = append(out, []int64{r1[1], r2[0]}) })
			return out
		},
		fmt.Sprintf("SELECT a, c FROM t1 LEFT JOIN t2 ON a = d WHERE e > %d", k): func() [][]int64 {
			var out [][]int64
			join(func(r1 [3]int64, r2 [2]int64) {
				if r2[1] > k {
					out = append(out, []int64{r1[0], r1[2]})
				}
			})
			return out
		},
		"SELECT a, c FROM t1 LEFT JOIN t2 ON a = d WHERE e IS NULL": func() [][]int64 {
			matched := map[int64]bool{}
			for _, r2 := range db.t2 {
				matched[r2[0]] = true
			}
			var out [][]int64
			for _, r1 := range db.t1 {
				if !matched[r1[0]] {
					out = append(out, []int64{r1[0], r1[2]})
				}
			}
			return out
		},
		"SELECT b, e FROM t1, t2 WHERE a = d AND EXISTS (SELECT 1 FROM t3 WHERE t3.f = t1.c)": func() [][]int64 {
			var out [][]int64
			join(func(r1 [3]int64, r2 [2]int64) {
				if inT3(r1[2], anyG) {
					out = append(out, []int64{r1[1], r2[1]})
				}
			})
			return out
		},
		fmt.Sprintf("SELECT b, e FROM t1, t2 WHERE a = d AND c IN (SELECT f FROM t3 WHERE g < %d)", k%10): func() [][]int64 {
			var out [][]int64
			join(func(r1 [3]int64, r2 [2]int64) {
				if inT3(r1[2], func(g int64) bool { return g < k%10 }) {
					out = append(out, []int64{r1[1], r2[1]})
				}
			})
			return out
		},
		"SELECT * FROM t1, t2 WHERE a = d": func() [][]int64 {
			var out [][]int64
			join(func(r1 [3]int64, r2 [2]int64) {
				out = append(out, []int64{r1[0], r1[1], r1[2], r2[0], r2[1]})
			})
			return out
		},
		"SELECT b, g FROM t1, t2, t3 WHERE a = d AND e = f": func() [][]int64 {
			var out [][]int64
			join(func(r1 [3]int64, r2 [2]int64) {
				for _, r3 := range t3 {
					if r2[1] == r3[0] {
						out = append(out, []int64{r1[1], r3[1]})
					}
				}
			})
			return out
		},
		"SELECT COUNT(*) FROM t1, t2 WHERE a = d": func() [][]int64 {
			var n int64
			join(func([3]int64, [2]int64) { n++ })
			return [][]int64{{n}}
		},
	}
	sqls := make([]string, 0, len(cases))
	for sql := range cases {
		sqls = append(sqls, sql)
	}
	sort.Strings(sqls)
	for _, sql := range sqls {
		want := cases[sql]()
		compare(t, sql, runFuzzSQL(t, db, sql), want)
		op, err := CompileSQL(db.cat, sql)
		if err != nil {
			t.Fatalf("compile %q: %v", sql, err)
		}
		rows, err := exec.RunBatch(exec.NewCtx(), op)
		if err != nil {
			t.Fatalf("run batch %q: %v", sql, err)
		}
		compare(t, sql+" (batch)", resultToInts(t, rows), want)
	}
}

// fuzzFamilies dispatches a fuzz input's kind byte to one query family.
var fuzzFamilies = []func(*testing.T, int64){
	fuzzFilterProjection,
	fuzzJoin,
	fuzzGroupByAggregates,
	fuzzJoinGroupBy,
	fuzzSemiAntiJoin,
	fuzzProgressInvariants,
	fuzzParallelScan,
	fuzzBatchVsRow,
	fuzzPagedVsMem,
	fuzzOrderInvariance,
	fuzzParallelJoinAgg,
	fuzzPrunedJoins,
}

// FuzzDifferential is the native-fuzzing entry point over all twelve
// differential families: the fuzzer explores (seed, family) pairs, every
// one of which must produce results identical to the naive evaluator (and
// clean progress invariants for the invariant families). The checked-in
// corpus under testdata/fuzz/FuzzDifferential seeds one input per family.
func FuzzDifferential(f *testing.F) {
	for kind := range fuzzFamilies {
		f.Add(int64(kind*100), byte(kind))
	}
	f.Fuzz(func(t *testing.T, seed int64, kind byte) {
		fuzzFamilies[int(kind)%len(fuzzFamilies)](t, seed)
	})
}

func TestFuzzFilterProjection(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		fuzzFilterProjection(t, seed)
	}
}

func TestFuzzJoin(t *testing.T) {
	for seed := int64(100); seed < 125; seed++ {
		fuzzJoin(t, seed)
	}
}

func TestFuzzGroupByAggregates(t *testing.T) {
	for seed := int64(200); seed < 225; seed++ {
		fuzzGroupByAggregates(t, seed)
	}
}

func TestFuzzJoinGroupBy(t *testing.T) {
	for seed := int64(300); seed < 320; seed++ {
		fuzzJoinGroupBy(t, seed)
	}
}

func TestFuzzSemiAntiJoin(t *testing.T) {
	for seed := int64(400); seed < 420; seed++ {
		fuzzSemiAntiJoin(t, seed)
	}
}

func TestFuzzProgressInvariantsOnRandomQueries(t *testing.T) {
	for seed := int64(500); seed < 510; seed++ {
		fuzzProgressInvariants(t, seed)
	}
}

func TestFuzzParallelScan(t *testing.T) {
	for seed := int64(600); seed < 615; seed++ {
		fuzzParallelScan(t, seed)
	}
}

func TestFuzzBatchVsRow(t *testing.T) {
	for seed := int64(700); seed < 712; seed++ {
		fuzzBatchVsRow(t, seed)
	}
}

func TestFuzzPagedVsMem(t *testing.T) {
	for seed := int64(800); seed < 812; seed++ {
		fuzzPagedVsMem(t, seed)
	}
}

func TestFuzzOrderInvariance(t *testing.T) {
	for seed := int64(900); seed < 912; seed++ {
		fuzzOrderInvariance(t, seed)
	}
}

func TestFuzzParallelJoinAgg(t *testing.T) {
	for seed := int64(1000); seed < 1012; seed++ {
		fuzzParallelJoinAgg(t, seed)
	}
}

func TestFuzzPrunedJoins(t *testing.T) {
	for seed := int64(1100); seed < 1112; seed++ {
		fuzzPrunedJoins(t, seed)
	}
}
