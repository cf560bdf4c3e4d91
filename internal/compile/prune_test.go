package compile

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/tpch"
)

// Column pruning narrows what a HashJoin outputs; it must not move the plan
// tree, any node's GetNext counts, or the result. The golden file holds, per
// query, the fingerprint the compiler produced before pruning existed (with
// WHERE predicates on a LEFT JOIN's build side already filtering above the
// join): the pre-order plan node names, each node's final (Returned,
// Delivered), the row count and an order-insensitive checksum of the result.

// pruneCase is one query of the sameness check. joins lists, in plan
// pre-order, the qualified output columns each inner or left outer
// HashJoin must carry after pruning (semi and anti joins emit their probe
// rows unchanged and are not listed).
type pruneCase struct {
	name  string
	sql   string
	joins [][]string
}

var pruneCases = []pruneCase{
	// The five serve-analytic queries.
	{"analytic-returnflag",
		"SELECT l_returnflag, COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY l_returnflag",
		[][]string{{"lineitem.l_returnflag"}}},
	{"analytic-mktsegment",
		"SELECT c_mktsegment, COUNT(*) FROM customer, orders, lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_quantity < 25 GROUP BY c_mktsegment",
		[][]string{{"customer.c_mktsegment"}, {"customer.c_mktsegment", "orders.o_orderkey"}}},
	{"analytic-priority",
		"SELECT o_orderpriority, COUNT(*), MAX(l_extendedprice) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_shipdate > DATE '1995-01-01' GROUP BY o_orderpriority",
		[][]string{{"orders.o_orderpriority", "lineitem.l_extendedprice"}}},
	{"analytic-shipmode",
		"SELECT l_shipmode, COUNT(*), MIN(o_totalprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate < DATE '1996-01-01' GROUP BY l_shipmode",
		[][]string{{"lineitem.l_shipmode", "orders.o_totalprice"}}},
	{"analytic-nation",
		"SELECT c_nationkey, COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey AND o_orderpriority = '1-URGENT' GROUP BY c_nationkey",
		[][]string{{"customer.c_nationkey"}}},

	// HAVING and ORDER BY on columns the select list does not carry.
	{"having-unselected",
		"SELECT o_orderpriority, COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey GROUP BY o_orderpriority HAVING MAX(l_quantity) > 10 ORDER BY SUM(l_extendedprice)",
		[][]string{{"orders.o_orderpriority", "lineitem.l_quantity", "lineitem.l_extendedprice"}}},
	{"orderby-unselected",
		"SELECT o_orderkey, l_linenumber FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_totalprice > 5300 ORDER BY l_shipdate, o_orderkey, l_linenumber",
		[][]string{{"orders.o_orderkey", "lineitem.l_linenumber", "lineitem.l_shipdate"}}},
	// A WHERE on the build side of a LEFT JOIN filters above the join, so
	// the build column survives it.
	{"left-join-where",
		"SELECT o_orderstatus, COUNT(*) FROM orders LEFT JOIN lineitem ON o_orderkey = l_orderkey WHERE l_quantity < 10 GROUP BY o_orderstatus",
		[][]string{{"orders.o_orderstatus", "lineitem.l_quantity"}}},
	// Outer columns a subquery references survive the joins below it.
	{"exists-correlated",
		"SELECT c.c_mktsegment, COUNT(*) FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND EXISTS (SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > 45) GROUP BY c.c_mktsegment",
		[][]string{{"customer.c_mktsegment", "orders.o_orderkey"}}},
	{"not-exists-correlated",
		"SELECT c_mktsegment, COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey AND NOT EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 45) GROUP BY c_mktsegment",
		[][]string{{"customer.c_mktsegment", "orders.o_orderkey"}}},
	{"in-subquery",
		"SELECT o_orderpriority, COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey AND o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_discount > 0.09) GROUP BY o_orderpriority",
		[][]string{{"orders.o_orderkey", "orders.o_orderpriority"}}},
	// SELECT * keeps every column.
	{"select-star",
		"SELECT * FROM nation, region WHERE n_regionkey = r_regionkey",
		[][]string{{"nation.n_nationkey", "nation.n_name", "nation.n_regionkey",
			"region.r_regionkey", "region.r_name"}}},
	// s_suppkey is read only by the second join: the first keeps it, the
	// second drops it.
	{"three-way-later-key",
		"SELECT n_name, COUNT(*) FROM nation, supplier, partsupp WHERE n_nationkey = s_nationkey AND s_suppkey = ps_suppkey GROUP BY n_name",
		[][]string{{"nation.n_name"}, {"nation.n_name", "supplier.s_suppkey"}}},
	// Nothing above the join reads a column: zero-width rows.
	{"count-star-only",
		"SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey",
		[][]string{{}}},
}

// pruneFingerprint is what pruning must leave unchanged.
type pruneFingerprint struct {
	Nodes    []string   `json:"nodes"`
	Ledger   [][2]int64 `json:"ledger"` // per node: Returned, Delivered
	Rows     int        `json:"rows"`
	Checksum string     `json:"checksum"`
}

var (
	pruneCatOnce sync.Once
	pruneCat     *catalog.Catalog
)

// pruneCatalog is the serve-analytic database: TPC-H SF 0.01, z=2, seed 42.
func pruneCatalog() *catalog.Catalog {
	pruneCatOnce.Do(func() {
		pruneCat = tpch.Generate(tpch.Config{SF: 0.01, Z: 2, Seed: 42})
	})
	return pruneCat
}

// rowChecksum is an order-insensitive checksum of a result: the sorted
// rendered rows hashed with FNV-1a.
func rowChecksum(rows []schema.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fingerprint compiles and runs sql under the given engine and returns the
// plan shape, final per-node ledger and result digest.
func fingerprint(t *testing.T, sql string, batch bool) (pruneFingerprint, exec.Operator) {
	t.Helper()
	op, err := CompileSQL(pruneCatalog(), sql)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	run := exec.Run
	if batch {
		run = exec.RunBatch
	}
	rows, err := run(exec.NewCtx(), op)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	fp := pruneFingerprint{Rows: len(rows), Checksum: rowChecksum(rows)}
	exec.Walk(op, func(o exec.Operator) {
		s := exec.NodeSnapshot(o)
		fp.Nodes = append(fp.Nodes, o.Name())
		fp.Ledger = append(fp.Ledger, [2]int64{s.Returned, s.Delivered})
	})
	return fp, op
}

func TestPruningPreservesPlansLedgersAndResults(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "prune_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]pruneFingerprint
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, tc := range pruneCases {
		t.Run(tc.name, func(t *testing.T) {
			want, ok := golden[tc.name]
			if !ok {
				t.Fatalf("no golden fingerprint for %s", tc.name)
			}
			for _, batch := range []bool{false, true} {
				got, op := fingerprint(t, tc.sql, batch)
				if g, w := strings.Join(got.Nodes, " / "), strings.Join(want.Nodes, " / "); g != w {
					t.Fatalf("batch=%v plan changed:\n got  %s\n want %s", batch, g, w)
				}
				for i := range want.Ledger {
					if got.Ledger[i] != want.Ledger[i] {
						t.Errorf("batch=%v node %d %s: (Returned, Delivered) = %v, want %v",
							batch, i, want.Nodes[i], got.Ledger[i], want.Ledger[i])
					}
				}
				if got.Rows != want.Rows || got.Checksum != want.Checksum {
					t.Errorf("batch=%v result: %d rows checksum %s, want %d rows checksum %s",
						batch, got.Rows, got.Checksum, want.Rows, want.Checksum)
				}
				checkJoinColumns(t, op, tc.joins)
			}
		})
	}
}

// checkJoinColumns asserts each inner or left outer HashJoin, in plan
// pre-order, carries exactly the wanted qualified columns.
func checkJoinColumns(t *testing.T, op exec.Operator, want [][]string) {
	t.Helper()
	var got [][]string
	exec.Walk(op, func(o exec.Operator) {
		j, ok := o.(*exec.HashJoin)
		if !ok || j.Mode == exec.SemiJoin || j.Mode == exec.AntiJoin {
			return
		}
		cols := []string{}
		for _, c := range j.Schema().Columns {
			cols = append(cols, c.QualifiedName())
		}
		got = append(got, cols)
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("join output columns:\n got  %v\n want %v", got, want)
	}
}

// TestJoinAggAllocsScaleWithBatches is the allocation gate for the batch
// engine's join and aggregation: compiling and running join+agg over TPC-H
// SF 0.01 (75k input rows) may allocate a few objects per 1024-row input
// batch plus a fixed overhead, never one per row. A per-row allocation in
// the join's output path or the aggregation's fold adds tens of thousands.
func TestJoinAggAllocsScaleWithBatches(t *testing.T) {
	const (
		sql           = "SELECT l_returnflag, COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY l_returnflag"
		perBatch      = 8
		fixedOverhead = 400
	)
	cat := pruneCatalog()
	op, err := CompileSQL(cat, sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
		t.Fatal(err)
	}
	var batches int64
	exec.Walk(op, func(o exec.Operator) {
		if _, ok := o.(*exec.Scan); ok {
			rows := exec.NodeSnapshot(o).Returned
			batches += (rows + exec.DefaultBatchSize - 1) / exec.DefaultBatchSize
		}
	})
	allocs := testing.AllocsPerRun(3, func() {
		op, err := CompileSQL(cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.RunBatch(exec.NewCtx(), op); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(perBatch*batches + fixedOverhead); allocs > limit {
		t.Fatalf("join+agg allocated %.0f objects over %d input batches, limit %.0f", allocs, batches, limit)
	}
	t.Logf("join+agg: %.0f allocations over %d input batches", allocs, batches)
}
