package main

import (
	"fmt"

	"sqlprogress"
	"sqlprogress/internal/catalog"
	"sqlprogress/internal/compile"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/tpch"
)

// query is one distinct statement of a workload: SQL text, or the number of
// a built-in TPC-H physical plan.
type query struct {
	sql  string
	plan int
	// weight is how many times the query appears in each pass over the
	// distinct queries (0 means 1).
	weight int
}

func (q query) String() string {
	if q.plan > 0 {
		return fmt.Sprintf("tpch Q%d", q.plan)
	}
	return q.sql
}

// build compiles (SQL) or builds and wraps (TPC-H plan) a fresh Query.
func (q query) build(db *sqlprogress.DB) (*sqlprogress.Query, error) {
	if q.plan > 0 {
		op, err := tpch.BuildQuery(db.Catalog(), q.plan)
		if err != nil {
			return nil, err
		}
		return sqlprogress.WrapOperator(db, op), nil
	}
	return db.Query(q.sql)
}

// operator builds a fresh operator tree for the layer probes.
func (q query) operator(cat *catalog.Catalog) (exec.Operator, error) {
	if q.plan > 0 {
		return tpch.BuildQuery(cat, q.plan)
	}
	return compile.CompileSQL(cat, q.sql)
}

// workload is one traffic mix. Every round runs perRound queries: passes
// over the distinct queries (each repeated by its weight), in an order
// drawn from the seed.
type workload struct {
	name     string
	clients  int
	perRound int
	// segment is the number of completions per throughput sample.
	segment int
	queries []query
	// paged spills every table to heap files read through a buffer pool of
	// frames pages.
	paged  bool
	frames int
	// served submits each query over loopback HTTP to an in-process
	// progressd session server and follows its SSE stream to `done`.
	served bool
}

func sqlQueries(texts ...string) []query {
	qs := make([]query, len(texts))
	for i, s := range texts {
		qs[i] = query{sql: s}
	}
	return qs
}

// shortQueries are selective statements over the small tables: five
// templates, five constants each, every result at most 25 rows so the
// session keeps all of it (the server retains 50 rows per session).
func shortQueries() []query {
	var qs []query
	for k := 0; k < 5; k++ {
		qs = append(qs, sqlQueries(
			fmt.Sprintf("SELECT n_name FROM nation WHERE n_regionkey = %d", k),
			fmt.Sprintf("SELECT COUNT(*) FROM supplier WHERE s_nationkey = %d", 3*k),
			fmt.Sprintf("SELECT r_name, COUNT(*) FROM nation, region WHERE n_regionkey = r_regionkey AND r_regionkey <= %d GROUP BY r_name", k),
			fmt.Sprintf("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = %d", 1+300*k),
			fmt.Sprintf("SELECT COUNT(*), MAX(s_acctbal) FROM supplier, nation WHERE s_nationkey = n_nationkey AND n_regionkey = %d", k),
		)...)
	}
	return qs
}

func workloads() []workload {
	// Q1 and Q21 take about three times as long as any other plan. Two of
	// 21 plans are 9.5% of the mix, so the 90th percentile would fall on
	// the gap between them and the rest, where the tail of a single
	// mid-sized plan sets it. Running the two twice per pass puts it inside
	// their band.
	var plans []query
	for n := 1; n <= 21; n++ {
		q := query{plan: n}
		if n == 1 || n == 21 {
			q.weight = 2
		}
		plans = append(plans, q)
	}
	// serve-analytic and paged-cold have five distinct queries of clearly
	// different cost, so the median falls inside one query's latency band
	// and the 90th percentile inside the top one, not on a gap between two.
	return []workload{
		{name: "tpch-plans", clients: 1, perRound: 46, segment: 23, queries: plans},
		{name: "serve-short", clients: 2, perRound: 1000, segment: 100, served: true, queries: shortQueries()},
		{name: "serve-analytic", clients: 2, perRound: 40, segment: 10, served: true, queries: sqlQueries(
			"SELECT l_returnflag, COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY l_returnflag",
			"SELECT c_mktsegment, COUNT(*) FROM customer, orders, lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_quantity < 25 GROUP BY c_mktsegment",
			"SELECT o_orderpriority, COUNT(*), MAX(l_extendedprice) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_shipdate > DATE '1995-01-01' GROUP BY o_orderpriority",
			"SELECT l_shipmode, COUNT(*), MIN(o_totalprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate < DATE '1996-01-01' GROUP BY l_shipmode",
			"SELECT c_nationkey, COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey AND o_orderpriority = '1-URGENT' GROUP BY c_nationkey",
		)},
		{name: "paged-cold", clients: 2, perRound: 40, segment: 10, paged: true, frames: 192, queries: sqlQueries(
			"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10",
			"SELECT l_returnflag, COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY l_returnflag",
			"SELECT c_mktsegment, COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey GROUP BY c_mktsegment",
			"SELECT p_brand, COUNT(*) FROM part, partsupp WHERE p_partkey = ps_partkey GROUP BY p_brand",
			"SELECT o_orderpriority, COUNT(*), MAX(o_totalprice) FROM orders WHERE o_orderstatus = 'F' GROUP BY o_orderpriority",
		)},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
