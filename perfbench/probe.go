package main

import (
	"fmt"
	"time"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/sqlval"
)

// probeSink keeps probe results alive so the compiler cannot drop the
// calls that produce them.
var probeSink int

// probeQueryBase numbers the probes' queries apart from the rounds'.
const probeQueryBase = 1 << 40

// minProbe is how long the per-query layer probes repeat for, so that
// short queries still give steady per-call times.
const minProbe = 800 * time.Millisecond

// probeLayers calls each layer's public functions directly on fresh plans
// of the workload's distinct queries, inside spans, and returns the
// per-layer metrics those calls give.
func probeLayers(e *env, w workload, refs []fingerprint, tr *tracer) (map[string]float64, error) {
	m := make(map[string]float64)
	cat := e.db.Catalog()
	ests := []core.Estimator{core.Dne{}, core.Pmax{}, core.Safe{}}
	const snapReps, estReps = 64, 16
	var (
		nq, compileObjs, calls, rowsOut, execObjs, execBytes float64
		captures, estimates, snapshots                       float64
	)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < minProbe; pass++ {
		for i, q := range w.queries {
			qid := probeQueryBase + int64(pass*len(w.queries)+i)
			nq++

			name := "compile.CompileSQL"
			if q.plan > 0 {
				name = "plan.BuildQuery"
			}
			r0 := readRuntime()
			sp := tr.begin(name, qid, -1)
			op, err := q.operator(cat)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%v: %w", q, err)
			}
			if q.plan == 0 {
				compileObjs += readRuntime().sub(r0).objects
			}
			sp = tr.begin("core.ComputeBounds", qid, -1)
			snap := core.ComputeBounds(op)
			tr.end(sp)

			// Hook-free batch execution of the fresh plan.
			ctx := exec.NewCtx()
			r0 = readRuntime()
			sp = tr.begin("exec.RunBatch", qid, -1)
			rows, err := exec.RunBatch(ctx, op)
			tr.end(sp)
			d := readRuntime().sub(r0)
			if err != nil {
				return nil, fmt.Errorf("%v: %w", q, err)
			}
			if got := fingerprintRows(rows); got != refs[i] {
				return nil, fmt.Errorf("%v: RunBatch got %d rows sum %x, want %d rows sum %x",
					q, got.rows, got.sum, refs[i].rows, refs[i].sum)
			}
			calls += float64(ctx.Calls())
			rowsOut += float64(len(rows))
			execObjs += d.objects
			execBytes += d.bytes

			led := exec.EnsureLedger(op)
			var buf []ledger.Snapshot
			sp = tr.begin("ledger.SnapshotAll", qid, -1)
			for k := 0; k < snapReps; k++ {
				buf = led.SnapshotAll(buf[:0])
			}
			tr.end(sp)
			snapshots += snapReps
			probeSink += len(buf)

			// Tracker.Capture and the estimators at RunWithProgress's
			// default period, on another fresh plan.
			op, err = q.operator(cat)
			if err != nil {
				return nil, err
			}
			every := snap.UB / 200
			if every < 1 || snap.UB >= exec.Unbounded {
				every = max(snap.LB/200, 1)
			}
			tracker := core.NewTracker(op)
			ctx = exec.NewCtx()
			ctx.OnGetNext = func(n int64) {
				if n%every != 0 {
					return
				}
				sp := tr.begin("core.Capture", qid, -1)
				s := tracker.Capture()
				tr.end(sp)
				captures++
				sp = tr.begin("core.Estimate", qid, -1)
				for k := 0; k < estReps; k++ {
					for _, est := range ests {
						if est.Estimate(s) > 0 {
							probeSink++
						}
					}
				}
				tr.end(sp)
				estimates += estReps * float64(len(ests))
			}
			if _, err := exec.RunBatch(ctx, op); err != nil {
				return nil, fmt.Errorf("%v: %w", q, err)
			}
		}
	}

	m["compile.us_per_query"] = tr.mean("compile.CompileSQL", time.Microsecond)
	m["compile.allocs_per_query"] = compileObjs / nq
	m["plan.build_us_per_query"] = tr.mean("plan.BuildQuery", time.Microsecond)
	execTime, _ := tr.stat("exec.RunBatch")
	m["exec.ms_per_query"] = execTime.Seconds() * 1e3 / nq
	m["exec.getnext_per_query"] = calls / nq
	m["exec.getnext_per_s"] = calls / execTime.Seconds()
	m["exec.allocs_per_row"] = execObjs / calls
	m["exec.bytes_per_row"] = execBytes / calls
	m["exec.rows_out_per_query"] = rowsOut / nq
	snapTime, _ := tr.stat("ledger.SnapshotAll")
	m["ledger.snapshot_ns"] = float64(snapTime.Nanoseconds()) / snapshots
	m["core.capture_us"] = tr.mean("core.Capture", time.Microsecond)
	estTime, _ := tr.stat("core.Estimate")
	m["core.estimate_ns"] = safeDiv(float64(estTime.Nanoseconds()), estimates)
	m["core.bounds_us"] = tr.mean("core.ComputeBounds", time.Microsecond)
	m["core.samples_per_query"] = captures / nq

	m["index.lookup_ns"] = 0
	for _, q := range w.queries {
		if q.plan > 0 {
			m["index.lookup_ns"] = probeIndexes(e, tr)
			break
		}
	}
	m["pager.cold_scan_ns_per_row"], m["pager.warm_scan_ns_per_row"] = 0, 0
	if w.paged {
		cold, warm, err := probeScans(e, tr)
		if err != nil {
			return nil, err
		}
		m["pager.cold_scan_ns_per_row"], m["pager.warm_scan_ns_per_row"] = cold, warm
	}
	return m, nil
}

// inlProbes are the INL joins of the built-in TPC-H plans: the inner
// table's indexed key and the outer column whose values probe it.
var inlProbes = []struct{ inner, key, outer, col string }{
	{"orders", "o_orderkey", "lineitem", "l_orderkey"},
	{"supplier", "s_suppkey", "lineitem", "l_suppkey"},
	{"customer", "c_custkey", "orders", "o_custkey"},
	{"supplier", "s_suppkey", "partsupp", "ps_suppkey"},
}

// probeIndexes times index.Hash.Lookup over every outer-column value the
// INL joins can probe with, and returns ns per lookup.
func probeIndexes(e *env, tr *tracer) float64 {
	cat := e.db.Catalog()
	var lookups float64
	var total time.Duration
	for _, p := range inlProbes {
		ix := cat.HashIndex(p.inner, p.key)
		rel, err := cat.Relation(p.outer)
		if ix == nil || err != nil {
			continue
		}
		ci, err := rel.Sch.ColIndex("", p.col)
		if err != nil {
			continue
		}
		keys := make([]sqlval.Value, len(rel.Rows))
		for i, row := range rel.Rows {
			keys[i] = row[ci]
		}
		const reps = 8
		t := time.Now()
		sp := tr.begin("index.Lookup", -1, -1)
		for k := 0; k < reps; k++ {
			for _, key := range keys {
				probeSink += len(ix.Lookup(key))
			}
		}
		tr.end(sp)
		total += time.Since(t)
		lookups += reps * float64(len(keys))
	}
	return safeDiv(float64(total.Nanoseconds()), lookups)
}

// probeScans times OpenCursor + NextChunk over each spilled table, first
// cold (right after a lineitem scan has cycled the pool) and then again
// warm, and returns ns per row for each.
func probeScans(e *env, tr *tracer) (cold, warm float64, err error) {
	cat := e.db.Catalog()
	flush := cat.PagedRelation("lineitem")
	var rows float64
	var coldT, warmT time.Duration
	for _, name := range e.db.Tables() {
		pr := cat.PagedRelation(name)
		if _, err := scanAll(flush); err != nil {
			return 0, 0, err
		}
		t := time.Now()
		sp := tr.begin("pager.scan_cold", -1, -1)
		n, err := scanAll(pr)
		tr.end(sp)
		coldT += time.Since(t)
		if err != nil {
			return 0, 0, err
		}
		t = time.Now()
		sp = tr.begin("pager.scan_warm", -1, -1)
		_, err = scanAll(pr)
		tr.end(sp)
		warmT += time.Since(t)
		if err != nil {
			return 0, 0, err
		}
		rows += float64(n)
	}
	return float64(coldT.Nanoseconds()) / rows, float64(warmT.Nanoseconds()) / rows, nil
}

func scanAll(pr *pager.PagedRelation) (int, error) {
	cur, err := pr.OpenCursor(0, int(pr.Cardinality()))
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	for {
		rows, _, err := cur.NextChunk(1024)
		if err != nil {
			return n, err
		}
		if len(rows) == 0 {
			return n, nil
		}
		n += len(rows)
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
