// Command benchgate holds CI's performance and accuracy gates. Every mode
// re-measures the code it was built from; none reads a timing out of a
// checked-in file.
//
// With -par it times the partitioned hash join and the parallel
// pre-aggregation at 8 workers against their serial batch-engine
// counterparts, one run each in this process, and fails when either speedup
// falls below its floor (-minjoin, -minagg). Every physical page read of
// the scanned side stalls one millisecond through a cold buffer pool, so the
// stalls of different workers overlap: the ratio measures how well the
// partitioned operators overlap their reads, not the host's core count, and
// holds on a 2-CPU machine.
//
// With -acc it re-runs the estimator accuracy matrix (deterministic, so the
// comparison is exact) against the checked-in BENCH_ACC.json (-f) and fails
// when any cell's max ratio error regresses past the slack factor, any
// hard-bound soundness counter fires — including the pessimistic
// degree-norm bound's (ubtight_regressions, tight_bound_misses) — any
// baseline cell disappears, a skewed-stale cell loses the paper's
// safe <= dne ordering or the robust-combiner ordering
// combiner <= min(dne, safe), or the lp-safe estimator fails to strictly
// beat safe on at least one cell (the degree-sequence join bound must
// demonstrably tighten something, or it has silently stopped attaching).
// -perturb name=factor deliberately breaks an estimator first — CI uses it
// as the gate's negative self-test. -acc -write PATH writes the sweep to
// PATH instead of gating it; that is how BENCH_ACC.json is regenerated.
//
// The batch engine's allocation budget is a tier-1 test
// (TestINLJoinBatchAllocs in the root package), not a mode of this tool.
//
// Usage:
//
//	go run ./cmd/benchgate -par [-minjoin 2.5] [-minagg 1.5]
//	go run ./cmd/benchgate -acc [-f BENCH_ACC.json] [-slack 1.10] [-perturb dne=0.7]
//	go run ./cmd/benchgate -acc -write BENCH_ACC.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sqlprogress/internal/datagen"
	"sqlprogress/internal/evalmatrix"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/fault"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// parsePerturb turns "dne=0.7,pmax=1.2" into estimator output multipliers.
func parsePerturb(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("perturbation %q: want name=factor", pair)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("perturbation %q: %v", pair, err)
		}
		out[name] = f
	}
	return out, nil
}

// sweep runs the accuracy matrix with the -perturb multipliers applied.
func sweep(perturbFlag string) ([]evalmatrix.Row, error) {
	perturb, err := parsePerturb(perturbFlag)
	if err != nil {
		return nil, err
	}
	opts := evalmatrix.DefaultOptions()
	opts.Perturb = perturb
	return evalmatrix.Run(opts)
}

// writeAcc runs the accuracy matrix, prints its table and writes it to path.
func writeAcc(path, perturbFlag string) error {
	rows, err := sweep(perturbFlag)
	if err != nil {
		return err
	}
	fmt.Print(evalmatrix.Table(rows).Render())
	if err := evalmatrix.WriteFile(path, rows); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// gateAcc is the accuracy-gate mode: hold every cell of a fresh sweep to
// its checked-in baseline. Returns the number of violations (each is printed
// as it is found).
func gateAcc(baselinePath string, gotRows []evalmatrix.Row, slack float64) (int, error) {
	baseRows, err := evalmatrix.ReadFile(baselinePath)
	if err != nil {
		return 0, err
	}
	base := make(map[string]evalmatrix.Row, len(baseRows))
	for _, r := range baseRows {
		base[r.Key()] = r
	}
	got := make(map[string]evalmatrix.Row, len(gotRows))
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	}
	cells := map[string]bool{}
	for _, g := range gotRows {
		got[g.Key()] = g
		cells[g.CellID()] = true
		if g.LBRegressions != 0 || g.UBRegressions != 0 || g.BoundMisses != 0 {
			fail("%s: hard-bound violation (lb_regressions=%d ub_regressions=%d bound_misses=%d)",
				g.Key(), g.LBRegressions, g.UBRegressions, g.BoundMisses)
		}
		if g.UBTightRegressions != 0 || g.TightBoundMisses != 0 {
			fail("%s: pessimistic-bound violation (ubtight_regressions=%d tight_bound_misses=%d)",
				g.Key(), g.UBTightRegressions, g.TightBoundMisses)
		}
		b, ok := base[g.Key()]
		if !ok {
			// New cells only extend the matrix; they get gated once checked in.
			continue
		}
		if g.MaxRatioErr > b.MaxRatioErr*slack {
			fail("%s: max ratio error regression: %.4f > %.4f (baseline %.4f x %.2f)",
				g.Key(), g.MaxRatioErr, b.MaxRatioErr*slack, b.MaxRatioErr, slack)
		}
	}
	for _, b := range baseRows {
		if _, ok := got[b.Key()]; !ok {
			fail("%s: cell present in %s but missing from this run", b.Key(), baselinePath)
		}
	}
	lpTighter := 0
	for _, g := range gotRows {
		if g.Estimator != "safe" {
			continue
		}
		if lp, ok := got[g.CellID()+"/lp-safe"]; ok && lp.MaxRatioErr < g.MaxRatioErr {
			lpTighter++
		}
		if !g.SkewedStale {
			continue
		}
		dne, ok := got[g.CellID()+"/dne"]
		if ok && g.MaxRatioErr > dne.MaxRatioErr {
			fail("%s: safe max ratio error %.4f exceeds dne's %.4f on a skewed-stale cell",
				g.CellID(), g.MaxRatioErr, dne.MaxRatioErr)
		}
		if comb, ok2 := got[g.CellID()+"/combiner"]; ok && ok2 {
			if best := minF(dne.MaxRatioErr, g.MaxRatioErr); comb.MaxRatioErr > best {
				fail("%s: combiner max ratio error %.4f exceeds min(dne, safe) %.4f on a skewed-stale cell",
					g.CellID(), comb.MaxRatioErr, best)
			}
		}
	}
	if lpTighter == 0 {
		fail("lp-safe never strictly beat safe in any cell: the degree-norm join bound tightened nothing")
	}
	fmt.Printf("accuracy gate: %d cells x %d rows vs %s: %d violation(s), lp-safe tighter in %d cell(s)\n",
		len(cells), len(gotRows), baselinePath, bad, lpTighter)
	return bad, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// The parallel gate's workload: a 40k-row single-column table scanned
// through a cold pool whose every physical page read stalls parPageDelay.
const (
	parRows      = 40_000
	parWorkers   = 8
	parPageDelay = time.Millisecond
)

// stalledStore is a fresh cold-pool view of hf whose every physical page
// read stalls parPageDelay. The pool reads outside its mutex, so the stalls
// of different workers overlap.
func stalledStore(hf *pager.HeapFile, frames int) schema.Store {
	stalls := make([]fault.PageFault, hf.Backend().NumPages())
	for i := range stalls {
		stalls[i] = fault.PageFault{Page: uint32(i), Stall: parPageDelay}
	}
	return pager.NewPagedRelationBackend(hf, pager.NewPool(frames), fault.WrapBackend(hf.Backend(), stalls...))
}

// scanOf returns the scanned side of a gate plan: one whole-store scan when
// workers is 0, else `workers` page-aligned partition scans over a pool with
// two frames per worker plus two.
func scanOf(hf *pager.HeapFile, workers int) []exec.Operator {
	if workers == 0 {
		return []exec.Operator{exec.NewStoreScan(stalledStore(hf, 4))}
	}
	st := stalledStore(hf, 2*workers+2)
	parts := make([]exec.Operator, workers)
	for i := range parts {
		s := exec.NewStoreScanPartition(st, i, workers)
		s.SetEstimatedCard(s.FinalBounds(nil).LB)
		parts[i] = s
	}
	return parts
}

// writeHeap writes rel to a heap file in dir and opens it.
func writeHeap(dir string, rel *schema.Relation) (*pager.HeapFile, error) {
	path := filepath.Join(dir, rel.Name+".heap")
	if err := pager.WriteRelation(path, rel); err != nil {
		return nil, err
	}
	return pager.OpenHeapFile(path)
}

// speedup runs build serially (workers 0) and at parWorkers, once each, and
// returns the serial wall time over the parallel one. Both runs must return
// wantRows rows.
func speedup(name string, wantRows int, build func(workers int) exec.Operator) (float64, error) {
	var took [2]time.Duration
	for i, w := range []int{0, parWorkers} {
		op := build(w)
		start := time.Now()
		rows, err := exec.RunBatch(exec.NewCtx(), op)
		took[i] = time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("%s at %d workers: %w", name, w, err)
		}
		if len(rows) != wantRows {
			return 0, fmt.Errorf("%s at %d workers: got %d rows, want %d", name, w, len(rows), wantRows)
		}
	}
	x := float64(took[0]) / float64(took[1])
	fmt.Printf("%s: serial %v, %d workers %v: %.2fx\n",
		name, took[0].Round(time.Millisecond), parWorkers, took[1].Round(time.Millisecond), x)
	return x, nil
}

// gatePar is the parallel-speedup gate: it measures the partitioned hash
// join and the parallel pre-aggregation against their serial counterparts
// and returns the number of floors missed.
func gatePar(minJoin, minAgg float64) (int, error) {
	dir, err := os.MkdirTemp("", "benchgate-par-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)

	// Partitioned hash join: a small in-memory dimension (unique keys, a
	// tenth of the probe side — the build drain runs serially on the reader,
	// so an oversized build side would just re-measure Amdahl's law) built
	// against the stalled probe side; each dimension key matches exactly one
	// probe row.
	probe, err := writeHeap(dir, datagen.IntRelation("bigscan", "v", datagen.Sequence(parRows)))
	if err != nil {
		return 0, err
	}
	defer probe.Close()
	dim := datagen.IntRelation("dim", "k", datagen.Sequence(parRows/10))
	join, err := speedup("partitioned hash join", parRows/10, func(workers int) exec.Operator {
		parts := scanOf(probe, workers)
		build := exec.NewScan(dim)
		bk := []expr.Expr{expr.NewCol(build.Schema(), "dim", "k")}
		pk := []expr.Expr{expr.NewCol(parts[0].Schema(), "bigscan", "v")}
		if workers == 0 {
			return exec.NewHashJoin(build, parts[0], bk, pk, exec.InnerJoin)
		}
		return exec.NewParallelHashJoin(build, parts, bk, pk, exec.InnerJoin)
	})
	if err != nil {
		return 0, err
	}

	// Parallel pre-aggregation: COUNT(*) + SUM(v) grouped by a zipf key,
	// whose heavy keys recur across partitions so the merge does real work.
	aggRel := datagen.IntRelation("bigagg", "v", datagen.ZipfValues(100, parRows, 1.2, 7))
	groups := map[int64]bool{}
	for _, row := range aggRel.Rows {
		groups[row[0].AsInt()] = true
	}
	aggHeap, err := writeHeap(dir, aggRel)
	if err != nil {
		return 0, err
	}
	defer aggHeap.Close()
	agg, err := speedup("parallel aggregation", len(groups), func(workers int) exec.Operator {
		parts := scanOf(aggHeap, workers)
		v := expr.NewCol(parts[0].Schema(), "bigagg", "v")
		gb, names, kinds := []expr.Expr{v}, []string{"v"}, []sqlval.Kind{sqlval.KindInt}
		aggs := []expr.Agg{{Kind: expr.AggCountStar, Name: "n"}, {Kind: expr.AggSum, Arg: v, Name: "s"}}
		if workers == 0 {
			return exec.NewHashAgg(parts[0], gb, names, kinds, aggs)
		}
		return exec.NewParallelHashAgg(parts, gb, names, kinds, aggs)
	})
	if err != nil {
		return 0, err
	}

	bad := 0
	if join < minJoin {
		bad++
		fmt.Fprintf(os.Stderr, "benchgate: partitioned hash join speedup %.2fx below the %.2fx floor\n", join, minJoin)
	}
	if agg < minAgg {
		bad++
		fmt.Fprintf(os.Stderr, "benchgate: parallel aggregation speedup %.2fx below the %.2fx floor\n", agg, minAgg)
	}
	fmt.Printf("parallel gate: join %.2fx (floor %.2fx), agg %.2fx (floor %.2fx): %d violation(s)\n",
		join, minJoin, agg, minAgg, bad)
	return bad, nil
}

func main() {
	par := flag.Bool("par", false, "time the 8-worker parallel join and aggregation against serial and hold their speedups to floors")
	minJoin := flag.Float64("minjoin", 2.5, "par mode: minimum 8-worker partitioned hash-join speedup vs serial batch")
	minAgg := flag.Float64("minagg", 1.5, "par mode: minimum 8-worker parallel aggregation speedup vs serial batch")
	acc := flag.Bool("acc", false, "re-run the estimator accuracy matrix and gate it against the baseline")
	file := flag.String("f", "BENCH_ACC.json", "acc mode: baseline matrix")
	slack := flag.Float64("slack", 1.10, "acc mode: allowed max-ratio-error growth factor")
	perturbFlag := flag.String("perturb", "", "acc mode: multiply named estimators' outputs, e.g. dne=0.7 (negative self-test)")
	write := flag.String("write", "", "acc mode: write the sweep to this path instead of gating it")
	flag.Parse()

	var bad int
	var err error
	switch {
	case *par:
		bad, err = gatePar(*minJoin, *minAgg)
	case *acc && *write != "":
		err = writeAcc(*write, *perturbFlag)
	case *acc:
		var rows []evalmatrix.Row
		if rows, err = sweep(*perturbFlag); err == nil {
			bad, err = gateAcc(*file, rows, *slack)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchgate: choose a gate: -par or -acc")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	if bad > 0 {
		os.Exit(1)
	}
}
