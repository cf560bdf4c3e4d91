// Command perfbench is the repository's layered benchmark. It drives the
// engine through its public API (OpenTPCH, Query, WrapOperator,
// RunWithProgress, Run, NewSessionServer, SpillToDisk, PoolStats) and, for
// layers without a public entry point, through their internal package API.
//
//	perfbench --workload tpch-plans --seed 1 --seconds 10 --trace 0
//
// A run is a sequence of rounds. Each round sets the system up afresh,
// completes a fixed number of queries (the timed phase), and then times
// the workload's distinct queries under Run and RunWithProgress. Rounds
// repeat until --seconds have passed (at least three). With --trace 0 the
// last line of standard output is a JSON object with the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics of a traced run,
// and the spans are written under --out. Every answer is checked against a
// reference taken with plain Run; any wrong answer makes the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64 // query-order seed
	genSeed  int64 // data-generation seed
	seconds  float64
	trace    bool
	sf, z    float64
	out      string // spill files and trace output

	// Overrides for the self-test; zero keeps the workload's value.
	minRounds, maxRounds, perRound, frames int
	// corrupt, when set, may alter an outcome before it is checked.
	corrupt func(*outcome)
	// wrap, when set, wraps the session server's handler.
	wrap func(http.Handler) http.Handler
}

func (c *config) framesFor(w workload) int {
	if c.frames > 0 {
		return c.frames
	}
	return w.frames
}

func (c *config) perRoundFor(w workload) int {
	if c.perRound > 0 {
		return c.perRound
	}
	return w.perRound
}

func main() {
	cfg := config{sf: 0.01, z: 2}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "tpch-plans | serve-short | serve-analytic | paged-cold")
	fs.Int64Var(&cfg.seed, "seed", 1, "query-order seed")
	fs.Int64Var(&cfg.genSeed, "gen-seed", 42, "TPC-H data-generation seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measuring time of one run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench-run", "directory for spill files and traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	rep, err := run(&cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep.result()); err != nil {
		os.Exit(1)
	}
	if !rep.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d queries failed or were wrong\n", rep.failed, rep.attempted)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, for the printed table
}

type report struct {
	attempted, failed int
	metrics           map[string]metric
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *report) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics}
}

// round is what one round measured.
type round struct {
	traced                 bool
	setup, generate, spill time.Duration
	// setupKept and phaseKept are the shares of CPU time the host gave the
	// set-up and the timed phase (see kept).
	setupKept, phaseKept float64
	phase                time.Duration
	outs                 []outcome
	rt                   runtimeSample // delta over the timed phase
	heapLive             float64       // bytes, after GC at the phase's end
	goroutinesLeft       int
	pool                 poolDelta
	mon                  monitorStats
	pages                map[string]uint32 // data pages per spilled table
}

type poolDelta struct{ hits, misses, evictions, bytes float64 }

// run measures one workload and prints the per-metric table and facts to
// out; the caller prints the result line.
func run(cfg *config, out io.Writer) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	minRounds := 3
	if cfg.trace {
		minRounds = 4 // untraced and traced rounds alternate
	}
	if cfg.minRounds > 0 {
		minRounds = cfg.minRounds
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var refs []fingerprint
	var rounds []round
	ticks0 := readTicks()
	start := time.Now()
	for r := 0; ; r++ {
		if cfg.maxRounds > 0 && r >= cfg.maxRounds {
			break
		}
		if r >= minRounds && time.Since(start)+time.Since(start)/time.Duration(r) > budget {
			break
		}
		var rtr *tracer
		if cfg.trace && r%2 == 1 {
			rtr = tr
		}
		rd, err := runRound(w, cfg, r, &refs, rtr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rd.traced = rtr != nil
		rounds = append(rounds, rd)
	}

	rep := &report{metrics: make(map[string]metric)}
	for _, rd := range rounds {
		for i := range rd.outs {
			rep.attempted++
			if rd.outs[i].err != nil {
				rep.failed++
				if rep.failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: %v: %v\n", w.queries[rd.outs[i].q], rd.outs[i].err)
				}
			}
		}
	}

	facts := map[string]any{
		"workload": w.name, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "seed": cfg.seed, "gen_seed": cfg.genSeed, "sf": cfg.sf, "z": cfg.z,
		"clients": w.clients, "queries_per_round": cfg.perRoundFor(w), "distinct_queries": len(w.queries),
		"rounds": len(rounds), "pool_frames": 0, "data_pages": rounds[len(rounds)-1].pages,
	}
	if w.paged {
		facts["pool_frames"] = cfg.framesFor(w)
	}
	facts["cpu_kept"] = kept(ticks0, readTicks())

	if cfg.trace {
		if err := traced(w, cfg, rounds, refs, tr, rep, facts, out); err != nil {
			return nil, err
		}
	} else {
		endToEnd(w, rounds, rep, out)
	}
	buf, _ := json.Marshal(facts)
	fmt.Fprintf(out, "facts %s\n", buf)
	return rep, nil
}

// runRound sets up, runs the timed phase, measures, runs the monitoring
// pass and tears down.
func runRound(w workload, cfg *config, r int, refs *[]fingerprint, tr *tracer) (round, error) {
	var rd round
	g0 := runtime.NumGoroutine()
	k0 := readTicks()
	e, err := newEnv(w, cfg, w.served, tr)
	if err != nil {
		return rd, err
	}
	defer e.close()
	rd.setupKept = kept(k0, readTicks())
	rd.setup, rd.generate, rd.spill, rd.pages = e.setup, e.generate, e.spill, e.pages
	if *refs == nil {
		if *refs, err = references(e.db, w.queries); err != nil {
			return rd, err
		}
	}
	order := roundOrder(w, cfg.perRoundFor(w), cfg.seed, r)

	runtime.GC()
	p0 := poolNow(e)
	r0 := readRuntime()
	k0 = readTicks()
	t0 := time.Now()
	rd.outs = runPhase(e, w, order, tr, int64(r)*1_000_000)
	rd.phase = time.Since(t0)
	rd.phaseKept = kept(k0, readTicks())
	rd.rt = readRuntime().sub(r0)
	rd.pool = poolNow(e).sub(p0)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rd.heapLive = float64(ms.HeapAlloc)

	for i := range rd.outs {
		o := &rd.outs[i]
		if cfg.corrupt != nil {
			cfg.corrupt(o)
		}
		o.err = o.check((*refs)[o.q], w.served)
	}
	// The monitoring pass runs after the server has gone and its sessions
	// have been collected, so that neither they nor their garbage add GC
	// work to one side of the comparison.
	if err := e.stopServer(); err != nil {
		return rd, fmt.Errorf("server stop: %w", err)
	}
	runtime.GC()
	t1 := time.Now()
	if rd.mon, err = monitorPass(e.db, w.queries, *refs, r); err != nil {
		return rd, err
	}
	t2 := time.Now()
	if err := e.close(); err != nil {
		return rd, fmt.Errorf("teardown: %w", err)
	}
	// Client and server connection goroutines exit asynchronously after
	// the connections close; give them a moment before counting.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		rd.goroutinesLeft = runtime.NumGoroutine() - g0
		if rd.goroutinesLeft <= 0 || time.Now().After(deadline) {
			break
		}
	}
	ps := summarize(w, []round{rd})
	fmt.Fprintf(os.Stderr, "round %d: setup %.3fs phase %.3fs monitor %.3fs teardown %.3fs goroutines %+d p50 %.3fms p90 %.3fms slowdown %.3f\n",
		r, rd.setup.Seconds(), rd.phase.Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds(), rd.goroutinesLeft,
		quantile(ps.lat, 0.5), quantile(ps.lat, 0.9), ps.slow)
	return rd, nil
}

func poolNow(e *env) poolDelta {
	st, ok := e.db.PoolStats()
	if !ok {
		return poolDelta{}
	}
	return poolDelta{float64(st.Hits), float64(st.Misses), float64(st.Evictions), float64(st.BytesRead)}
}

func (p poolDelta) sub(q poolDelta) poolDelta {
	return poolDelta{p.hits - q.hits, p.misses - q.misses, p.evictions - q.evictions, p.bytes - q.bytes}
}

// runtimeSample holds cumulative runtime counters.
type runtimeSample struct{ bytes, objects, gcCPU, allCPU, gcCycles float64 }

var cpuNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

// readRuntime reads the allocation counters with ReadMemStats, which
// flushes the per-P caches so that small deltas are exact, and the CPU
// classes with runtime/metrics.
func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuNames))
	for i, n := range cpuNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		bytes: float64(ms.TotalAlloc), objects: float64(ms.Mallocs),
		gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64(), gcCycles: float64(ms.NumGC),
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.bytes - b.bytes, a.objects - b.objects, a.gcCPU - b.gcCPU, a.allCPU - b.allCPU, a.gcCycles - b.gcCycles}
}

// phaseStats are the end-to-end figures of a set of rounds.
type phaseStats struct {
	lat                []float64 // ms, every completed query
	qps                []float64 // one per segment of completions
	alloc, heap, setup []float64 // one per round
	slow, estErr       float64
}

func summarize(w workload, rounds []round) phaseStats {
	var s phaseStats
	for _, rd := range rounds {
		done := 0
		var ends []float64
		for _, o := range rd.outs {
			if o.err == nil {
				s.lat = append(s.lat, float64(o.lat)/1e6*rd.phaseKept)
				ends = append(ends, o.done.Seconds()*rd.phaseKept)
				done++
			}
		}
		// Throughput is sampled per segment of completions, so that a
		// stall on a shared host skews one sample rather than the run.
		sort.Float64s(ends)
		for k := w.segment; k <= len(ends); k += w.segment {
			prev := 0.0
			if k > w.segment {
				prev = ends[k-w.segment-1]
			}
			s.qps = append(s.qps, float64(w.segment)/(ends[k-1]-prev))
		}
		s.alloc = append(s.alloc, rd.rt.bytes/1e6/float64(max(done, 1)))
		s.heap = append(s.heap, rd.heapLive/1e6)
		s.setup = append(s.setup, rd.setup.Seconds()*rd.setupKept)
	}
	if len(rounds) > 0 {
		ms := make([]monitorStats, len(rounds))
		for i, rd := range rounds {
			ms[i] = rd.mon
		}
		s.slow = slowdown(ms)
		s.estErr = geomean(rounds[0].mon.maxErr)
	}
	return s
}

// endToEnd fills rep with the end-to-end metrics.
func endToEnd(w workload, rounds []round, rep *report, out io.Writer) {
	s := summarize(w, rounds)
	n := len(rounds)
	rep.metrics["setup_s"] = metric{median(s.setup), "s", n}
	rep.metrics["latency_p50_ms"] = metric{quantile(s.lat, 0.5), "ms", len(s.lat)}
	rep.metrics["latency_p90_ms"] = metric{quantile(s.lat, 0.9), "ms", len(s.lat)}
	rep.metrics["queries_per_s"] = metric{median(s.qps), "1/s", len(s.qps)}
	rep.metrics["alloc_mb_per_query"] = metric{median(s.alloc), "MB", n}
	rep.metrics["heap_live_mb"] = metric{median(s.heap), "MB", n}
	rep.metrics["monitor_slowdown"] = metric{s.slow, "ratio", n}
	rep.metrics["est_max_ratio_err"] = metric{s.estErr, "ratio", len(rounds[0].mon.maxErr)}
	if len(s.lat) < 100 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d latency samples; p90 has fewer than 10 beyond it\n", len(s.lat))
	}
	errRate := metric{float64(rep.failed) / float64(max(rep.attempted, 1)), "ratio", rep.attempted}
	printMetrics(out, rep.metrics, map[string]metric{"error_rate": errRate})
	wall := append([]round(nil), rounds...)
	for i := range wall {
		wall[i].setupKept, wall[i].phaseKept = 1, 1
	}
	ws := summarize(w, wall)
	fmt.Fprintf(out, "wall-clock, unscaled: setup_s %.6g latency_p50_ms %.6g latency_p90_ms %.6g queries_per_s %.6g\n",
		median(ws.setup), quantile(ws.lat, 0.5), quantile(ws.lat, 0.9), median(ws.qps))
}

// traced fills rep with the per-layer metrics of a traced run: the
// untraced and traced rounds' counters, the layer probes, and the
// difference between the untraced and traced rounds.
func traced(w workload, cfg *config, rounds []round, refs []fingerprint, tr *tracer, rep *report, facts map[string]any, out io.Writer) error {
	var plain, withSpans []round
	for _, rd := range rounds {
		if rd.traced {
			withSpans = append(withSpans, rd)
		} else {
			plain = append(plain, rd)
		}
	}
	e, err := newEnv(w, cfg, false, nil)
	if err != nil {
		return err
	}
	defer e.close()
	m, err := probeLayers(e, w, refs, tr)
	if err != nil {
		return err
	}

	var q, hits, misses, evictions, readBytes, gcCPU, allCPU, cycles float64
	var queue, runT, events, sse, submit, overhead, shed float64
	var spills, gens []float64
	goroutines := 0
	for _, rd := range rounds {
		q += float64(len(rd.outs))
		hits += rd.pool.hits
		misses += rd.pool.misses
		evictions += rd.pool.evictions
		readBytes += rd.pool.bytes
		gcCPU += rd.rt.gcCPU
		allCPU += rd.rt.allCPU
		cycles += rd.rt.gcCycles
		goroutines = max(goroutines, rd.goroutinesLeft)
		spills = append(spills, rd.spill.Seconds())
		gens = append(gens, rd.generate.Seconds())
		for _, o := range rd.outs {
			if o.shed {
				shed++
			}
			queue += float64(o.queue) / 1e6
			runT += float64(o.run) / 1e6
			events += float64(o.events)
			sse += float64(o.sseBytes)
			submit += float64(o.submit) / 1e6
			if o.err == nil && o.serverTime > 0 {
				overhead += float64(o.lat-o.serverTime) / 1e6
			}
		}
	}
	m["session.queue_ms"] = queue / q
	m["session.run_ms"] = runT / q
	m["session.events_per_query"] = events / q
	m["session.shed"] = shed
	m["server.submit_ms"] = submit / q
	m["server.overhead_ms"] = overhead / q
	m["server.sse_bytes_per_query"] = sse / q
	m["pager.hit_ratio"] = safeDiv(hits, hits+misses)
	m["pager.misses_per_query"] = misses / q
	m["pager.evictions_per_query"] = evictions / q
	m["pager.read_mb_per_query"] = readBytes / 1e6 / q
	m["pager.spill_s"] = median(spills)
	m["tpch.generate_s"] = median(gens)
	m["runtime.gc_cpu_frac"] = safeDiv(gcCPU, allCPU)
	m["runtime.gc_cycles_per_query"] = cycles / q
	m["runtime.goroutines_end"] = float64(goroutines)

	ps, ts := summarize(w, plain), summarize(w, withSpans)
	m["trace.overhead_frac"] = quantile(ts.lat, 0.5)/quantile(ps.lat, 0.5) - 1
	m["trace.qps_overhead_frac"] = 1 - median(ts.qps)/median(ps.qps)

	for name, v := range m {
		rep.metrics[name] = metric{v, layerUnits[name], len(rounds)}
	}
	printMetrics(out, rep.metrics, nil)
	self, err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed)), facts)
	if err != nil {
		return err
	}
	for _, l := range sortedKeys(self) {
		fmt.Fprintf(out, "self_time %-10s %10.4f s\n", l, self[l])
	}
	return nil
}

// layerUnits is every per-layer metric with its unit.
var layerUnits = map[string]string{
	"compile.us_per_query":        "us",
	"compile.allocs_per_query":    "count",
	"plan.build_us_per_query":     "us",
	"exec.ms_per_query":           "ms",
	"exec.getnext_per_query":      "count",
	"exec.getnext_per_s":          "1/s",
	"exec.allocs_per_row":         "count",
	"exec.bytes_per_row":          "B",
	"exec.rows_out_per_query":     "count",
	"index.lookup_ns":             "ns",
	"ledger.snapshot_ns":          "ns",
	"core.capture_us":             "us",
	"core.estimate_ns":            "ns",
	"core.bounds_us":              "us",
	"core.samples_per_query":      "count",
	"pager.hit_ratio":             "ratio",
	"pager.misses_per_query":      "count",
	"pager.evictions_per_query":   "count",
	"pager.read_mb_per_query":     "MB",
	"pager.cold_scan_ns_per_row":  "ns",
	"pager.warm_scan_ns_per_row":  "ns",
	"pager.spill_s":               "s",
	"session.queue_ms":            "ms",
	"session.run_ms":              "ms",
	"session.events_per_query":    "count",
	"session.shed":                "count",
	"server.submit_ms":            "ms",
	"server.overhead_ms":          "ms",
	"server.sse_bytes_per_query":  "B",
	"tpch.generate_s":             "s",
	"runtime.gc_cpu_frac":         "ratio",
	"runtime.gc_cycles_per_query": "count",
	"runtime.goroutines_end":      "count",
	"trace.overhead_frac":         "ratio",
	"trace.qps_overhead_frac":     "ratio",
}

func printMetrics(out io.Writer, ms, extra map[string]metric) {
	all := make(map[string]metric, len(ms)+len(extra))
	for k, v := range ms {
		all[k] = v
	}
	for k, v := range extra {
		all[k] = v
	}
	for _, k := range sortedKeys(all) {
		fmt.Fprintf(out, "metric %-28s %14.6g %-6s n=%d\n", k, all[k].Value, all[k].Unit, all[k].n)
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// cpuTicks are /proc/stat's CPU times summed over all CPUs: busy (user,
// nice, system, irq, softirq) and steal, the time a virtual CPU was ready
// to run but the hypervisor ran someone else. Both are zero where
// /proc/stat is unreadable.
type cpuTicks struct{ busy, steal float64 }

func readTicks() cpuTicks {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]float64
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return cpuTicks{}
		}
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// kept is the share of the CPU time the run asked for between a and b that
// the host gave it. On a virtual machine whose neighbours take CPU in
// bursts, steal stretches every wall-clock interval by 1/kept; the
// benchmark scales its times by kept so that they measure the engine
// rather than the neighbours.
func kept(a, b cpuTicks) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal <= 0 {
		return 1
	}
	return busy / (busy + steal)
}
