package main

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// tiny runs one round of a workload at a small scale factor.
func tiny(t *testing.T, workload string) *config {
	t.Helper()
	perRound := map[string]int{"tpch-plans": 23, "serve-short": 50, "serve-analytic": 8, "paged-cold": 8}
	return &config{
		workload: workload, seed: 7, genSeed: 42, sf: 0.002, z: 2, out: t.TempDir(),
		minRounds: 1, maxRounds: 1, perRound: perRound[workload], frames: 64,
	}
}

var endToEndNames = []string{
	"setup_s", "latency_p50_ms", "latency_p90_ms", "queries_per_s",
	"alloc_mb_per_query", "heap_live_mb", "monitor_slowdown", "est_max_ratio_err",
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func TestEveryWorkloadAnswersCorrectly(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rep, err := run(tiny(t, name), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() || rep.failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d", rep.correct(), rep.failed, rep.attempted)
			}
			for _, m := range endToEndNames {
				if _, ok := rep.metrics[m]; !ok {
					t.Errorf("metric %s missing", m)
				}
			}
		})
	}
}

// The checker must reject a wrong row count, a wrong checksum and, on the
// served workloads, a done frame that does not report completion.
func TestCheckerRejectsCorruptedResults(t *testing.T) {
	corruptions := map[string]func(*outcome){
		"checksum": func(o *outcome) { o.got.sum++ },
		"rows":     func(o *outcome) { o.got.rows++ },
	}
	served := map[string]func(*outcome){
		"final_estimate": func(o *outcome) { o.finalEstimate = 0.5 },
		"done_rows":      func(o *outcome) { o.doneRows++ },
		"state":          func(o *outcome) { o.state = "canceled" },
	}
	for _, name := range workloadNames() {
		w, _ := findWorkload(name)
		cases := corruptions
		if w.served {
			cases = map[string]func(*outcome){}
			for k, v := range corruptions {
				cases[k] = v
			}
			for k, v := range served {
				cases[k] = v
			}
		}
		for what, corrupt := range cases {
			t.Run(name+"/"+what, func(t *testing.T) {
				cfg := tiny(t, name)
				var n atomic.Int32
				cfg.corrupt = func(o *outcome) {
					if n.Add(1) == 3 {
						corrupt(o)
					}
				}
				rep, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if rep.correct() || rep.failed != 1 {
					t.Fatalf("corrupted result accepted: correct=%v failed=%d", rep.correct(), rep.failed)
				}
			})
		}
	}
}

// A request the server sheds with 503 is a failed query, not a skipped one.
func TestShedRequestCountsAsFailed(t *testing.T) {
	for _, name := range []string{"serve-short", "serve-analytic"} {
		t.Run(name, func(t *testing.T) {
			cfg := tiny(t, name)
			var posts atomic.Int32
			cfg.wrap = func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Method == http.MethodPost && posts.Add(1) == 2 {
						w.Header().Set("Retry-After", "1")
						http.Error(w, `{"error":"session: queue full"}`, http.StatusServiceUnavailable)
						return
					}
					h.ServeHTTP(w, r)
				})
			}
			rep, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rep.correct() || rep.failed != 1 || rep.attempted != cfg.perRound {
				t.Fatalf("shed request: correct=%v failed=%d attempted=%d", rep.correct(), rep.failed, rep.attempted)
			}
		})
	}
}

// A traced run reports every per-layer metric, and layers the workload
// does not reach read zero.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	untouched := map[string][]string{
		"tpch-plans":     {"compile.", "pager.", "session.", "server."},
		"serve-short":    {"plan.", "index.", "pager."},
		"serve-analytic": {"plan.", "index.", "pager."},
		"paged-cold":     {"plan.", "index.", "session.", "server."},
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := tiny(t, name)
			cfg.trace, cfg.minRounds, cfg.maxRounds = true, 2, 2
			rep, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.metrics) != len(layerUnits) {
				t.Errorf("%d metrics, want %d", len(rep.metrics), len(layerUnits))
			}
			for m := range layerUnits {
				v, ok := rep.metrics[m]
				if !ok {
					t.Errorf("metric %s missing", m)
					continue
				}
				zero := false
				for _, prefix := range untouched[name] {
					zero = zero || strings.HasPrefix(m, prefix)
				}
				if zero && v.Value != 0 {
					t.Errorf("%s = %v on a workload that does not reach the layer", m, v.Value)
				}
				if !zero && v.Value == 0 && m != "session.shed" && m != "runtime.goroutines_end" && !strings.HasPrefix(m, "trace.") {
					t.Errorf("%s = 0 on a workload that reaches the layer", m)
				}
			}
		})
	}
}
