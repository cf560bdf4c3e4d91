package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlprogress"
	"sqlprogress/internal/core"
)

// roundOrder is round r's query sequence: passes over the distinct
// queries, each repeated by its weight, cut at perRound and shuffled by the
// seed.
func roundOrder(w workload, perRound int, seed int64, r int) []int {
	var pass []int
	for q, wq := range w.queries {
		for k := 0; k < max(wq.weight, 1); k++ {
			pass = append(pass, q)
		}
	}
	order := make([]int, perRound)
	for i := range order {
		order[i] = pass[i%len(pass)]
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// runPhase is the timed phase: w.clients closed-loop clients each take the
// next query of order until none is left. Served workloads go over HTTP,
// library workloads run in-process. qbase numbers the queries for spans.
func runPhase(e *env, w workload, order []int, tr *tracer, qbase int64) []outcome {
	out := make([]outcome, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				q, qid := order[i], qbase+int64(i)
				if w.served {
					out[i] = serveQuery(e, w.queries[q].sql, tr, qid)
				} else {
					out[i] = libraryQuery(e.db, w.queries[q], tr, qid)
				}
				out[i].q = q
				out[i].done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// libraryQuery times compile (or plan build and wrap) through the return
// of RunWithProgress with the default estimator and sampling period.
func libraryQuery(db *sqlprogress.DB, q query, tr *tracer, qid int64) outcome {
	var o outcome
	start := time.Now()
	root := tr.begin("client.query", qid, -1)
	name := "compile.Query"
	if q.plan > 0 {
		name = "plan.BuildQuery"
	}
	sp := tr.begin(name, qid, root)
	pq, err := q.build(db)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		o.err = err
		return o
	}
	sp = tr.begin("exec.RunWithProgress", qid, root)
	// RunWithProgress samples only when it has a callback to deliver to.
	res, err := pq.RunWithProgress(sqlprogress.ProgressOptions{}, func(sqlprogress.ProgressUpdate) {})
	tr.end(sp)
	tr.end(root)
	o.lat = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	o.got = fingerprintRows(res.Rows)
	return o
}

// doneFrame is the part of the SSE `done` frame the checker reads.
type doneFrame struct {
	State         string  `json:"state"`
	RowCount      int     `json:"row_count"`
	FinalEstimate float64 `json:"final_estimate"`
	Error         string  `json:"error"`
}

// sessionInfo is the part of GET /sessions/{id} the checker reads.
type sessionInfo struct {
	ID       string     `json:"id"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Rows     [][]string `json:"rows"`
}

// serveQuery submits sql with POST /query and reads the session's SSE
// stream until `event: done`; that span is the latency. Afterwards it
// fetches the session to check the rows and read its lifecycle times.
func serveQuery(e *env, sql string, tr *tracer, qid int64) outcome {
	var o outcome
	start := time.Now()
	root := tr.begin("client.query", qid, -1)
	sp := tr.begin("server.submit", qid, root)
	id, err := submit(e, sql, &o)
	tr.end(sp)
	o.submit = time.Since(start)
	if err != nil {
		tr.end(root)
		o.err = err
		return o
	}
	sp = tr.begin("server.stream", qid, root)
	err = follow(e, id, &o)
	tr.end(sp)
	tr.end(root)
	o.lat = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	sp = tr.begin("server.verify", qid, -1)
	defer tr.end(sp)
	var info sessionInfo
	if err := getJSON(e, "/sessions/"+id, &info); err != nil {
		o.err = err
		return o
	}
	o.got = fingerprintText(info.Rows)
	if info.Started != nil && info.Finished != nil {
		o.queue = info.Started.Sub(info.Created)
		o.run = info.Finished.Sub(*info.Started)
		o.serverTime = info.Finished.Sub(info.Created)
	}
	return o
}

func submit(e *env, sql string, o *outcome) (string, error) {
	body, err := json.Marshal(map[string]string{"sql": sql})
	if err != nil {
		return "", err
	}
	resp, err := e.client.Post(e.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		o.shed = true
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return "", errShed
	}
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var info sessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", fmt.Errorf("submit response: %w", err)
	}
	return info.ID, nil
}

// follow reads the progress stream to its done frame, counting progress
// events and bytes.
func follow(e *env, id string, o *outcome) error {
	resp, err := e.client.Get(e.base + "/sessions/" + id + "/progress")
	if err != nil {
		return fmt.Errorf("progress stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("progress stream: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	var event string
	var data []byte
	for {
		line, err := br.ReadSlice('\n')
		o.sseBytes += len(line)
		if err != nil {
			return fmt.Errorf("progress stream ended before done: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			switch event {
			case "progress":
				o.events++
			case "done":
				o.events++
				var d doneFrame
				if err := json.Unmarshal(data, &d); err != nil {
					return fmt.Errorf("done frame: %w", err)
				}
				o.state, o.doneRows, o.finalEstimate = d.State, d.RowCount, d.FinalEstimate
				if d.Error != "" {
					return fmt.Errorf("session %s: %s", d.State, d.Error)
				}
				return nil
			}
			event, data = "", data[:0]
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, line[len("data: "):]...)
		}
	}
}

func getJSON(e *env, path string, v any) error {
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// monitorStats is the monitoring-cost pass: every distinct query run
// in-process through Run and through RunWithProgress, one client.
type monitorStats struct {
	// run and rwp hold each distinct query's call times, in seconds.
	run, rwp [][]float64
	// maxErr is safe's max ratio error per distinct query, against
	// Curr/total(Q) at each sample.
	maxErr []float64
}

// slowdown is the monitoring cost over a set of passes: the sum over
// distinct queries of the median RunWithProgress time, over the same sum
// for Run. Medians keep a stall of the shared host out of the ratio.
func slowdown(ms []monitorStats) float64 {
	var rwp, run float64
	for q := range ms[0].run {
		var a, b []float64
		for _, m := range ms {
			a, b = append(a, m.rwp[q]...), append(b, m.run[q]...)
		}
		rwp += median(a)
		run += median(b)
	}
	return rwp / run
}

// minMonitorRun is how much Run time one monitoring pass accumulates
// before it stops, so that short queries still give a steady ratio.
const minMonitorRun = 60 * time.Millisecond

// monitorPass times each distinct query under Run and RunWithProgress,
// back to back and alternating which goes first, and checks both results.
// It repeats the queries until minMonitorRun of Run time has accumulated.
func monitorPass(db *sqlprogress.DB, qs []query, refs []fingerprint, r int) (monitorStats, error) {
	m := monitorStats{run: make([][]float64, len(qs)), rwp: make([][]float64, len(qs))}
	var total time.Duration
	for pass := 0; pass == 0 || total < minMonitorRun; pass++ {
		for i, q := range qs {
			monitoredFirst := (r+pass+i)%2 == 1
			for k := 0; k < 2; k++ {
				pq, err := q.build(db)
				if err != nil {
					return m, fmt.Errorf("%v: %w", q, err)
				}
				var res *sqlprogress.Result
				t := time.Now()
				if monitored := (k == 0) == monitoredFirst; monitored {
					var pts [][2]float64
					res, err = pq.RunWithProgress(sqlprogress.ProgressOptions{}, func(u sqlprogress.ProgressUpdate) {
						pts = append(pts, [2]float64{float64(u.Calls), u.Estimate})
					})
					m.rwp[i] = append(m.rwp[i], time.Since(t).Seconds())
					if err == nil && pass == 0 {
						m.maxErr = append(m.maxErr, maxRatioError(pts, res.TotalCalls))
					}
				} else {
					res, err = pq.Run()
					d := time.Since(t)
					total += d
					m.run[i] = append(m.run[i], d.Seconds())
				}
				if err != nil {
					return m, fmt.Errorf("%v: %w", q, err)
				}
				if got := fingerprintRows(res.Rows); got != refs[i] {
					return m, fmt.Errorf("%v: monitoring pass got %d rows sum %x, want %d rows sum %x",
						q, got.rows, got.sum, refs[i].rows, refs[i].sum)
				}
			}
		}
	}
	return m, nil
}

// maxRatioError is the worst ratio error of (Curr, estimate) samples
// against the true progress Curr/total; 1 when nothing was sampled.
func maxRatioError(pts [][2]float64, total int64) float64 {
	worst := 1.0
	for _, p := range pts {
		worst = math.Max(worst, core.RatioError(p[0]/float64(total), p[1]))
	}
	return worst
}
