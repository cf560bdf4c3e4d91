// Package session runs queries as managed sessions: a Manager admits work
// under a concurrency limit (FIFO queue with a depth cap, shedding when
// full), executes each admitted query on its own goroutine with a
// wall-clock core.Monitor attached, and keeps a registry of live and
// finished sessions for inspection, streaming, and cancellation.
//
// This is the serving layer the paper's motivating scenario implies: many
// queries in flight at once, each continuously observed by a progress
// estimator cheap enough that the observation never throttles execution,
// with the estimate informing the decision the paper cares about —
// letting the query run or killing it.
package session

import (
	"slices"
	"sync"
	"time"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
)

// State is a session's lifecycle state. Transitions are monotone:
// queued → running → finished | canceled | failed, with queued sessions
// also able to jump straight to canceled.
type State string

// Session lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateFinished State = "finished"
	StateCanceled State = "canceled"
	StateFailed   State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateFinished || s == StateCanceled || s == StateFailed
}

// Progress is one streamed progress observation for a session: the hard
// interval and every configured estimator's output at one instant of the
// execution, plus lifecycle framing for the final event.
type Progress struct {
	// Seq numbers the session's published events from 1, monotonically.
	// SSE serving uses it as the event id, letting a client that
	// reconnects with Last-Event-ID skip observations it already has.
	Seq int64 `json:"seq"`
	// Calls is Curr at the observation.
	Calls int64 `json:"calls"`
	// LB and UB bound total(Q) at the observation.
	LB int64 `json:"lb"`
	UB int64 `json:"ub"`
	// Lo and Hi are the hard progress interval [Curr/UB, min(Curr/LB, 1)].
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Estimates holds each configured estimator's output by name.
	Estimates map[string]float64 `json:"estimates"`
	// Nodes is the ledger-delta stream: the per-node cumulative runtime
	// counters of every plan node whose counters changed since this
	// session's previous published event (every node on the first and final
	// events), read by the same capture as Calls, LB and UB, so on an event
	// that lists every node the Calls sum to Calls. Node ids are the plan's
	// stable dense NodeIDs. Deltas are taken against the previous published
	// event, not the previous event a subscriber received: one that lost an
	// intermediate event to a full buffer may hold stale counters for an
	// unchanged node until the final event, which lists every node.
	Nodes []NodeProgress `json:"nodes,omitempty"`
	// Pool is a snapshot of the shared buffer-pool counters at the
	// observation, present when the manager serves disk-backed tables
	// (Config.Pool). Counters are pool-wide and cumulative, so a single
	// session's physical reads appear as deltas between its events.
	Pool *pager.Stats `json:"pool,omitempty"`
	// Elapsed is wall-clock time since the session started running.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Final marks the last event a session will ever publish.
	Final bool `json:"final,omitempty"`
	// State is the session state at the observation.
	State State `json:"state"`
}

// NodeProgress is one plan node's cumulative runtime counters at an
// observation, read straight from the progress ledger (no operator-tree
// walk). Counters are cumulative across rescans, matching the paper's Curr.
type NodeProgress struct {
	// ID is the node's ledger NodeID (stable, dense, pre-order).
	ID int32 `json:"id"`
	// Name is the operator's display name.
	Name string `json:"name"`
	// Calls is the node's counted GetNext calls.
	Calls int64 `json:"calls"`
	// Delivered is the rows the node handed to its parent.
	Delivered int64 `json:"delivered"`
	// Rescans counts the node's re-opens after producing output.
	Rescans int64 `json:"rescans,omitempty"`
	// Done marks a node that has reached EOF.
	Done bool `json:"done,omitempty"`
}

// Session is one submitted query: its compiled plan, lifecycle state,
// execution context, monitor, and result summary. The terminal transition
// releases the plan, context and monitor, keeping the summary and samples.
// All fields are guarded by mu; exported accessors are safe from any
// goroutine.
type Session struct {
	id      string
	text    string
	created time.Time

	mu           sync.Mutex
	state        State
	root         exec.Operator
	execCtx      *exec.Ctx
	mon          *core.Monitor
	samples      []core.Sample
	estNames     []string
	keepRows     int
	deadline     time.Duration
	started      time.Time
	finished     time.Time
	cancelAsked  bool
	cancelReason string
	cancelAt     time.Time
	err          error
	cols         []string
	rows         []schema.Row
	rowCount     int
	totalCalls   int64
	workMu       float64
	last         Progress
	hasLast      bool
	seq          int64
	subs         map[int]*subscriber
	nextSub      int
	instrument   func(*exec.Ctx)
	onEvict      func()
	pool         *pager.Pool
	nodePrev     []ledger.Snapshot

	// Watchdog state (maintained by the Manager's watchdog goroutine).
	watchCalls   int64
	watchAdvance time.Time
	stalled      bool
}

// subscriber is one progress listener with its slow-consumer bookkeeping.
type subscriber struct {
	ch chan Progress
	// dropStreak counts consecutive publishes that found the channel full
	// and had to displace an observation; a clean send resets it.
	dropStreak int
}

// evictAfter is the consecutive-forced-drop threshold beyond which a
// subscriber is deemed frozen (not merely slow) and evicted. With a
// 16-slot buffer a reader only hits this by not reading at all.
const evictAfter = 32

// ID returns the session's registry identifier.
func (s *Session) ID() string { return s.id }

// Text returns the submitted SQL (or the plan label for SubmitPlan).
func (s *Session) Text() string { return s.text }

// State returns the current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Err returns the terminal error (nil for finished or still-live sessions).
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Info is a consistent point-in-time view of a session, shaped for JSON
// serving.
type Info struct {
	ID      string    `json:"id"`
	Text    string    `json:"text"`
	State   State     `json:"state"`
	Created time.Time `json:"created"`
	// Started and Finished are nil until the respective transition.
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Elapsed is the run's wall-clock time so far (final once terminal).
	Elapsed time.Duration `json:"elapsed_ns"`
	// Deadline is the per-session execution deadline (0 = none).
	Deadline time.Duration `json:"deadline_ns,omitempty"`
	// Calls is Curr — live for running sessions, total(Q) once finished.
	Calls int64 `json:"calls"`
	// Stalled marks a running session whose GetNext counter has not
	// advanced for at least the manager's StallAfter window (watchdog
	// flag; clears if the counter moves again).
	Stalled bool `json:"stalled,omitempty"`
	// CancelReason says why a canceled session was canceled.
	CancelReason string `json:"cancel_reason,omitempty"`
	// Error is the terminal error message for failed sessions.
	Error string `json:"error,omitempty"`
	// Progress is the most recent observation (nil before the first sample).
	Progress *Progress `json:"progress,omitempty"`
	// Result summary, populated once finished.
	Columns  []string   `json:"columns,omitempty"`
	Rows     [][]string `json:"rows,omitempty"`
	RowCount int        `json:"row_count"`
	Mu       float64    `json:"mu,omitempty"`
}

// Info snapshots the session.
func (s *Session) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := Info{
		ID:           s.id,
		Text:         s.text,
		State:        s.state,
		Created:      s.created,
		Deadline:     s.deadline,
		CancelReason: s.cancelReason,
		RowCount:     s.rowCount,
		Mu:           s.workMu,
		Stalled:      s.stalled,
	}
	if !s.started.IsZero() {
		t := s.started
		in.Started = &t
		if s.finished.IsZero() {
			in.Elapsed = time.Since(s.started)
		}
	}
	if !s.finished.IsZero() {
		t := s.finished
		in.Finished = &t
		if !s.started.IsZero() {
			in.Elapsed = s.finished.Sub(s.started)
		}
	}
	switch {
	case s.state.Terminal():
		in.Calls = s.totalCalls
	case s.execCtx != nil:
		in.Calls = s.execCtx.Calls()
	}
	if s.err != nil {
		in.Error = s.err.Error()
	}
	if s.hasLast {
		p := s.last
		in.Progress = &p
	}
	in.Columns = s.cols
	if len(s.rows) > 0 {
		in.Rows = make([][]string, len(s.rows))
		for i, r := range s.rows {
			cells := make([]string, len(r))
			for j, v := range r {
				cells[j] = v.String()
			}
			in.Rows[i] = cells
		}
	}
	return in
}

// Samples returns the monitor's recorded sample series. Valid only once the
// session is terminal (the monitor goroutine is joined before the terminal
// transition, which keeps the samples and releases the monitor); nil for
// sessions canceled before running.
func (s *Session) Samples() []core.Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.state.Terminal() {
		return nil
	}
	return s.samples
}

// Subscribe registers a progress listener. The returned channel receives
// observations as they are sampled (primed with the latest one, when any)
// and is closed after the final event; a slow consumer loses intermediate
// observations, never the final one. The unsubscribe function is idempotent
// and must be called when the consumer is done.
//
// A subscriber that stops reading entirely is eventually evicted: its
// channel closes without a Final-marked event. Because eviction only
// happens on a live session, re-subscribing always works — and since
// Subscribe primes the channel with the latest observation (the final one
// included, for terminal sessions), an evicted-then-reattached consumer is
// still guaranteed to observe the session's final event.
func (s *Session) Subscribe() (<-chan Progress, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan Progress, 16)
	if s.hasLast {
		ch <- s.last
	}
	if s.state.Terminal() {
		close(ch)
		return ch, func() {}
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = &subscriber{ch: ch}
	return ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(ch)
		}
	}
}

// onSample adapts a monitor sample into a Progress event, fans it out and
// records the sample. It runs on the monitor's sampler goroutine (or, for
// the at-EOF sample, in Stop), while the monitor's tracker still holds the
// sample's capture.
func (s *Session) onSample(smp core.Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(s.progressLocked(smp, false))
	smp.Estimates = slices.Clone(smp.Estimates)
	s.samples = append(s.samples, smp)
}

// progressLocked shapes a monitor sample as a Progress event, taking the
// node counters from the monitor's latest capture.
func (s *Session) progressLocked(smp core.Sample, final bool) Progress {
	p := Progress{
		Calls: smp.Calls, LB: smp.LB, UB: smp.UB,
		Estimates: make(map[string]float64, len(s.estNames)),
		Final:     final,
		State:     s.state,
	}
	for i, n := range s.estNames {
		if i < len(smp.Estimates) {
			p.Estimates[n] = smp.Estimates[i]
		}
	}
	if smp.Calls > 0 && smp.UB > 0 {
		p.Lo = float64(smp.Calls) / float64(smp.UB)
		p.Hi = float64(smp.Calls) / float64(smp.LB)
		if p.Hi > 1 {
			p.Hi = 1
		}
	}
	if !s.started.IsZero() {
		p.Elapsed = time.Since(s.started)
	}
	if s.pool != nil {
		st := s.pool.Stats()
		p.Pool = &st
	}
	if s.mon != nil {
		tr := s.mon.Tracker()
		all := final || s.nodePrev == nil
		if s.nodePrev == nil {
			s.nodePrev = make([]ledger.Snapshot, tr.Shape().Len())
		}
		for i := range s.nodePrev {
			id := ledger.NodeID(i)
			rt := tr.Runtime(id)
			if !all && rt == s.nodePrev[i] {
				continue // unchanged since the previous published event
			}
			s.nodePrev[i] = rt
			p.Nodes = append(p.Nodes, NodeProgress{
				ID:        int32(i),
				Name:      tr.Shape().Node(id).Name,
				Calls:     rt.Returned,
				Delivered: rt.Delivered,
				Rescans:   rt.Rescans,
				Done:      rt.Done,
			})
		}
	}
	return p
}

// publishLocked assigns the event its sequence number, stores it as the
// latest observation, and fans it out to every subscriber. Sends are lossy
// (latest-wins) for intermediate events; the final event closes all
// subscriber channels, so it is always observed as the channel's last
// value or its closure. A subscriber whose buffer is found full on
// evictAfter consecutive publishes is evicted (closed without a final
// event) so a frozen consumer cannot pin per-event work forever; see
// Subscribe for the reattach guarantee.
func (s *Session) publishLocked(p Progress) {
	s.seq++
	p.Seq = s.seq
	s.last = p
	s.hasLast = true
	for id, sub := range s.subs {
		select {
		case sub.ch <- p:
			sub.dropStreak = 0
		default:
			// Full buffer: drop one stale observation, then retry once.
			sub.dropStreak++
			select {
			case <-sub.ch:
			default:
			}
			select {
			case sub.ch <- p:
			default:
			}
		}
		if p.Final || sub.dropStreak > evictAfter {
			if !p.Final && s.onEvict != nil {
				s.onEvict()
			}
			delete(s.subs, id)
			close(sub.ch)
		}
	}
}
