package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/schema"
)

// Sample is one observation of the execution: the instant (in GetNext
// calls), the bounds, and each estimator's output.
type Sample struct {
	Calls  int64
	LB, UB int64
	// UBTight is the pessimistic (degree-norm) upper bound that held at the
	// sample; equal to UB when the plan carries no pessimistic bounds.
	UBTight   int64
	Estimates []float64 // parallel to Estimators
}

// Monitor is the progress sampler: it samples a set of estimators while a
// plan executes. Each sample is one Tracker capture evaluated by every
// estimator, then either handed to OnSample or, without one, recorded in
// Samples. Two triggers drive it:
//
//   - call count (NewMonitor): the Hook function samples each time Curr
//     reaches the next multiple of the period. Installed as
//     exec.Ctx.OnGetNext it runs on the exact path, at exact GetNext
//     instants; passed to exec.RunBatchObserved it runs at the batch
//     engine's root-batch quiesce points, keeping the vectorized fast path.
//   - wall clock (NewClockMonitor): Start launches a goroutine that samples
//     once per interval, reading the ledger's atomic counters; the executor
//     pays only the counter updates it performs anyway.
//
// Both obey one rule that keeps sample instants strictly increasing: a
// trigger at call count c samples only if c has reached the first multiple
// of the period past the last sample's instant (the clock's period is one
// call, so it skips instants already sampled). A sample's instant is the
// Curr its own capture read, which parallel workers may have advanced past
// c. Finish (or Stop) takes the at-EOF sample, so the series of a completed
// run ends at progress 1.0.
//
// Captures and deliveries are serialized, so the hook may fire concurrently
// from the worker goroutines of a parallel plan.
type Monitor struct {
	// Estimators are evaluated at every sample, in order.
	Estimators []Estimator
	// Samples are the recorded observations, in instant order. A monitor
	// with OnSample set records nothing.
	Samples []Sample
	// OnSample, when non-nil, receives each sample in place of recording
	// it. It runs on the goroutine that triggered the sample, holding the
	// monitor's lock: deliveries are serialized and in instant order, and
	// Tracker().Runtime reads the per-node counters of the sample's own
	// capture. It must not block for long, since parallel workers whose
	// trigger is due wait for it. The sample's Estimates slice is reused by
	// the next sample: copy what must outlive the call. Set before the run
	// starts.
	OnSample func(Sample)

	tracker  *Tracker
	root     exec.Operator
	every    int64
	interval time.Duration
	next     atomic.Int64 // the call count the trigger samples at next
	mu       sync.Mutex   // serializes captures and deliveries
	last     int64        // the last sample's instant, -1 before the first
	est      []float64    // the Estimates of a delivered sample
	total    int64
	ctx      *exec.Ctx
	stop     chan struct{}
	done     chan struct{}
}

// NewMonitor builds a call-count monitor for the plan rooted at root,
// sampling every `every` GetNext calls. A period below 1 is derived from
// the plan's initial bounds to give about 200 samples.
func NewMonitor(root exec.Operator, every int64, ests ...Estimator) *Monitor {
	m := &Monitor{Estimators: ests, tracker: NewTracker(root), root: root, last: -1}
	if every < 1 {
		// Capture's clamps (LB >= 1, UB >= LB) only touch bounds below 200,
		// where the period is 1 either way.
		s := m.tracker.Capture()
		every = s.UB / 200
		if every < 1 || s.UB >= exec.Unbounded {
			every = max(s.LB/200, 1)
		}
	}
	m.every = every
	m.next.Store(every)
	return m
}

// DefaultInterval is the wall-clock sampling period NewClockMonitor uses
// for a non-positive interval.
const DefaultInterval = time.Millisecond

// NewClockMonitor builds a wall-clock monitor for the plan rooted at root,
// sampling once per interval (DefaultInterval when not positive) between
// Start and Stop.
func NewClockMonitor(root exec.Operator, interval time.Duration, ests ...Estimator) *Monitor {
	m := NewMonitor(root, 1, ests...)
	m.interval = interval
	if interval <= 0 {
		m.interval = DefaultInterval
	}
	return m
}

// Hook returns the call-count trigger: install it as exec.Ctx.OnGetNext,
// or pass it to exec.RunBatchObserved to sample at quiesce points.
func (m *Monitor) Hook() func(calls int64) { return m.trigger }

// trigger is the check every counted call pays; it stays small enough to
// inline, and only a due trigger takes the lock.
func (m *Monitor) trigger(calls int64) {
	if calls >= m.next.Load() {
		m.due(calls)
	}
}

func (m *Monitor) due(calls int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if calls >= m.next.Load() {
		m.sample(m.tracker.Capture(), calls)
	}
}

// sample evaluates the estimators on capture s, taken at trigger count
// calls, and delivers or records the result. Caller holds m.mu.
func (m *Monitor) sample(s *State, calls int64) {
	// Anchor the sample to the ledger total its own capture read, not the
	// triggering call count: operators credit their ledger slots before the
	// global counter, and under parallel plans other workers advance both
	// between the trigger and the capture. The paper's per-instant
	// guarantees are stated against the captured Curr. In serial execution
	// the two are identical.
	calls = max(calls, s.Curr)
	m.last = calls
	m.next.Store(calls - calls%m.every + m.every)
	est := m.est
	if m.OnSample == nil || len(est) != len(m.Estimators) {
		est = make([]float64, len(m.Estimators))
	}
	for i, e := range m.Estimators {
		est[i] = e.Estimate(s)
	}
	smp := Sample{Calls: calls, LB: s.LB, UB: s.UB, UBTight: s.UBTight, Estimates: est}
	if m.OnSample != nil {
		m.est = est
		m.OnSample(smp)
		return
	}
	m.Samples = append(m.Samples, smp)
}

// Finish records total(Q) and takes the at-completion sample: the closing
// capture always runs, so Tracker().Runtime reads the drained plan's
// counters afterwards, but it becomes a sample only if the last sample does
// not already hold its instant (the triggers rarely fire on the final
// call). Run and Stop call it; callers installing Hook themselves call it
// once the plan is drained.
func (m *Monitor) Finish(total int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total = total
	if s := m.tracker.Capture(); max(total, s.Curr) > m.last {
		m.sample(s, total)
	}
}

// Start launches the wall-clock trigger against the context the plan is
// (or will be) executing under. Call it at most once, on a monitor built by
// NewClockMonitor, and pair it with Stop.
func (m *Monitor) Start(ctx *exec.Ctx) {
	m.ctx = ctx
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		tick := time.NewTicker(m.interval)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.trigger(ctx.Calls())
			}
		}
	}()
}

// Stop halts the wall-clock trigger, waits for its goroutine to exit and
// finishes at the current instant (see Finish). After Stop returns, Samples
// is safe to read; if the plan ran to completion, the last sample is the
// at-EOF observation. Stop without Start does nothing.
func (m *Monitor) Stop() {
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop = nil
	m.Finish(m.ctx.Calls())
}

// Run executes the plan to completion under this monitor and returns the
// root's output rows. A call-count monitor runs the row engine with its
// hook installed; a wall-clock monitor samples from its goroutine, so the
// run takes the batch engine's vectorized fast path, and on error its
// partial samples remain readable.
func (m *Monitor) Run() ([]schema.Row, error) {
	ctx := exec.NewCtx()
	if m.interval > 0 {
		m.Start(ctx)
		rows, err := exec.RunBatch(ctx, m.root)
		m.Stop()
		if err != nil {
			return nil, err
		}
		return rows, nil
	}
	ctx.OnGetNext = m.Hook()
	rows, err := exec.Run(ctx, m.root)
	if err != nil {
		return nil, err
	}
	m.Finish(ctx.Calls())
	return rows, nil
}

// Tracker returns the monitor's tracker. During OnSample, and after Finish,
// its Runtime reads the per-node counters of the latest capture.
func (m *Monitor) Tracker() *Tracker { return m.tracker }

// Total returns total(Q) (valid after Finish).
func (m *Monitor) Total() int64 { return m.total }

// Mu returns the paper's mu for the completed execution.
func (m *Monitor) Mu() float64 { return Mu(m.root) }

// Point pairs the true progress at a sample with an estimate.
type Point struct {
	Actual, Est float64
}

// Series returns (actual, estimate) points for the named estimator; valid
// after the run completes.
func (m *Monitor) Series(name string) ([]Point, error) {
	for i, e := range m.Estimators {
		if e.Name() == name {
			return m.SeriesAt(i), nil
		}
	}
	return nil, fmt.Errorf("monitor: no estimator %q", name)
}

// SeriesAt returns the points for estimator index i.
func (m *Monitor) SeriesAt(i int) []Point {
	out := make([]Point, len(m.Samples))
	for j, s := range m.Samples {
		out[j] = Point{Actual: float64(s.Calls) / float64(m.total), Est: s.Estimates[i]}
	}
	return out
}

// BoundsPoint pairs, per sample, the true progress and the hard interval
// [Curr/UB, Curr/LB] that held at that instant.
type BoundsPoint struct {
	Actual, Lo, Hi float64
}

// IntervalSeries returns the hard progress interval per sample.
func (m *Monitor) IntervalSeries() []BoundsPoint {
	out := make([]BoundsPoint, len(m.Samples))
	for j, s := range m.Samples {
		lo := float64(s.Calls) / float64(s.UB)
		hi := float64(s.Calls) / float64(s.LB)
		if hi > 1 {
			hi = 1
		}
		out[j] = BoundsPoint{
			Actual: float64(s.Calls) / float64(m.total),
			Lo:     lo,
			Hi:     hi,
		}
	}
	return out
}
