package coretest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/fault"
	"sqlprogress/internal/pager"
)

// chaosEstimators builds the estimator set every chaos run samples. Fresh
// values per run: estimators may keep history.
func chaosEstimators() []core.Estimator {
	return []core.Estimator{core.Dne{}, core.Pmax{}, core.Safe{}}
}

var chaosNames = []string{"dne", "pmax", "safe"}

var horizonMem = struct {
	sync.Mutex
	m map[string]int64
}{m: map[string]int64{}}

// cleanTotal returns the entry's fault-free total(Q), computed once per
// label: schedule generation needs the call horizon so fault indices land
// inside the run.
func cleanTotal(entry CorpusEntry) (int64, error) {
	horizonMem.Lock()
	defer horizonMem.Unlock()
	if v, ok := horizonMem.m[entry.Label]; ok {
		return v, nil
	}
	ctx := exec.NewCtx()
	if _, err := exec.Run(ctx, entry.Build()); err != nil {
		return 0, fmt.Errorf("coretest: clean run of %s: %w", entry.Label, err)
	}
	horizonMem.m[entry.Label] = ctx.Calls()
	return ctx.Calls(), nil
}

// chaosProfile is the schedule shape RunChaos draws from: a handful of
// short stalls (enough to shear the wall-clock sampler against the executor
// without slowing the suite), and a terminal fault — injected operator
// error or exact-call cancellation — on ~40% of schedules.
func chaosProfile(horizon int64) fault.Profile {
	return fault.Profile{
		Horizon:   horizon,
		MaxStalls: 3,
		MaxStall:  200 * time.Microsecond,
		PError:    0.2,
		PCancel:   0.2,
	}
}

// RunChaos executes one seeded chaos schedule — corpus entry and fault
// schedule both derived deterministically from seed — and verifies every
// invariant. A non-nil error embeds the seed and the schedule's replay
// string; rerunning RunChaos with the same seed reproduces the failure
// exactly.
func RunChaos(seed int64) error {
	return runChaos(seed, false)
}

// RunChaosBatch is RunChaos driving the batch engine. Chaos runs install
// both a per-call injector and the inline Monitor's hook, which forces the
// batch engine onto its exact (call-for-call) path — so every exact-call
// assertion below applies unchanged: faults and cancellations must land at
// precisely the scheduled GetNext count even when that count falls in the
// middle of a batch.
func RunChaosBatch(seed int64) error {
	return runChaos(seed, true)
}

func runChaos(seed int64, batch bool) error {
	rng := rand.New(rand.NewSource(seed))
	corpus := Corpus()
	entry := corpus[rng.Intn(len(corpus))]
	horizon, err := cleanTotal(entry)
	if err != nil {
		return err
	}
	engine := "row"
	if batch {
		engine = "batch"
	}
	sched := fault.Generate(seed, chaosProfile(horizon))
	if err := runChaosSchedule(entry, sched, batch, nil); err != nil {
		return fmt.Errorf("chaos seed %d [%s/%s] schedule %q: %w", seed, entry.Label, engine, sched.String(), err)
	}
	return nil
}

// RunChaosSchedule executes entry under the given fault schedule with two
// monitors attached — one sampling every call through its hook on the
// execution goroutine, and a wall-clock one racing it from its sampler
// goroutine — then cross-validates the outcome against the faults that
// actually fired and checks both sample series against the paper's
// guarantees.
func RunChaosSchedule(entry CorpusEntry, sched fault.Schedule) error {
	return runChaosSchedule(entry, sched, false, nil)
}

// RunChaosScheduleBatch is RunChaosSchedule under the batch engine (see
// RunChaosBatch for why the exact-call verdicts carry over).
func RunChaosScheduleBatch(entry CorpusEntry, sched fault.Schedule) error {
	return runChaosSchedule(entry, sched, true, nil)
}

func runChaosSchedule(entry CorpusEntry, sched fault.Schedule, batch bool, pages []*fault.PageBackend) error {
	root := entry.Build()
	ctx := exec.NewCtx()
	inj := fault.NewInjector(sched)
	inj.Arm(ctx)

	mon := core.NewMonitor(root, 1, chaosEstimators()...)
	ctx.OnGetNext = mon.Hook()
	clock := core.NewClockMonitor(root, 100*time.Microsecond, chaosEstimators()...)
	clock.Start(ctx)
	var runErr error
	if batch {
		_, runErr = exec.RunBatch(ctx, root)
	} else {
		_, runErr = exec.Run(ctx, root)
	}
	clock.Stop()
	total := ctx.Calls()

	// Cross-validate the outcome against the fired faults: a scheduled
	// fault must surface as exactly the failure it models, at exactly the
	// call it was scheduled for.
	var errEv, cancelEv *fault.Event
	for i, ev := range inj.Fired() {
		switch ev.Kind {
		case fault.ErrorFault:
			errEv = &inj.Fired()[i]
		case fault.CancelFault:
			cancelEv = &inj.Fired()[i]
		}
	}
	pageErr := false
	for _, pb := range pages {
		if pb.FiredError() {
			pageErr = true
		}
	}
	switch {
	case pageErr:
		// A physical page-read error is terminal, but it races the
		// call-indexed faults (and, under parallel plans, sibling workers)
		// for which terminal error surfaces first — any of the three is an
		// acceptable outcome, a clean completion or an unrelated error is
		// not.
		if runErr == nil {
			return fmt.Errorf("page-read error fault fired but run completed cleanly")
		}
		if !errors.Is(runErr, fault.ErrPageFault) && !errors.Is(runErr, fault.ErrInjected) && !errors.Is(runErr, exec.ErrCanceled) {
			return fmt.Errorf("page-read fault fired but run returned unrelated error %v", runErr)
		}
	case entry.Parallel:
		// Parallel plans relax the exact-call accounting: a worker that
		// triggers a terminal fault cannot stop its siblings' in-flight
		// counted calls, so the run quiesces at or past the scheduled call,
		// never before it. Which terminal error surfaces first is a race
		// between the failing worker and the cancellation sweep, so either
		// injected-error or canceled is an acceptable outcome when a
		// terminal fault fired.
		if errEv == nil && cancelEv == nil {
			if runErr != nil {
				return fmt.Errorf("no terminal fault fired but run returned %v", runErr)
			}
			break
		}
		if errEv != nil && runErr == nil {
			return fmt.Errorf("error fault fired at call %d but run completed cleanly", errEv.At)
		}
		if runErr != nil && !errors.Is(runErr, fault.ErrInjected) && !errors.Is(runErr, exec.ErrCanceled) {
			return fmt.Errorf("terminal fault fired but run returned unrelated error %v", runErr)
		}
		if errEv != nil && total < errEv.At {
			return fmt.Errorf("error fault at call %d but run stopped at %d calls", errEv.At, total)
		}
		if cancelEv != nil && total < cancelEv.At {
			return fmt.Errorf("cancel fault at call %d but run stopped at %d calls", cancelEv.At, total)
		}
	case errEv != nil:
		if !errors.Is(runErr, fault.ErrInjected) {
			return fmt.Errorf("error fault fired at call %d but run returned %v", errEv.At, runErr)
		}
		if total != errEv.At {
			return fmt.Errorf("error fault at call %d but run stopped at %d calls", errEv.At, total)
		}
	case cancelEv != nil:
		// Cancellation stops the run at the next counted call, which never
		// happens when the fault lands on the run's very last call — the
		// plan then drains to EOF normally. Either way no call after At is
		// counted.
		if runErr != nil && !errors.Is(runErr, exec.ErrCanceled) {
			return fmt.Errorf("cancel fault fired at call %d but run returned %v", cancelEv.At, runErr)
		}
		if total != cancelEv.At {
			return fmt.Errorf("cancel fault at call %d but run stopped at %d calls", cancelEv.At, total)
		}
	default:
		if runErr != nil {
			return fmt.Errorf("no terminal fault fired but run returned %v", runErr)
		}
	}

	completed := runErr == nil
	var mu float64
	if completed {
		mon.Finish(total)
		mu = core.Mu(root)
	}
	for _, src := range []struct {
		name    string
		samples []core.Sample
	}{{"inline", mon.Samples}, {"clock", clock.Samples}} {
		s := Series{
			Label:     entry.Label + "/" + src.name,
			Names:     chaosNames,
			Samples:   src.samples,
			Completed: completed,
			Total:     total,
			Mu:        mu,
		}
		if err := s.Check(); err != nil {
			return err
		}
	}
	return nil
}

// chaosPagedReadCost makes paged chaos runs charge weighted physical-read
// units, so cancellation and sampling instants land between a page's read
// and its rows — the "cancel mid-page" failure mode.
const chaosPagedReadCost = 2

// RunChaosPaged executes one seeded chaos schedule against the paged
// differential corpus: entry, call-indexed fault schedule, and physical
// page-read faults (exact-page errors and latency spikes on the
// pager.Backend seam) all derive deterministically from seed. Each run
// scans the shared heap files through a fresh cold buffer pool behind a
// fresh fault wrapper, so replays see identical physical read sequences.
func RunChaosPaged(seed int64) error {
	return runChaosPaged(seed, false)
}

// RunChaosPagedBatch is RunChaosPaged driving the batch engine.
func RunChaosPagedBatch(seed int64) error {
	return runChaosPaged(seed, true)
}

// chaosPagedCatalog builds a per-run catalog over the fixture's heap files:
// fresh pool, optional fault-wrapped backends, weighted read cost. Backends
// may be nil (no page faults armed).
func chaosPagedCatalog(f *pagedFixture, b1, b2 pager.Backend) (*catalog.Catalog, error) {
	cat, err := corpusSideCatalog()
	if err != nil {
		return nil, err
	}
	pool := pager.NewPool(pagedTwinFrames)
	for _, t := range []struct {
		hf *pager.HeapFile
		b  pager.Backend
	}{{f.hf1, b1}, {f.hf2, b2}} {
		var pr *pager.PagedRelation
		if t.b != nil {
			pr = pager.NewPagedRelationBackend(t.hf, pool, t.b)
		} else {
			pr = pager.NewPagedRelation(t.hf, pool)
		}
		pr.SetReadCost(chaosPagedReadCost)
		cat.AddStore(pr)
	}
	return cat, nil
}

// pagedFaultsFor derives this run's physical fault points for one heap
// file: with probability ~0.2 an exact-page read error, ~0.2 a latency
// spike, on a seed-chosen data page.
func pagedFaultsFor(rng *rand.Rand, hf *pager.HeapFile) []fault.PageFault {
	if hf.DataPages() == 0 {
		return nil
	}
	page := hf.DataStart() + uint32(rng.Intn(int(hf.DataPages())))
	switch roll := rng.Float64(); {
	case roll < 0.2:
		return []fault.PageFault{{Page: page, Fail: true}}
	case roll < 0.4:
		return []fault.PageFault{{Page: page, Stall: 200 * time.Microsecond}}
	}
	return nil
}

func runChaosPaged(seed int64, batch bool) error {
	rng := rand.New(rand.NewSource(seed))
	corpus := PagedCorpus()
	pe := corpus[rng.Intn(len(corpus))]
	f, err := fixture()
	if err != nil {
		return err
	}

	// The horizon comes from a fault-free run over a fresh cold pool: with
	// page-aligned partitions every data page is read exactly once however
	// the workers interleave, so the weighted total is deterministic and
	// memoizable per label.
	label := "paged-chaos/" + pe.Label
	cleanEntry := CorpusEntry{Label: label, Parallel: pe.Parallel, Build: func() exec.Operator {
		cat, err := chaosPagedCatalog(f, nil, nil)
		if err != nil {
			panic(err)
		}
		return pe.Build(cat)
	}}
	horizon, err := cleanTotal(cleanEntry)
	if err != nil {
		return err
	}

	pb1 := fault.WrapBackend(f.hf1.Backend(), pagedFaultsFor(rng, f.hf1)...)
	pb2 := fault.WrapBackend(f.hf2.Backend(), pagedFaultsFor(rng, f.hf2)...)
	cat, err := chaosPagedCatalog(f, pb1, pb2)
	if err != nil {
		return err
	}
	entry := CorpusEntry{Label: label, Parallel: pe.Parallel, Build: func() exec.Operator {
		return pe.Build(cat)
	}}

	engine := "row"
	if batch {
		engine = "batch"
	}
	sched := fault.Generate(seed, chaosProfile(horizon))
	if err := runChaosSchedule(entry, sched, batch, []*fault.PageBackend{pb1, pb2}); err != nil {
		return fmt.Errorf("paged chaos seed %d [%s/%s] schedule %q: %w", seed, entry.Label, engine, sched.String(), err)
	}
	return nil
}
