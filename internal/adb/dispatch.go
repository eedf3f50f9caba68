package adb

import (
	"sync"
	"sync/atomic"

	"ptlactive/internal/history"
)

// dispatch is the engine's reusable evaluation fan-out: one evaluation
// phase — a sweep's rule advances or a commit's tentative constraint
// steps — runs its n independent tasks on the calling goroutine plus up to
// Workers-1 parked helper goroutines. The state lives in the Engine and is
// reused by every phase, so dispatching allocates nothing per commit.
//
// Happens-before: the engine goroutine writes the phase inputs before the
// channel send that hands the dispatch to a helper, and reads the results
// after wg.Wait, which every helper's wg.Done precedes. A helper never
// touches the dispatch after its Done, so the next phase may reuse it.
type dispatch struct {
	e    *Engine
	task func(d *dispatch, i int)
	n    int
	next atomic.Int64
	wg   sync.WaitGroup

	// runJobs inputs: outs[idx[k]] receives the advance of jobs[idx[k]].
	end  int
	jobs []sweepJob
	idx  []int
	outs []advanceOutcome

	// checkConstraints inputs: verdicts[i] receives the tentative step of
	// cons[i].
	tentative history.SystemState
	cons      []*rule
	verdicts  []verdict
}

// verdict is one constraint's tentative step against a commit state.
type verdict struct {
	fired bool
	err   error
}

// helpers carries dispatches to the parked helper goroutines, which are
// shared by every engine in the process and live as long as it does: a
// parked helper references no engine, so memory-only engines, which have
// no Close, leak nothing. The pool only grows, to the largest Workers-1
// any engine has asked for.
var (
	helpers     = make(chan *dispatch)
	helperMu    sync.Mutex
	helperCount int
)

// ensureHelpers grows the helper pool to at least n goroutines.
func ensureHelpers(n int) {
	helperMu.Lock()
	defer helperMu.Unlock()
	for ; helperCount < n; helperCount++ {
		go func() {
			for d := range helpers {
				d.work()
				d.wg.Done()
			}
		}()
	}
}

// run executes task(d, i) for every i in [0, n) and returns when all have
// finished. The work is handed to at most workers-1 helpers that are
// parked right now; tasks no helper takes run on the calling goroutine, so
// a phase never waits for a helper busy with another engine.
func (d *dispatch) run(n, workers int, task func(d *dispatch, i int)) {
	d.task, d.n = task, n
	d.next.Store(0)
handoff:
	for w := 1; w < workers && w < n; w++ {
		d.wg.Add(1)
		select {
		case helpers <- d:
		default:
			// No helper is parked: the remaining tasks run here.
			d.wg.Done()
			break handoff
		}
	}
	d.work()
	d.wg.Wait()
}

// work claims tasks from the shared index until none are left.
func (d *dispatch) work() {
	for {
		i := int(d.next.Add(1)) - 1
		if i >= d.n {
			return
		}
		d.task(d, i)
	}
}

// advanceJob is runJobs' task: advance the k-th evaluation job.
func advanceJob(d *dispatch, k int) {
	i := d.idx[k]
	d.outs[i] = d.e.advanceRule(d.jobs[i].r, d.end)
}

// stepConstraint is checkConstraints' task: step a clone of the i-th
// constraint's evaluator against the tentative state.
func stepConstraint(d *dispatch, i int) {
	res, err := d.cons[i].ev.CloneEvaluator().StepResult(d.tentative)
	d.verdicts[i] = verdict{fired: res.Fired, err: err}
}
