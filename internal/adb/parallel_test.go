package adb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// condPool is a mix of condition shapes exercising the fast path, the
// general constraint-graph path, temporal operators, free parameters and
// database reads; %d is the rule index, keeping event gates distinct.
var condPool = []string{
	`@ev%d and item("a") > 2`,
	`@ev%d since item("a") > 4`,
	`lasttime @ev%d`,
	`previously (@ev%d and item("b") > 1)`,
	`@pay%d(U) and U > 3`,
	`[x <- item("a")] (@ev%d and x >= 0 and item("b") < 100)`,
	`item("a") + item("b") > 6 and @ev%d`,
}

// engineParams is a deterministically generated engine setup: the initial
// database plus rule conditions and schedulings. Deriving it from the seed
// separately from engine construction lets the recovery tests register the
// identical rule set on a memory reference and on a durable engine.
type engineParams struct {
	a, b            int64
	conds           []string
	scheds          []Scheduling
	withConstraints bool
}

// randomEngineParams consumes the seed's randomness in the exact order the
// historical buildRandomEngine did, so the rule set for a given seed is
// stable across the refactor.
func randomEngineParams(seed int64, rules int, withConstraints bool) engineParams {
	rng := rand.New(rand.NewSource(seed))
	p := engineParams{
		a:               int64(rng.Intn(5)),
		b:               int64(rng.Intn(5)),
		withConstraints: withConstraints,
	}
	scheds := []Scheduling{Eager, Relevant, Manual}
	for i := 0; i < rules; i++ {
		p.conds = append(p.conds, fmt.Sprintf(condPool[rng.Intn(len(condPool))], i))
		p.scheds = append(p.scheds, scheds[rng.Intn(len(scheds))])
	}
	return p
}

// config builds the engine configuration for this parameter set.
func (p engineParams) config(workers int) Config {
	return Config{
		Initial: map[string]value.Value{
			"a": value.NewInt(p.a),
			"b": value.NewInt(p.b),
		},
		Workers:    workers,
		TrackItems: []string{"a", "b"},
	}
}

// register adds the parameter set's rules and constraints to an engine.
func (p engineParams) register(t *testing.T, e *Engine) {
	t.Helper()
	for i, cond := range p.conds {
		if err := e.AddTrigger(fmt.Sprintf("r%03d", i), cond, nil, WithScheduling(p.scheds[i])); err != nil {
			t.Fatalf("AddTrigger: %v", err)
		}
	}
	if p.withConstraints {
		if err := e.AddConstraint("c_a_low", `not (item("a") > 50)`); err != nil {
			t.Fatalf("AddConstraint: %v", err)
		}
		if err := e.AddConstraint("c_b_low", `not (item("b") > 50)`); err != nil {
			t.Fatalf("AddConstraint: %v", err)
		}
	}
}

// buildRandomEngine registers R random rules (and optionally constraints)
// on a fresh engine with the given worker count; the rule set depends only
// on seed, so two calls with different workers get identical rule sets.
func buildRandomEngine(t *testing.T, seed int64, rules, workers int, withConstraints bool) *Engine {
	t.Helper()
	p := randomEngineParams(seed, rules, withConstraints)
	e := NewEngine(p.config(workers))
	p.register(t, e)
	return e
}

// engineOp is one pre-generated external operation; materializing the
// random mix as a list lets the crash tests cut it at every boundary.
type engineOp struct {
	kind   int
	ts     int64
	events []event.Event
	upd    map[string]value.Value
}

const (
	opEmit = iota
	opExec
	opAbort
	opFlush
)

// randomOps generates the operation mix, consuming the seed's randomness
// in the exact order the historical driveRandomHistory did.
func randomOps(seed int64, rules, states int, start int64) []engineOp {
	rng := rand.New(rand.NewSource(seed))
	ts := start
	var ops []engineOp
	for s := 0; s < states; s++ {
		ts += int64(1 + rng.Intn(3))
		switch rng.Intn(10) {
		case 0, 1, 2: // event-only state hitting some rule's gate
			i := rng.Intn(rules)
			var ev event.Event
			if rng.Intn(2) == 0 {
				ev = event.New(fmt.Sprintf("ev%d", i))
			} else {
				ev = event.New(fmt.Sprintf("pay%d", i), value.NewInt(int64(rng.Intn(8))))
			}
			ops = append(ops, engineOp{kind: opEmit, ts: ts, events: []event.Event{ev}})
		case 3: // noise event no rule listens to
			ops = append(ops, engineOp{kind: opEmit, ts: ts, events: []event.Event{event.New("noise")}})
		case 4, 5, 6, 7: // transaction updating the database
			upd := map[string]value.Value{}
			if rng.Intn(2) == 0 {
				upd["a"] = value.NewInt(int64(rng.Intn(60)))
			}
			if rng.Intn(2) == 0 {
				upd["b"] = value.NewInt(int64(rng.Intn(60)))
			}
			ops = append(ops, engineOp{
				kind:   opExec,
				ts:     ts,
				upd:    upd,
				events: []event.Event{event.New(fmt.Sprintf("ev%d", rng.Intn(rules)))},
			})
		case 8: // explicit abort
			ops = append(ops, engineOp{kind: opAbort, ts: ts})
		case 9: // batched invocation of the temporal component
			ops = append(ops, engineOp{kind: opFlush})
		}
	}
	ops = append(ops, engineOp{kind: opFlush})
	return ops
}

// applyOp runs one operation, returning the violated constraint's name
// when the operation was a constraint-aborted commit ("" otherwise).
func applyOp(t *testing.T, e *Engine, op engineOp) string {
	t.Helper()
	switch op.kind {
	case opEmit:
		if err := e.Emit(op.ts, op.events...); err != nil {
			t.Fatalf("Emit: %v", err)
		}
	case opExec:
		err := e.Exec(op.ts, op.upd, op.events...)
		var ce *ConstraintError
		if errors.As(err, &ce) {
			return ce.Constraint
		}
		if err != nil {
			t.Fatalf("Exec: %v", err)
		}
	case opAbort:
		tx := e.Begin()
		tx.Set("a", value.NewInt(99))
		if err := tx.Abort(op.ts); err != nil {
			t.Fatalf("Abort: %v", err)
		}
	case opFlush:
		if err := e.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	return ""
}

// driveRandomHistory runs an identical random operation mix (emits,
// commits, aborts, flushes) against the engine; identical seeds produce
// identical histories.
func driveRandomHistory(t *testing.T, e *Engine, seed int64, rules, states int) {
	t.Helper()
	for _, op := range randomOps(seed, rules, states, e.Now()) {
		applyOp(t, e, op)
	}
}

// TestParallelFiringEquivalence is the determinism property: over random
// rule sets and random histories, Workers=N produces the identical firing
// sequence (names, bindings, timestamps, state indices, order), the same
// step counts and the same final database as Workers=1.
func TestParallelFiringEquivalence(t *testing.T) {
	trials := 12
	states := 120
	if testing.Short() {
		trials, states = 4, 60
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)
		rules := 3 + trial%9
		withConstraints := trial%2 == 0
		seq := buildRandomEngine(t, seed, rules, 1, withConstraints)
		par := buildRandomEngine(t, seed, rules, 8, withConstraints)
		driveRandomHistory(t, seq, seed*31, rules, states)
		driveRandomHistory(t, par, seed*31, rules, states)

		sf, pf := seq.Firings(), par.Firings()
		if !reflect.DeepEqual(sf, pf) {
			t.Fatalf("trial %d: firing sequences diverge:\n  sequential (%d): %v\n  parallel   (%d): %v",
				trial, len(sf), sf, len(pf), pf)
		}
		if sn, pn := seq.Now(), par.Now(); sn != pn {
			t.Fatalf("trial %d: clocks diverge: %d vs %d", trial, sn, pn)
		}
		// Step counts match exactly only without constraints: on an
		// aborted commit the sequential path short-circuits at the first
		// violated constraint while the parallel path evaluates all of
		// them (a documented divergence — see DESIGN.md).
		if !withConstraints {
			if ss, ps := seq.EvalSteps(), par.EvalSteps(); ss != ps {
				t.Fatalf("trial %d: eval step counts diverge: %d vs %d", trial, ss, ps)
			}
		}
		if !seq.DB().Equal(par.DB()) {
			t.Fatalf("trial %d: final databases diverge: %v vs %v", trial, seq.DB(), par.DB())
		}
	}
}

// TestParallelEnginesShareHelpers drives several engines at once, each
// asking for more workers than the machine has cores, so their evaluation
// phases contend for the process-wide parked helpers (dispatch.go). A
// phase whose helpers are busy elsewhere runs on its own goroutine; every
// engine must still match its sequential twin.
func TestParallelEnginesShareHelpers(t *testing.T) {
	const rules, states = 7, 120
	for i := 0; i < 4; i++ {
		seed := int64(2000 + i)
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			seq := buildRandomEngine(t, seed, rules, 1, true)
			par := buildRandomEngine(t, seed, rules, 8, true)
			driveRandomHistory(t, seq, seed*31, rules, states)
			driveRandomHistory(t, par, seed*31, rules, states)
			if sf, pf := seq.Firings(), par.Firings(); !reflect.DeepEqual(sf, pf) {
				t.Fatalf("firing sequences diverge:\n  sequential (%d): %v\n  parallel   (%d): %v", len(sf), sf, len(pf), pf)
			}
			if !seq.DB().Equal(par.DB()) {
				t.Fatalf("final databases diverge: %v vs %v", seq.DB(), par.DB())
			}
		})
	}
}

// TestParallelConstraintAbortOrder checks that when several constraints
// reject the same commit, the reported violation is the first one in rule
// registration order — not whichever worker finished first.
func TestParallelConstraintAbortOrder(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := NewEngine(Config{
			Initial: map[string]value.Value{"a": value.NewInt(0)},
			Workers: 8,
		})
		// c0 holds; c1..c7 are all violated by the same update.
		if err := e.AddConstraint("c0", `not (item("a") < 0)`); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 8; i++ {
			if err := e.AddConstraint(fmt.Sprintf("c%d", i), `not (item("a") > 10)`); err != nil {
				t.Fatal(err)
			}
		}
		err := e.Exec(int64(round+1), map[string]value.Value{"a": value.NewInt(50)})
		var ce *ConstraintError
		if !errors.As(err, &ce) {
			t.Fatalf("round %d: want constraint violation, got %v", round, err)
		}
		if ce.Constraint != "c1" {
			t.Fatalf("round %d: violation attributed to %s, want c1 (first in rule order)", round, ce.Constraint)
		}
	}
}

// TestParallelWorkersConfig checks the Workers plumbing: zero defaults to
// a positive pool, explicit values are kept.
func TestParallelWorkersConfig(t *testing.T) {
	if w := NewEngine(Config{}).Workers(); w < 1 {
		t.Fatalf("default worker pool is %d, want >= 1", w)
	}
	if w := NewEngine(Config{Workers: 3}).Workers(); w != 3 {
		t.Fatalf("Workers = %d, want 3", w)
	}
}

// TestConcurrentReaderStress hammers the reader accessors from several
// goroutines while a single mutator runs emits, transactions and flushes;
// run under -race this is the regression test for the engine's
// concurrency model (readers may overlap one mutator).
func TestConcurrentReaderStress(t *testing.T) {
	e := NewEngine(Config{
		Initial:    map[string]value.Value{"a": value.NewInt(1), "b": value.NewInt(2)},
		Workers:    4,
		TrackItems: []string{"a"},
	})
	for i := 0; i < 12; i++ {
		cond := fmt.Sprintf(condPool[i%len(condPool)], i)
		if err := e.AddTrigger(fmt.Sprintf("r%d", i), cond, nil, WithScheduling(Scheduling(i%3))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddConstraint("cap", `not (item("a") > 1000)`); err != nil {
		t.Fatal(err)
	}

	states := 120
	if testing.Short() {
		states = 40
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = e.Firings()
				_, _ = e.ItemAsOf("a", e.Now())
				_, _ = e.Rule(fmt.Sprintf("r%d", g))
				_ = e.EvalSteps()
				_ = e.DB()
				_ = e.RuleNames()
				_ = e.Executions("r0", e.Now())
				_ = e.BaseIndex()
				runtime.Gosched()
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	ts := e.Now()
	for s := 0; s < states; s++ {
		ts += 2
		switch s % 4 {
		case 0:
			if err := e.Emit(ts, event.New(fmt.Sprintf("ev%d", rng.Intn(12)))); err != nil {
				t.Fatal(err)
			}
		case 1, 2:
			err := e.Exec(ts, map[string]value.Value{"a": value.NewInt(int64(rng.Intn(50)))})
			if err != nil && !errors.Is(err, ErrConstraintViolation) {
				t.Fatal(err)
			}
		case 3:
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestParallelPanicIsolationEquivalence composes the sandbox with the
// determinism property: a rule whose action alternately panics and errors
// (and is eventually quarantined) rides along with the random rule set,
// constraints included. The faulting rule must not perturb anything —
// Workers=4 stays byte-identical to Workers=1, and with the chaos rule's
// own firings filtered out, the run is byte-identical to an engine that
// never had the rule — while both engines quarantine and revive it at the
// same point.
func TestParallelPanicIsolationEquivalence(t *testing.T) {
	const seed, rules, states = 4242, 4, 40
	p := randomEngineParams(seed, rules, true)
	ops := randomOps(seed*31, rules, states, 0)

	// Baseline: the same random run without the chaos rule.
	base := NewEngine(p.config(1))
	p.register(t, base)
	var baseAborts []string
	for _, op := range ops {
		if name := applyOp(t, base, op); name != "" {
			baseAborts = append(baseAborts, name)
		}
	}

	type run struct {
		e      *Engine
		calls  int
		aborts []string
	}
	mkRun := func(workers int) *run {
		r := &run{}
		cfg := p.config(workers)
		cfg.MaxRuleFailures = 3
		r.e = NewEngine(cfg)
		p.register(t, r.e)
		// Registered after the random set, so the existing rules keep their
		// registration order. Gated on ev0, which the op mix emits routinely.
		if err := r.e.AddTrigger("chaos", `@ev0`, func(ctx *ActionContext) error {
			r.calls++
			if r.calls%2 == 1 {
				panic(fmt.Sprintf("chaos %d", r.calls))
			}
			return fmt.Errorf("chaos %d", r.calls)
		}); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if name := applyOp(t, r.e, op); name != "" {
				r.aborts = append(r.aborts, name)
			}
		}
		return r
	}
	seq, par := mkRun(1), mkRun(4)

	// Worker-count equivalence of the full faulting run.
	if !firingsEqual(seq.e.Firings(), par.e.Firings()) {
		t.Fatalf("firings diverge between worker counts:\n seq %v\n par %v", seq.e.Firings(), par.e.Firings())
	}
	// EvalSteps is not compared: with constraints, the sequential abort
	// path short-circuits where the parallel path evaluates all
	// constraints (the documented divergence — see DESIGN.md).
	if seq.e.Now() != par.e.Now() || !seq.e.DB().Equal(par.e.DB()) {
		t.Fatal("engine state diverges between worker counts")
	}
	if !reflect.DeepEqual(seq.aborts, par.aborts) {
		t.Fatalf("abort sequences diverge: %v vs %v", seq.aborts, par.aborts)
	}
	if seq.calls != par.calls {
		t.Fatalf("chaos action invoked %d times sequentially, %d in parallel", seq.calls, par.calls)
	}
	if seq.calls == 0 {
		t.Fatal("chaos rule never fired; the property was not exercised")
	}

	for _, r := range []*run{seq, par} {
		// Isolation: dropping the chaos firings reproduces the baseline.
		var others []Firing
		for _, f := range r.e.Firings() {
			if f.Rule != "chaos" {
				others = append(others, f)
			}
		}
		if !firingsEqual(others, base.Firings()) {
			t.Fatalf("chaos rule perturbed other rules' firings:\n got %v\nwant %v", others, base.Firings())
		}
		if !r.e.DB().Equal(base.DB()) || r.e.Now() != base.Now() {
			t.Fatal("chaos rule perturbed the database or clock")
		}
		if !reflect.DeepEqual(r.aborts, baseAborts) {
			t.Fatalf("chaos rule perturbed constraint aborts: %v vs %v", r.aborts, baseAborts)
		}

		// Both engines trip the breaker at the same point and can revive.
		h, ok := r.e.RuleHealth("chaos")
		if !ok || !h.Quarantined {
			t.Fatalf("chaos not quarantined: %+v", h)
		}
		if h.TotalFailures != 3 {
			t.Fatalf("chaos failed %d times, want exactly MaxRuleFailures=3 then suppression", h.TotalFailures)
		}
		// Failure 3 (odd) was a panic, so the recorded cause is the sandbox's.
		if !errors.Is(h.LastError, ErrActionPanic) {
			t.Fatalf("LastError = %v, want the recovered panic", h.LastError)
		}
		before := r.calls
		if err := r.e.ReviveRule("chaos"); err != nil {
			t.Fatal(err)
		}
		if err := r.e.Emit(r.e.Now()+1, event.New("ev0")); err != nil {
			t.Fatalf("Emit after revive: %v", err)
		}
		if r.calls != before+1 {
			t.Fatalf("revived action invoked %d times, want %d", r.calls, before+1)
		}
	}
}
