package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ptlactive/internal/adb"
	"ptlactive/internal/history"
	"ptlactive/internal/value"
)

// firingKey is what the correctness gate compares: rule, timestamp and
// bindings in a canonical form.
type firingKey struct {
	Rule    string
	TS      int64
	Binding string
}

func keyOf(f adb.Firing) firingKey {
	names := make([]string, 0, len(f.Binding))
	for k := range f.Binding {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%v;", k, f.Binding[k])
	}
	return firingKey{Rule: f.Rule, TS: f.Time, Binding: b.String()}
}

// newEngine builds a memory engine with the workload's initial state and
// rules, registered in order.
func newEngine(cfg adb.Config, initial map[string]value.Value, rules []ruleDef) (*adb.Engine, error) {
	cfg.Initial = initial
	eng := adb.NewEngine(cfg)
	if err := addRules(eng, rules); err != nil {
		return nil, err
	}
	return eng, nil
}

func addRules(eng *adb.Engine, rules []ruleDef) error {
	for _, r := range rules {
		var err error
		if r.Constraint {
			err = eng.AddConstraint(r.Name, r.Cond)
		} else {
			err = eng.AddTrigger(r.Name, r.Cond, nil)
		}
		if err != nil {
			return fmt.Errorf("rule %s: %w", r.Name, err)
		}
	}
	return nil
}

// apply commits one op; a constraint abort is an outcome, not an error.
func apply(eng *adb.Engine, o op) (aborted bool, err error) {
	err = eng.ExecTxn(o.TS, o.Updates, nil, o.Events...)
	if errors.Is(err, adb.ErrConstraintViolation) {
		return true, nil
	}
	return false, err
}

// oracle is the single-engine replay the gate compares against.
type oracle struct {
	firings []firingKey
	aborts  []bool
	db      history.DBState
}

// replayOracle replays ops into a fresh Workers: 1 engine.
func replayOracle(initial map[string]value.Value, rules []ruleDef, ops []op) (*oracle, error) {
	eng, err := newEngine(adb.Config{Workers: 1}, initial, rules)
	if err != nil {
		return nil, err
	}
	o := &oracle{aborts: make([]bool, len(ops))}
	for i, op := range ops {
		if o.aborts[i], err = apply(eng, op); err != nil {
			return nil, fmt.Errorf("oracle commit %d: %w", i, err)
		}
	}
	for _, f := range eng.Firings() {
		o.firings = append(o.firings, keyOf(f))
	}
	o.db = eng.DB()
	return o, nil
}

// expected is what the rounds of a one-node run are checked against: a
// Workers: 1 replay of the generated stream a round sends, made before
// any round runs. Rounds send that stream or a prefix of it, and the
// firings up to a commit and its outcome depend only on the commits
// before it, so one replay serves every round.
type expected struct {
	ops     []op
	aborts  []bool
	firings []firingKey       // in commit order
	dbAt    []history.DBState // database after each commit
	initial history.DBState
}

func replayExpected(initial map[string]value.Value, rules []ruleDef, ops []op) (*expected, error) {
	eng, err := newEngine(adb.Config{Workers: 1}, initial, rules)
	if err != nil {
		return nil, err
	}
	e := &expected{ops: ops, aborts: make([]bool, len(ops)), dbAt: make([]history.DBState, len(ops)), initial: eng.DB()}
	for i, o := range ops {
		if e.aborts[i], err = apply(eng, o); err != nil {
			return nil, fmt.Errorf("oracle commit %d: %w", i, err)
		}
		e.dbAt[i] = eng.DB()
	}
	for _, f := range eng.Firings() {
		e.firings = append(e.firings, keyOf(f))
	}
	return e, nil
}

// prefix returns the replay's outputs after the commits a round sent, or
// the first place where they leave the replayed stream.
func (e *expected) prefix(ops []op) (*oracle, string) {
	if len(ops) > len(e.ops) {
		return nil, fmt.Sprintf("%d commits sent, the stream holds %d", len(ops), len(e.ops))
	}
	if d := diffOps(ops, e.ops[:len(ops)]); d != "" {
		return nil, d
	}
	want := &oracle{aborts: e.aborts[:len(ops)], db: e.initial}
	if len(ops) == 0 {
		return want, ""
	}
	want.db = e.dbAt[len(ops)-1]
	last := ops[len(ops)-1].TS
	n := sort.Search(len(e.firings), func(i int) bool { return e.firings[i].TS > last })
	want.firings = e.firings[:n]
	return want, ""
}

// diffFirings reports the first difference between two firing streams,
// or "" when they are equal.
func diffFirings(got, want []firingKey) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("firing %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("got %d firings, want %d", len(got), len(want))
	}
	return ""
}

// diffAborts counts commits whose abort outcome differs from the oracle,
// a commit present on one side only included.
func diffAborts(got, want []bool) int {
	n := max(len(got), len(want)) - min(len(got), len(want))
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}

// diffDB reports the first item where two states differ, or "".
func diffDB(got, want history.DBState) string {
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d items, want %d", got.Len(), want.Len())
	}
	msg := ""
	want.Range(func(name string, v value.Value) bool {
		g, ok := got.Get(name)
		if !ok || !g.Equal(v) {
			msg = fmt.Sprintf("item %q = %v, want %v", name, g, v)
			return false
		}
		return true
	})
	return msg
}

// diffOps reports the first difference between two operation streams
// (timestamp, updates and events), or "" when they are equal.
func diffOps(got, want []op) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !sameOp(got[i], want[i]) {
			return fmt.Sprintf("operation %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("got %d operations, want %d", len(got), len(want))
	}
	return ""
}

func sameOp(a, b op) bool {
	if a.TS != b.TS || len(a.Updates) != len(b.Updates) || len(a.Events) != len(b.Events) {
		return false
	}
	for k, v := range a.Updates {
		if w, ok := b.Updates[k]; !ok || !v.Equal(w) {
			return false
		}
	}
	for i, e := range a.Events {
		if !e.Equal(b.Events[i]) {
			return false
		}
	}
	return true
}
