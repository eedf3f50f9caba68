// Package adb implements the paper's rule system and execution model
// (Sections 3, 7 and 8): Condition-Action rules whose conditions are PTL
// formulas, temporal integrity constraints evaluated at commit attempts,
// the executed predicate for composite and temporal actions, relevance
// filtering and batched invocation of the temporal component.
package adb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/histio"
	"ptlactive/internal/history"
	"ptlactive/internal/persist"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/relation"
	"ptlactive/internal/retain"
	"ptlactive/internal/value"
)

// Scheduling selects when a trigger's condition is (re)evaluated
// (Section 8).
type Scheduling int

const (
	// Eager evaluates the condition at every new system state.
	Eager Scheduling = iota
	// Relevant evaluates only when a state carries one of the condition's
	// event symbols, or a transaction commit for conditions that read the
	// database. Pending states are then processed in order (catch-up), so
	// firing is delayed, never lost — "trigger firing may be delayed, but
	// not go unrecognized".
	Relevant
	// Manual evaluates only on an explicit Flush; this is the batched
	// invocation mode ("the temporal component invocation can be executed
	// for multiple events at the same time").
	Manual
)

// Firing records one rule firing: the rule, the satisfying parameter
// binding, and the system state at which the condition held.
type Firing struct {
	Rule       string
	Binding    core.Binding
	Time       int64
	StateIndex int
}

// ActionContext is passed to trigger actions. Actions run after the rule
// sweep of the state that fired them; they may run further transactions
// and emit events through it. The engine is reachable only through the
// context's methods: every mutating path (Exec, Begin-transactions) is
// guarded by the deadline gate, so a timed-out action's leaked goroutine
// is refused instead of racing the resumed sweep.
type ActionContext struct {
	Rule    string
	Binding core.Binding
	// FiredAt is the timestamp of the state satisfying the condition.
	FiredAt int64

	engine *Engine
	// ctx carries the Config.ActionTimeout deadline (Background without
	// one); gate refuses engine mutations after the deadline fires.
	ctx  context.Context
	gate actionGate
}

// Param returns a bound condition parameter by name.
func (c *ActionContext) Param(name string) (value.Value, bool) {
	v, ok := c.Binding[name]
	return v, ok
}

// Context returns the action's deadline context (Config.ActionTimeout);
// long-running actions should observe its cancellation. Without a timeout
// it never cancels.
func (c *ActionContext) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Exec runs a transaction on behalf of the action: updates are applied and
// committed as a new system state (with the given extra events) at the
// next clock tick. After the action's deadline has expired the engine has
// moved on, so the mutation is refused with ErrActionTimeout.
func (c *ActionContext) Exec(updates map[string]value.Value, events ...event.Event) error {
	c.gate.mu.Lock()
	defer c.gate.mu.Unlock()
	if c.gate.expired {
		return &TimeoutError{Rule: c.Rule, Timeout: c.engine.actionTimeout}
	}
	return c.engine.execInternal(updates, events)
}

// Begin opens a transaction on behalf of the action, for multi-item
// commits that Exec's one-shot form cannot express. The transaction is
// bound to the action's deadline gate: Commit and Abort after the
// deadline are refused with ErrActionTimeout.
func (c *ActionContext) Begin() *Txn {
	c.gate.mu.Lock()
	defer c.gate.mu.Unlock()
	if c.gate.expired {
		return &Txn{
			e:       c.engine,
			updates: map[string]value.Value{},
			deletes: map[string]bool{},
			refused: &TimeoutError{Rule: c.Rule, Timeout: c.engine.actionTimeout},
		}
	}
	tx := c.engine.Begin()
	tx.owner = c
	return tx
}

// DB returns the current database state (an immutable snapshot).
func (c *ActionContext) DB() history.DBState { return c.engine.DB() }

// Now returns the timestamp of the latest system state.
func (c *ActionContext) Now() int64 { return c.engine.Now() }

// AsOf returns the value a tracked item (Config.TrackItems) had at the
// instant this firing's condition was satisfied. Actions run after the
// firing state's sweep — possibly much later under Relevant or Manual
// scheduling — so the current database may have moved on; AsOf reads the
// auxiliary relation instead.
func (c *ActionContext) AsOf(item string) (value.Value, bool) {
	return c.engine.ItemAsOf(item, c.FiredAt)
}

// Action is the action part of a trigger.
type Action func(ctx *ActionContext) error

// ErrConstraintViolation is returned (wrapped) by Txn.Commit when a
// temporal integrity constraint rejects the transaction.
var ErrConstraintViolation = errors.New("integrity constraint violated")

// ConstraintError carries the violated constraint's name.
type ConstraintError struct {
	Constraint string
	Txn        int64
}

// Error describes the violation.
func (e *ConstraintError) Error() string {
	return fmt.Sprintf("adb: transaction %d aborted: %s: %v", e.Txn, e.Constraint, ErrConstraintViolation)
}

// Unwrap yields ErrConstraintViolation for errors.Is.
func (e *ConstraintError) Unwrap() error { return ErrConstraintViolation }

// rule is the engine-internal compiled form.
type rule struct {
	name       string
	condition  ptl.Formula
	info       *ptl.Info
	ev         core.ConditionEvaluator
	action     Action
	constraint bool
	sched      Scheduling
	events     map[string]bool
	readsDB    bool
	cursor     int // next history index this rule's evaluator will see
	paramOrder []string
	// health is the rule's isolated failure record (guarded by Engine.mu);
	// health.quarantined suppresses the action, never the condition.
	health ruleHealth

	// Scheduling-index metadata (see readset.go). rs and class are fixed at
	// registration; contiguous marks rules whose evaluator steps every
	// state in order (temporal, Eager or Manual — never the non-temporal
	// Relevant jump), the precondition for the dbUnchanged hint. hinted is
	// ev when it supports hinted stepping.
	rs         readSet
	class      ruleClass
	contiguous bool
	hinted     core.HintedEvaluator
	// wakeGen / dirtyGen are sweep-generation marks: sweepOnce stamps them
	// through the event and item indexes so the assembly pass over the rule
	// table costs O(1) per rule. Only the sweep goroutine touches them.
	wakeGen  uint64
	dirtyGen uint64
	// Quiescent-replay memo (guarded by Engine.mu): the outcome of the last
	// evaluation at a commit state. While every later commit leaves the
	// rule's read set untouched, re-evaluating would reproduce exactly this
	// outcome, so the sweep replays it instead. Persisted in snapshots so a
	// recovered engine evaluates the same states the original did.
	memoValid    bool
	memoFired    bool
	memoBindings []core.Binding
}

// dirtySet records which database items one history state changed relative
// to its predecessor. known is false when the engine cannot tell (the
// initial state, states restored from a snapshot); an unknown dirty set
// disables every read-set refinement for that state but never changes
// results. items is nil for states that change nothing (events, aborts);
// it is a small slice, not a map — commits touch few items, and one slice
// allocation per commit is the whole bookkeeping cost.
type dirtySet struct {
	known bool
	items []string
}

// Engine is an active database: a current database state, a growing
// system history, a rule set and the temporal component that evaluates
// rule conditions incrementally.
//
// All engine methods take explicit timestamps where a new system state is
// created; timestamps must be strictly increasing.
//
// Concurrency model: mutating operations (Emit, transactions, Flush,
// rule registration, Compact, PruneExecutions) must come from a single
// goroutine at a time, but the reader accessors — Firings, ItemAsOf,
// Rule, RuleNames, EvalSteps, Executions, Now, DB, BaseIndex — are safe
// to call from any goroutine concurrently with that mutator. Internally
// the temporal component shards rule evaluation across at most
// Config.Workers goroutines — the mutating goroutine itself plus parked
// helpers reused from commit to commit, so dispatch allocates nothing per
// commit (dispatch.go); firings and constraint violations are merged back
// in rule registration order, so observable behavior is independent of
// the worker count (see DESIGN.md, "Concurrency model").
type Engine struct {
	// mu guards the observable shared state: history length, database,
	// clock, firings, the step counter, the execution log and the rule
	// table. Mutators write under mu.Lock in short windows (never across
	// rule evaluation or user callbacks); reader accessors take mu.RLock.
	mu sync.RWMutex

	reg   *query.Registry
	hist  *history.History
	db    history.DBState
	now   int64
	rules []*rule
	index map[string]*rule

	execs    []ptl.Execution
	execIdx  map[string][]ptl.Execution // secondary index of execs by rule
	firings  []Firing
	onFiring func(Firing)
	// observers are the OnFiring-registered firing observers, notified
	// after the Config.OnFiring callback in registration order. Guarded by
	// mu; mutation is copy-on-write so the sweep can call a snapshot of the
	// list without holding the lock.
	observers []firingObserver
	nextObsID uint64
	nextTxn   int64
	inSweep   bool
	pending   []Firing // firings awaiting action execution
	cascade   int
	cascadeTo int

	// workers bounds the goroutines evaluating independent rules
	// concurrently; disp is the reusable fan-out they share (dispatch.go).
	workers int
	disp    dispatch

	// base is the absolute index of hist's first state; Compact advances
	// it as fully-processed prefix states are discarded.
	base int

	// tracked holds the Section-5 auxiliary relations for items named in
	// Config.TrackItems: each captures the item's value over time with
	// [T_start, T_end) validity intervals, so delayed actions (Relevant or
	// Manual scheduling, batching) can read values as of their firing
	// instant rather than the current instant. trackedNames fixes the
	// capture order (map iteration order reached the aux relations and the
	// internal-error path otherwise).
	tracked      map[string]*relation.ScalarAux
	trackedNames []string

	// stats for the E8 benchmark.
	evalSteps int64
	noFast    bool

	// Read-set scheduling index (see readset.go). dirty runs parallel to
	// hist: dirty[i] is what state i changed. eventIndex and itemIndex map
	// event names and item names to the rules whose conditions mention
	// them; sweepGen is the generation counter the indexes stamp into
	// rule.wakeGen/dirtyGen. noIndex (Config.DisableReadSetIndex) keeps the
	// historical coarse sweep, for the E12 ablation and recovery of logs
	// written by it.
	noIndex    bool
	dirty      []dirtySet
	eventIndex map[string][]*rule
	itemIndex  map[string][]*rule
	sweepGen   uint64

	// Fault isolation and resource governance (see health.go): the
	// circuit-breaker threshold, the per-sweep step budget, the per-action
	// deadline and the fault observer. degraded, once set, seals the
	// engine read-only (guarded by mu; see seal).
	maxFailures   int
	sweepBudget   int64
	actionTimeout time.Duration
	onRuleFault   func(RuleFault)
	degraded      error

	// Durability subsystem (internal/persist); store is nil for memory
	// engines. suppress is incremented around replay and action cascades so
	// derived operations are not logged — replaying the external operation
	// re-derives them through the normal sweep path.
	store     *persist.Store
	durMode   Durability
	snapEvery int
	// epoch is the replication primary epoch (see persist.KindEpoch): the
	// highest epoch record this engine has logged or replayed. 0 means the
	// engine was never part of a promoted replica set.
	epoch        int64
	suppress     int
	walSince     int // records appended since the last snapshot
	commitsSince int
	recovery     RecoveryInfo
	initRec      *persist.InitRecord
	actions      map[string]Action

	// Storage-lifecycle policy (see retention.go): retention is fixed at
	// construction; tier is the open cold tier (nil without SpillHistory
	// or for memory engines); histFloor is the oldest timestamp resident
	// point-in-time reads answer, advanced only at commit tails so
	// concurrent ItemAsOf readers load it atomically.
	retention Retention
	tier      *retain.Tier
	histFloor atomic.Int64
}

// Config configures a new engine.
type Config struct {
	// Registry supplies the query functions; nil means just the built-ins.
	Registry *query.Registry
	// Initial is the initial database state.
	Initial map[string]value.Value
	// Start is the timestamp of the initial system state.
	Start int64
	// CascadeLimit bounds chains of action-triggered firings per external
	// operation (default 1000).
	CascadeLimit int
	// OnFiring, when set, observes every firing as it happens.
	OnFiring func(Firing)
	// TrackItems names database items whose historic values the engine
	// captures in auxiliary relations, queryable with ItemAsOf and
	// ActionContext.AsOf. Items not listed cost nothing.
	TrackItems []string
	// DisableFastPath forces the general constraint-graph evaluator even
	// for decomposable conditions; the A1 ablation uses it.
	DisableFastPath bool
	// DisableReadSetIndex forces the coarse Section-8 relevance filter:
	// every database-reading rule is evaluated at every commit, with no
	// event gating, quiescent replay or query-cache hints. Firings are
	// identical either way; only the work differs. The E12 ablation uses
	// it. Persisted in the init record: the setting shapes the evaluation
	// step sequence, which recovery verification compares.
	DisableReadSetIndex bool
	// Workers bounds how many goroutines the temporal component uses to
	// evaluate independent rules concurrently during sweeps, flushes and
	// constraint checks: the mutating goroutine plus up to Workers-1
	// parked helpers, started once and reused by every evaluation. 0 means
	// GOMAXPROCS; 1 forces fully sequential evaluation. Firings,
	// violations and errors are merged in rule registration order, so
	// results do not depend on this setting.
	Workers int
	// Durability selects the persistence mode. NewEngine only accepts
	// DurabilityOff; durable engines are opened with Restore, which reads
	// this field (DurabilityOff there is promoted to DurabilityWAL).
	Durability Durability
	// SnapshotEvery is the checkpoint period, in external commits, under
	// DurabilitySnapshot (default 64).
	SnapshotEvery int
	// NoFsync disables the per-record WAL fsync; crash-equivalence tests
	// and benchmarks use it, production durability should not.
	NoFsync bool
	// GroupCommit, when > 1, batches WAL appends: records are buffered and
	// written+fsynced together every GroupCommit records (and on SyncWAL,
	// checkpoints and Close). A crash loses at most the buffered suffix;
	// the flushed prefix recovers exactly. Runtime-only (a durability
	// latency/throughput trade, not behavior-shaping): the logged record
	// sequence is identical at every batch size.
	GroupCommit int
	// MaxRuleFailures trips the per-rule circuit breaker: after this many
	// consecutive action failures (errors, panics, timeouts) the rule is
	// quarantined — its condition stays incrementally maintained and its
	// firings recorded, but the action is suppressed until ReviveRule.
	// 0 disables automatic quarantine (failures are still recorded).
	// Persisted in the init record: it shapes which actions run, so replay
	// must use the original value.
	MaxRuleFailures int
	// SweepBudget bounds the evaluator steps one temporal-component
	// invocation may spend; exceeding it yields ErrBudgetExceeded
	// attributed to the rule that crossed the budget (by registration
	// order, independent of Workers). 0 means unlimited. Persisted in the
	// init record for replay equivalence.
	SweepBudget int64
	// ActionTimeout is the per-action deadline; an action exceeding it
	// yields ErrActionTimeout attributed to its rule, and any later engine
	// mutation through its ActionContext is refused. 0 means no deadline.
	// Wall-clock dependent, so runtime-only (not persisted).
	ActionTimeout time.Duration
	// OnRuleFault, when set, observes every isolated rule fault (action
	// error, panic, timeout, quarantine suppression) as it happens.
	OnRuleFault func(RuleFault)
	// Actions maps rule names to action functions for recovery: rules
	// re-registered from the snapshot or log get their action here. For
	// replay equivalence they must be the same deterministic actions the
	// original engine ran.
	Actions map[string]Action
	// Retention is the storage-lifecycle policy (see retention.go). The
	// history fields (HistoryWindow, SpillHistory) shape query answers and
	// are persisted in the init record; the WAL fields (SegmentBytes,
	// KeepSnapshots) are runtime-only disk-layout knobs read by Restore.
	Retention Retention
}

// NewEngine creates a memory-only engine with an initial state at
// Config.Start; durable engines are opened with Restore.
func NewEngine(cfg Config) *Engine {
	if cfg.Durability != DurabilityOff {
		panic("adb: NewEngine is memory-only; open durable engines with Restore")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = query.NewRegistry()
	}
	limit := cfg.CascadeLimit
	if limit <= 0 {
		limit = 1000
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		reg:           reg,
		hist:          history.New(),
		db:            history.NewDB(cfg.Initial),
		now:           cfg.Start,
		index:         map[string]*rule{},
		execIdx:       map[string][]ptl.Execution{},
		onFiring:      cfg.OnFiring,
		cascadeTo:     limit,
		workers:       workers,
		noFast:        cfg.DisableFastPath,
		noIndex:       cfg.DisableReadSetIndex,
		eventIndex:    map[string][]*rule{},
		itemIndex:     map[string][]*rule{},
		maxFailures:   cfg.MaxRuleFailures,
		sweepBudget:   cfg.SweepBudget,
		actionTimeout: cfg.ActionTimeout,
		onRuleFault:   cfg.OnRuleFault,
	}
	e.disp.e = e
	ensureHelpers(workers - 1)
	if len(cfg.TrackItems) > 0 {
		e.tracked = make(map[string]*relation.ScalarAux, len(cfg.TrackItems))
		for _, name := range cfg.TrackItems {
			if _, dup := e.tracked[name]; dup {
				continue
			}
			e.tracked[name] = relation.NewScalarAux()
			e.trackedNames = append(e.trackedNames, name)
		}
		sort.Strings(e.trackedNames)
	}
	// The init record reproduces this construction during recovery. Every
	// value kind is supposed to encode; if one does not, the engine comes
	// up sealed and the typed error surfaces at the first mutating call
	// instead of panicking the process.
	initial, err := histio.EncodeItems(cfg.Initial)
	if err != nil {
		e.seal(&InternalError{Op: "encode initial db", Err: err})
	}
	e.initRec = &persist.InitRecord{
		Initial:         initial,
		Start:           cfg.Start,
		TrackItems:      append([]string(nil), e.trackedNames...),
		DisableFast:     cfg.DisableFastPath,
		DisableIndex:    cfg.DisableReadSetIndex,
		CascadeLimit:    limit,
		MaxRuleFailures: cfg.MaxRuleFailures,
		SweepBudget:     cfg.SweepBudget,
		HistoryWindow:   cfg.Retention.HistoryWindow,
		SpillHistory:    cfg.Retention.SpillHistory,
	}
	e.retention = cfg.Retention
	if w := e.retention.HistoryWindow; w > 0 {
		e.histFloor.Store(cfg.Start - w)
	}
	e.hist.MustAppend(history.SystemState{DB: e.db, Events: event.NewSet(), TS: cfg.Start})
	// The initial state's delta from "before the engine existed" is not a
	// meaningful dirty set; leave it unknown so no refinement applies.
	e.dirty = append(e.dirty, dirtySet{})
	if err := e.capture(cfg.Start); err != nil {
		e.seal(err)
	}
	return e
}

// capture records the tracked items' current values in their auxiliary
// relations, in sorted item order so the capture sequence (and any
// internal-error report) is deterministic. Captures are in commit order,
// so a failure means a broken invariant: it is returned as a typed error
// (and the caller seals the engine) rather than panicking.
func (e *Engine) capture(ts int64) error {
	for _, name := range e.trackedNames {
		v, ok := e.db.Get(name)
		if !ok {
			v = value.Value{}
		}
		if err := e.tracked[name].Capture(ts, v); err != nil {
			return &InternalError{Op: "aux capture " + name, Err: err}
		}
	}
	return nil
}

// Degraded reports whether the engine is sealed into read-only degraded
// mode (nil when healthy). A durability fault — a WAL append or fsync
// error — or a broken internal invariant seals the engine: the in-memory
// state stays intact and readable, mutating operations are refused with
// the sealing error, and recovery from disk yields exactly the committed
// prefix. Safe for concurrent use.
func (e *Engine) Degraded() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.degraded
}

// healthy is the mutator entry check: it returns the sealing error, if
// any.
func (e *Engine) healthy() error { return e.Degraded() }

// seal transitions the engine into read-only degraded mode; the first
// cause wins. It returns the sealing error for the caller to propagate.
func (e *Engine) seal(cause error) error {
	e.mu.Lock()
	if e.degraded == nil {
		if _, ok := cause.(*DegradedError); ok {
			e.degraded = cause
		} else {
			e.degraded = &DegradedError{Cause: cause}
		}
	}
	err := e.degraded
	e.mu.Unlock()
	return err
}

// ItemAsOf returns the value a tracked item had at time t (Null if the
// item did not exist then). The second result is false when the item is
// not tracked, t precedes the engine's start, or t is older than the
// retained history (ItemAsOfChecked distinguishes the latter with a typed
// error). Safe for concurrent use (the tracked table is immutable after
// NewEngine, each auxiliary relation synchronizes its own readers against
// captures, and the retention floor is read atomically).
func (e *Engine) ItemAsOf(name string, t int64) (value.Value, bool) {
	v, ok, err := e.ItemAsOfChecked(name, t)
	if err != nil {
		return value.Value{}, false
	}
	return v, ok
}

// Registry returns the engine's query registry, for registering
// application queries before adding rules.
func (e *Engine) Registry() *query.Registry { return e.reg }

// History returns the system history built so far. It must not be
// modified, and unlike the snapshot accessors it must not be iterated
// concurrently with engine mutations (the mutator appends to it).
func (e *Engine) History() *history.History {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.hist
}

// DB returns the current database state (an immutable snapshot). Safe for
// concurrent use.
func (e *Engine) DB() history.DBState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.db
}

// Now returns the timestamp of the latest system state. Safe for
// concurrent use.
func (e *Engine) Now() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.now
}

// firingObserver is one OnFiring registration.
type firingObserver struct {
	id uint64
	fn func(Firing)
}

// OnFiring registers an observer called synchronously for every subsequent
// firing, after the Config.OnFiring callback, in registration order; the
// network layer's subscription fan-out hangs off this hook. The returned
// cancel function removes the observer. Observers run on the mutating
// goroutine in the middle of a sweep, so they must not call engine
// mutators and should return quickly (hand the firing to a queue rather
// than doing slow work inline). Safe for concurrent registration.
func (e *Engine) OnFiring(fn func(Firing)) (cancel func()) {
	e.mu.Lock()
	e.nextObsID++
	id := e.nextObsID
	e.observers = append(e.observers, firingObserver{id: id, fn: fn})
	e.mu.Unlock()
	return func() {
		e.mu.Lock()
		// Copy-on-write removal: a sweep may be iterating the old slice
		// outside the lock.
		out := make([]firingObserver, 0, len(e.observers))
		for _, o := range e.observers {
			if o.id != id {
				out = append(out, o)
			}
		}
		e.observers = out
		e.mu.Unlock()
	}
}

// Firings returns a copy of every firing recorded so far. Safe for
// concurrent use.
func (e *Engine) Firings() []Firing {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]Firing(nil), e.firings...)
}

// EvalSteps returns the total number of evaluator steps performed; the
// relevance-filtering benchmark (E8) reads this. Safe for concurrent use.
func (e *Engine) EvalSteps() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.evalSteps
}

// Workers returns the size of the temporal component's worker pool.
func (e *Engine) Workers() int { return e.workers }

// Executions implements ptl.ExecLog over the engine's execution record.
// Safe for concurrent use; the evaluation workers read it through this
// method while no lock is held for writing.
// The per-rule secondary index keeps the lookup proportional to the named
// rule's own executions; the historical scan walked the whole log, which
// made every executed(R, ...) atom O(total executions) per state.
func (e *Engine) Executions(ruleName string, before int64) []ptl.Execution {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []ptl.Execution
	for _, ex := range e.execIdx[ruleName] {
		if ex.Time < before {
			out = append(out, ex)
		}
	}
	return out
}

// appendExecutionLocked appends to the execution log and its per-rule
// index; the caller holds mu. execs stays the source of truth (snapshots
// serialize it); execIdx is derived and rebuilt wherever execs is replaced
// wholesale (restore, prune).
func (e *Engine) appendExecutionLocked(ex ptl.Execution) {
	e.execs = append(e.execs, ex)
	e.execIdx[ex.Rule] = append(e.execIdx[ex.Rule], ex)
}

// rebuildExecIdxLocked rederives the per-rule index from execs; the caller
// holds mu (or has exclusive access during construction).
func (e *Engine) rebuildExecIdxLocked() {
	e.execIdx = make(map[string][]ptl.Execution, len(e.execIdx))
	for _, ex := range e.execs {
		e.execIdx[ex.Rule] = append(e.execIdx[ex.Rule], ex)
	}
}

// RuleOption configures a rule at registration.
type RuleOption func(*rule)

// WithScheduling sets the trigger's evaluation scheduling.
func WithScheduling(s Scheduling) RuleOption {
	return func(r *rule) { r.sched = s }
}

// AddTrigger registers a trigger with a PTL condition in concrete syntax.
// The action may be nil, in which case firings are only recorded.
func (e *Engine) AddTrigger(name, condition string, action Action, opts ...RuleOption) error {
	f, err := ptl.Parse(condition)
	if err != nil {
		return err
	}
	return e.AddTriggerFormula(name, f, action, opts...)
}

// AddTriggerFormula registers a trigger from an AST condition.
func (e *Engine) AddTriggerFormula(name string, condition ptl.Formula, action Action, opts ...RuleOption) error {
	return e.add(name, condition, action, false, opts...)
}

// AddConstraint registers a temporal integrity constraint: a PTL formula
// that must be satisfied at every commit point (Section 3). Internally
// this is the rule "attempts_to_commit(X) and not constraint -> abort(X)":
// the engine evaluates the negated condition against the tentative commit
// state and aborts the transaction when it is violated.
func (e *Engine) AddConstraint(name, constraint string, opts ...RuleOption) error {
	f, err := ptl.Parse(constraint)
	if err != nil {
		return err
	}
	return e.AddConstraintFormula(name, f, opts...)
}

// AddConstraintFormula registers an integrity constraint from an AST.
func (e *Engine) AddConstraintFormula(name string, constraint ptl.Formula, opts ...RuleOption) error {
	return e.add(name, &ptl.Not{F: constraint}, nil, true, opts...)
}

func (e *Engine) add(name string, condition ptl.Formula, action Action, isConstraint bool, opts ...RuleOption) error {
	if err := e.healthy(); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("adb: empty rule name")
	}
	if _, dup := e.index[name]; dup {
		return fmt.Errorf("adb: rule %q already registered", name)
	}
	info, err := ptl.Check(condition, e.reg)
	if err != nil {
		return fmt.Errorf("adb: rule %s: %w", name, err)
	}
	if isConstraint && len(info.Free) > 0 {
		return fmt.Errorf("adb: constraint %s must not have free variables (found %v)", name, info.Free)
	}
	var ev core.ConditionEvaluator
	if e.noFast {
		ev, err = core.New(info, e.reg, e)
	} else {
		// Decomposable, aggregate-free conditions — the subclass the
		// paper's prototype implemented — get the boolean fast path.
		ev, err = core.CompileAuto(info, e.reg, e)
	}
	if err != nil {
		return fmt.Errorf("adb: rule %s: %w", name, err)
	}
	r := &rule{
		name:       name,
		condition:  condition,
		info:       info,
		ev:         ev,
		action:     action,
		constraint: isConstraint,
		events:     map[string]bool{},
		paramOrder: append([]string(nil), info.Free...),
	}
	sort.Strings(r.paramOrder)
	for _, n := range info.Events {
		r.events[n] = true
	}
	ptl.WalkTerms(info.Normalized, func(t ptl.Term) {
		if c, ok := t.(*ptl.Call); ok && c.Fn != "time" {
			r.readsDB = true
		}
	})
	for _, o := range opts {
		o(r)
	}
	// Classification reads the scheduling, so it runs after the options.
	r.rs = extractReadSet(info, e.reg)
	r.class = classify(r)
	if e.noIndex {
		r.class = classExact
	}
	r.contiguous = r.info.Temporal || r.sched != Relevant
	if h, ok := ev.(core.HintedEvaluator); ok {
		r.hinted = h
	}
	// Encode the registration for the WAL before committing it, so an
	// unencodable condition fails the whole registration.
	var walRec *persist.Record
	if e.logging() {
		cond, err := ptl.EncodeFormula(condition)
		if err != nil {
			return fmt.Errorf("adb: rule %s: %w", name, err)
		}
		walRec = &persist.Record{
			Kind:       persist.KindAddRule,
			Name:       name,
			Cond:       cond,
			Constraint: isConstraint,
			Sched:      int(r.sched),
		}
	}
	// A brand-new rule starts observing at the state current when it is
	// entered: "when the trigger condition f is first entered at time T,
	// R_x is set to the relation retrieved by q on the database at that
	// time" (Section 5). Earlier history is invisible to it.
	e.mu.Lock()
	r.cursor = e.hist.Len() - 1
	e.rules = append(e.rules, r)
	e.index[name] = r
	for n := range r.events {
		e.eventIndex[n] = append(e.eventIndex[n], r)
	}
	if r.class == classQuiescent {
		// Only quiescent rules consume dirty-hit marks; exact rules are
		// evaluated whenever woken regardless.
		for item := range r.rs.items {
			e.itemIndex[item] = append(e.itemIndex[item], r)
		}
	}
	e.mu.Unlock()
	if walRec != nil {
		return e.logRecord(walRec)
	}
	return nil
}

// RuleInfo describes a registered rule for inspection.
type RuleInfo struct {
	Name       string
	Condition  string
	Constraint bool
	Scheduling Scheduling
	Parameters []string
	Events     []string
	Temporal   bool
	// PendingStates is how many history states the rule's evaluator has
	// not yet processed (nonzero under Relevant/Manual scheduling).
	PendingStates int
}

// Rule returns information about a registered rule; ok is false for
// unknown names. Safe for concurrent use.
func (e *Engine) Rule(name string) (RuleInfo, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, ok := e.index[name]
	if !ok {
		return RuleInfo{}, false
	}
	return RuleInfo{
		Name:          r.name,
		Condition:     r.condition.String(),
		Constraint:    r.constraint,
		Scheduling:    r.sched,
		Parameters:    append([]string(nil), r.info.Free...),
		Events:        append([]string(nil), r.info.Events...),
		Temporal:      r.info.Temporal,
		PendingStates: e.hist.Len() - r.cursor,
	}, true
}

// RuleNames returns the registered rule names in registration order. Safe
// for concurrent use.
func (e *Engine) RuleNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, len(e.rules))
	for i, r := range e.rules {
		out[i] = r.name
	}
	return out
}

// Emit appends an event-only system state at the given time and runs the
// temporal component.
func (e *Engine) Emit(ts int64, events ...event.Event) error {
	if err := e.healthy(); err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("adb: Emit needs at least one event")
	}
	var walRec *persist.Record
	if e.logging() {
		raw, err := histio.EncodeEvents(events)
		if err != nil {
			return fmt.Errorf("adb: wal: %w", err)
		}
		walRec = &persist.Record{Kind: persist.KindEmit, TS: ts, Events: raw}
	}
	st := history.SystemState{DB: e.db, Events: event.NewSet(events...), TS: ts}
	e.mu.Lock()
	if err := e.hist.Append(st); err != nil {
		e.mu.Unlock()
		return err
	}
	e.dirty = append(e.dirty, dirtySet{known: true})
	e.now = ts
	e.mu.Unlock()
	if walRec != nil {
		if err := e.logRecord(walRec); err != nil {
			return err
		}
	}
	e.resetCascade()
	return e.sweep()
}

// resetCascade clears the cascade budget on externally initiated
// operations; transactions run by actions (re-entrant) keep consuming the
// budget of the operation that started the cascade.
func (e *Engine) resetCascade() {
	if !e.inSweep {
		e.cascade = 0
	}
}

// Txn is an open transaction: buffered updates and events that become a
// single commit state.
type Txn struct {
	e       *Engine
	id      int64
	updates map[string]value.Value
	deletes map[string]bool
	events  []event.Event
	done    bool
	// owner is set for transactions opened through ActionContext.Begin:
	// Commit and Abort then run under the action's deadline gate. refused
	// is set instead when the deadline had already expired at Begin.
	owner   *ActionContext
	refused error
}

// Begin opens a transaction. The begin event is recorded with the commit
// (the model adds system states only when events occur; an explicit begin
// state can be created with Emit if a condition needs it). Transaction ids
// are allocated under the lock, so concurrent sessions may Begin safely;
// the buffered Txn itself is still single-goroutine, and commits must be
// serialized by the caller (the network server's commit pipeline does
// exactly that).
func (e *Engine) Begin() *Txn {
	e.mu.Lock()
	e.nextTxn++
	id := e.nextTxn
	e.mu.Unlock()
	return &Txn{e: e, id: id, updates: map[string]value.Value{}, deletes: map[string]bool{}}
}

// ID returns the transaction id.
func (t *Txn) ID() int64 { return t.id }

// Set buffers an update of a database item.
func (t *Txn) Set(item string, v value.Value) *Txn {
	t.updates[item] = v
	return t
}

// Delete buffers the removal of a database item.
func (t *Txn) Delete(item string) *Txn {
	t.deletes[item] = true
	delete(t.updates, item)
	return t
}

// Emit buffers events to occur at the commit instant.
func (t *Txn) Emit(events ...event.Event) *Txn {
	t.events = append(t.events, events...)
	return t
}

// gateCheck refuses a transaction whose owning action's deadline expired
// and, for a live action-owned transaction, acquires the deadline gate so
// the commit (or abort) cannot overlap the resumed sweep. The gate is
// held on a nil return with a non-nil owner; gateRelease drops it. Error
// returns never hold the gate.
func (t *Txn) gateCheck() error {
	if t.refused != nil {
		t.done = true
		return t.refused
	}
	if t.owner == nil {
		return nil
	}
	t.owner.gate.mu.Lock()
	if t.owner.gate.expired {
		t.owner.gate.mu.Unlock()
		t.done = true
		return &TimeoutError{Rule: t.owner.Rule, Timeout: t.e.actionTimeout}
	}
	return nil
}

// gateRelease drops the deadline gate acquired by a successful gateCheck.
func (t *Txn) gateRelease() {
	if t.owner != nil {
		t.owner.gate.mu.Unlock()
	}
}

// Commit attempts to commit at the given time. Integrity constraints are
// evaluated against the tentative commit state (the attempts_to_commit
// event); on violation the transaction aborts: the database is unchanged,
// a transaction_abort state is appended instead, and a *ConstraintError is
// returned.
func (t *Txn) Commit(ts int64) error {
	if t.done {
		return fmt.Errorf("adb: transaction %d already finished", t.id)
	}
	if err := t.gateCheck(); err != nil {
		return err
	}
	defer t.gateRelease()
	e := t.e
	if err := e.healthy(); err != nil {
		return err
	}
	t.done = true
	txv := value.NewInt(t.id)
	// Assemble the commit's event set in one exactly-sized slice the set
	// takes ownership of; the key-sort scratch is pooled. Both run on every
	// commit, so the assembly itself must not allocate beyond the one
	// retained array.
	events := make([]event.Event, 0, 2+len(t.updates)+len(t.events))
	events = append(events,
		event.New(event.AttemptsToCommit, txv),
		event.New(event.TransactionCommit, txv))
	keysp := keyScratch.Get().(*[]string)
	keys := (*keysp)[:0]
	for k := range t.updates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, item := range keys {
		events = append(events, event.New(event.UpdateItem, value.NewString(item)))
	}
	*keysp = keys
	keyScratch.Put(keysp)
	events = append(events, t.events...)
	ndb := e.db.WithAll(t.updates)
	for _, item := range sortedBoolKeys(t.deletes) {
		ndb = ndb.Without(item)
	}
	tentative := history.SystemState{
		DB:     ndb,
		Events: event.NewSetOwned(events),
		TS:     ts,
	}
	// Validate against history invariants before constraint work.
	if last, ok := e.hist.Last(); ok && ts <= last.TS {
		return fmt.Errorf("adb: commit timestamp %d not after %d", ts, last.TS)
	}
	// One record covers both outcomes: replay re-runs the constraints, so a
	// rejected attempt re-derives its abort state from the same record.
	var walRec *persist.Record
	if e.logging() {
		var err error
		if walRec, err = e.execRecord(t, ts); err != nil {
			return err
		}
	}
	// Evaluate integrity constraints on clones so an abort leaves no trace
	// in the temporal component. Violations are resolved in rule
	// registration order, never by worker timing.
	violated, err := e.checkConstraints(tentative)
	if err != nil {
		return err
	}
	if violated != nil {
		abort := history.SystemState{
			DB:     e.db,
			Events: event.NewSet(event.New(event.TransactionAbort, txv)),
			TS:     ts,
		}
		e.mu.Lock()
		if err := e.hist.Append(abort); err != nil {
			e.mu.Unlock()
			return err
		}
		e.dirty = append(e.dirty, dirtySet{known: true})
		e.now = ts
		e.mu.Unlock()
		if walRec != nil {
			if err := e.logRecord(walRec); err != nil {
				return err
			}
		}
		e.resetCascade()
		if err := e.sweep(); err != nil {
			return err
		}
		return &ConstraintError{Constraint: violated.name, Txn: t.id}
	}
	e.mu.Lock()
	if err := e.hist.Append(tentative); err != nil {
		e.mu.Unlock()
		return err
	}
	d := dirtySet{known: true}
	if n := len(t.updates) + len(t.deletes); n > 0 {
		d.items = make([]string, 0, n)
		for item := range t.updates {
			d.items = append(d.items, item)
		}
		for item := range t.deletes {
			d.items = append(d.items, item)
		}
	}
	e.dirty = append(e.dirty, d)
	e.db = tentative.DB
	e.now = ts
	e.mu.Unlock()
	if walRec != nil {
		if err := e.logRecord(walRec); err != nil {
			return err
		}
	}
	if err := e.capture(ts); err != nil {
		// The auxiliary relations diverged from the history — an invariant
		// violation; seal rather than run on inconsistent temporal state.
		return e.seal(err)
	}
	e.resetCascade()
	if err := e.sweep(); err != nil {
		return err
	}
	if err := e.maybeRetain(ts); err != nil {
		return err
	}
	return e.maybeCheckpoint()
}

// checkConstraints catches every constraint's evaluator up to the present
// and steps a clone of each against the tentative commit state. It
// returns the first violated constraint in rule registration order (nil
// when the commit may proceed). With one worker it short-circuits at the
// first violation exactly like the historical sequential loop; with more,
// all constraints are caught up and clone-stepped concurrently on the
// engine's dispatch (the same reused fan-out as runJobs) and the winner is
// still chosen by rule order, so which transaction aborts — and with which
// constraint name — never depends on goroutine scheduling.
func (e *Engine) checkConstraints(tentative history.SystemState) (*rule, error) {
	var constraints []*rule
	for _, r := range e.rules {
		if r.constraint {
			constraints = append(constraints, r)
		}
	}
	if len(constraints) == 0 {
		return nil, nil
	}
	end := e.hist.Len()
	workers := e.workers
	if workers > len(constraints) {
		workers = len(constraints)
	}
	if workers <= 1 {
		for _, r := range constraints {
			if err := e.advanceRules([]*rule{r}, end); err != nil {
				return nil, err
			}
			res, err := r.ev.CloneEvaluator().StepResult(tentative)
			e.addSteps(1)
			if err != nil {
				return nil, fmt.Errorf("adb: constraint %s: %w", r.name, err)
			}
			if res.Fired {
				return r, nil
			}
		}
		return nil, nil
	}
	if err := e.advanceRules(constraints, end); err != nil {
		return nil, err
	}
	d := &e.disp
	d.tentative, d.cons = tentative, constraints
	d.verdicts = append(d.verdicts[:0], make([]verdict, len(constraints))...)
	d.run(len(constraints), workers, stepConstraint)
	verdicts := d.verdicts
	d.tentative, d.cons = history.SystemState{}, nil
	e.addSteps(int64(len(constraints)))
	for i, r := range constraints {
		if verdicts[i].err != nil {
			return nil, fmt.Errorf("adb: constraint %s: %w", r.name, verdicts[i].err)
		}
		if verdicts[i].fired {
			return r, nil
		}
	}
	return nil, nil
}

// addSteps bumps the evaluator-step counter under the lock so concurrent
// EvalSteps readers stay race-free.
func (e *Engine) addSteps(n int64) {
	e.mu.Lock()
	e.evalSteps += n
	e.mu.Unlock()
}

// Abort abandons the transaction, appending a transaction_abort state.
func (t *Txn) Abort(ts int64) error {
	if t.done {
		return fmt.Errorf("adb: transaction %d already finished", t.id)
	}
	if err := t.gateCheck(); err != nil {
		return err
	}
	defer t.gateRelease()
	e := t.e
	if err := e.healthy(); err != nil {
		return err
	}
	t.done = true
	st := history.SystemState{
		DB:     e.db,
		Events: event.NewSet(event.New(event.TransactionAbort, value.NewInt(t.id))),
		TS:     ts,
	}
	e.mu.Lock()
	if err := e.hist.Append(st); err != nil {
		e.mu.Unlock()
		return err
	}
	e.dirty = append(e.dirty, dirtySet{known: true})
	e.now = ts
	e.mu.Unlock()
	if err := e.logRecord(&persist.Record{Kind: persist.KindAbort, Txn: t.id, TS: ts}); err != nil {
		return err
	}
	e.resetCascade()
	return e.sweep()
}

// Exec runs a one-shot transaction: apply updates and events, commit at
// the given time.
func (e *Engine) Exec(ts int64, updates map[string]value.Value, events ...event.Event) error {
	tx := e.Begin()
	for k, v := range updates {
		tx.Set(k, v)
	}
	tx.Emit(events...)
	return tx.Commit(ts)
}

// ExecTxn runs a one-shot transaction with updates, deletes and events —
// the session-scoped exec primitive the network layer maps one batched
// Begin/Set/Delete/Emit/Commit round-trip onto.
func (e *Engine) ExecTxn(ts int64, updates map[string]value.Value, deletes []string, events ...event.Event) error {
	tx := e.Begin()
	for k, v := range updates {
		tx.Set(k, v)
	}
	for _, d := range deletes {
		tx.Delete(d)
	}
	tx.Emit(events...)
	return tx.Commit(ts)
}

// execInternal commits an action-initiated transaction at the next tick.
func (e *Engine) execInternal(updates map[string]value.Value, events []event.Event) error {
	return e.Exec(e.now+1, updates, events...)
}

// Flush processes every pending state for every rule (the batched
// temporal-component invocation) and executes resulting actions. This is
// the paper's "temporal component invocation ... executed for multiple
// events at the same time"; with Workers > 1 the batched catch-up is
// sharded across the worker pool.
func (e *Engine) Flush() error {
	if err := e.healthy(); err != nil {
		return err
	}
	// Logged before the work: a flush either happened or it didn't, and a
	// mid-flush failure replays to the same failure.
	if err := e.logRecord(&persist.Record{Kind: persist.KindFlush}); err != nil {
		return err
	}
	e.cascade = 0
	var jobs []*rule
	for _, r := range e.rules {
		if !r.constraint {
			jobs = append(jobs, r)
		}
	}
	if err := e.advanceRules(jobs, e.hist.Len()); err != nil {
		return err
	}
	return e.drainActions()
}

// Compact discards history states that every rule's evaluator has already
// processed, keeping at least the latest state. This realizes the paper's
// space claim end to end: "our algorithm determines, based on analysis of
// the given temporal condition, which information to save, and for how
// long" — once the incremental evaluators have consumed a state, the
// engine itself no longer needs it. It returns the number of states
// discarded. Firing.StateIndex values remain absolute across compactions
// (see BaseIndex).
func (e *Engine) Compact() int {
	if e.healthy() != nil {
		return 0
	}
	e.mu.Lock()
	min := e.hist.Len() - 1 // always keep the newest state
	for _, r := range e.rules {
		if r.cursor < min {
			min = r.cursor
		}
	}
	if min <= 0 {
		e.mu.Unlock()
		return 0
	}
	trimmed := history.New()
	for i := min; i < e.hist.Len(); i++ {
		trimmed.AppendUnchecked(e.hist.At(i))
	}
	e.hist = trimmed
	e.dirty = append([]dirtySet(nil), e.dirty[min:]...)
	e.base += min
	for _, r := range e.rules {
		r.cursor -= min
	}
	horizon := trimmed.At(0).TS
	e.mu.Unlock()
	// Auxiliary intervals that ended before the retained horizon can no
	// longer be read by any pending action. The aux relations synchronize
	// their own readers; under the spill policy the expired intervals go
	// to the cold tier first (a failure there seals the engine, surfacing
	// at the next operation or Close, like the logRecord below).
	_ = e.pruneAux(horizon)
	// Compaction moves base and the aux horizon, so it replays. A failed
	// append seals the engine (logRecord) and surfaces at the next
	// operation or Close.
	_ = e.logRecord(&persist.Record{Kind: persist.KindCompact})
	return min
}

// ExportHistory writes the retained system history as lossless JSON lines
// (see internal/histio); the export replays through offline tools (the
// naive evaluator, histio.Read) bit-for-bit.
func (e *Engine) ExportHistory(w io.Writer) error {
	return histio.Write(w, e.hist)
}

// PruneExecutions discards executed-predicate records with execution time
// before t. Section 7: "only information necessary for future evaluation
// of conditions will be maintained; all other information will be removed
// as and when it is not needed" — rules bounding executed's age (e.g.
// time - T <= 60) never need older records.
func (e *Engine) PruneExecutions(t int64) int {
	if e.healthy() != nil {
		return 0
	}
	e.mu.Lock()
	kept := e.execs[:0]
	dropped := 0
	for _, ex := range e.execs {
		if ex.Time < t {
			dropped++
			continue
		}
		kept = append(kept, ex)
	}
	e.execs = kept
	if dropped > 0 {
		e.rebuildExecIdxLocked()
	}
	e.mu.Unlock()
	_ = e.logRecord(&persist.Record{Kind: persist.KindPrune, Arg: t})
	return dropped
}

// BaseIndex returns the absolute index of the first retained history
// state; History().At(i) corresponds to absolute state BaseIndex()+i.
// Safe for concurrent use.
func (e *Engine) BaseIndex() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.base
}

// sweep runs the temporal component for the newest state according to each
// rule's scheduling, then executes fired actions.
func (e *Engine) sweep() error {
	if e.inSweep {
		// Re-entrant call from an action-initiated transaction: the outer
		// drainActions loop picks up the new state.
		return e.sweepOnce()
	}
	e.inSweep = true
	defer func() { e.inSweep = false }()
	if err := e.sweepOnce(); err != nil {
		return err
	}
	return e.drainActions()
}

func (e *Engine) sweepOnce() error {
	newest := e.hist.Len() - 1
	st := e.hist.At(newest)
	if e.noIndex {
		var jobs []*rule
		for _, r := range e.rules {
			if r.constraint {
				// The constraint's own evaluator advances lazily (at commits
				// and aborts); Txn.Commit catches it up before cloning anyway.
				if st.Events.CommitCount() > 0 || len(st.Events.ByName(event.TransactionAbort)) > 0 {
					jobs = append(jobs, r)
				}
				continue
			}
			switch r.sched {
			case Eager:
				jobs = append(jobs, r)
			case Relevant:
				if e.relevant(r, st) {
					jobs = append(jobs, r)
				}
			case Manual:
				// Only Flush advances.
			}
		}
		return e.advanceRules(jobs, newest+1)
	}
	return e.sweepIndexed(newest, st)
}

// sweepJob is one rule's share of an indexed sweep: either a real
// evaluator advance or a memo replay whose outcome is computed inline.
type sweepJob struct {
	r      *rule
	replay bool
}

// sweepIndexed is the read-set refined sweep. It reproduces the wake
// decisions of the coarse filter (relevant) exactly, then strengthens
// them per rule class: gated rules woken only by a commit have their
// evaluation skipped (the condition is provably false without their
// events), and quiescent rules whose read set the commit left untouched
// replay their memoized outcome. Firings, cursors and engine state are
// byte-identical to the coarse sweep; only evaluator steps differ.
//
// The indexes turn the per-sweep cost into O(rules) pointer work plus
// O(matching rules) for the event and dirty-item marks; the expensive
// part — evaluator steps — is paid only by rules the state concerns.
func (e *Engine) sweepIndexed(newest int, st history.SystemState) error {
	end := newest + 1
	commit := st.Events.CommitCount() > 0
	aborted := len(st.Events.ByName(event.TransactionAbort)) > 0
	e.sweepGen++
	gen := e.sweepGen
	for _, name := range st.Events.Names() {
		for _, r := range e.eventIndex[name] {
			r.wakeGen = gen
		}
	}
	d := e.dirty[newest]
	if commit && d.known {
		for _, item := range d.items {
			for _, r := range e.itemIndex[item] {
				r.dirtyGen = gen
			}
		}
	}
	var jobs []sweepJob
	var bumps, invalidate []*rule
	for _, r := range e.rules {
		if r.constraint {
			if commit || aborted {
				jobs = append(jobs, sweepJob{r: r})
			}
			continue
		}
		switch r.sched {
		case Eager:
			jobs = append(jobs, sweepJob{r: r})
		case Relevant:
			eventWake := r.wakeGen == gen
			commitWake := r.readsDB && commit
			alwaysWake := len(r.events) == 0 && !r.readsDB
			if !eventWake && !commitWake && !alwaysWake {
				continue
			}
			switch {
			case r.class == classGated && !eventWake:
				// Woken by the commit alone; with none of its events in
				// the state the condition is provably false, so the only
				// effect of evaluating — the cursor jump — is applied
				// directly.
				bumps = append(bumps, r)
			case r.class == classQuiescent:
				if r.cursor >= end {
					continue
				}
				switch {
				case !d.known || r.dirtyGen == gen || !r.memoValid:
					// The memo goes stale the moment the rule is selected
					// for re-evaluation: if the evaluation errors, a later
					// clean commit must not replay the pre-change outcome.
					invalidate = append(invalidate, r)
					jobs = append(jobs, sweepJob{r: r})
				case !r.memoFired:
					// A non-firing memo replays to nothing but a cursor
					// move, which is order-independent; skip the job
					// machinery and batch it with the gated bumps.
					bumps = append(bumps, r)
				default:
					jobs = append(jobs, sweepJob{r: r, replay: true})
				}
			default:
				jobs = append(jobs, sweepJob{r: r})
			}
		case Manual:
			// Only Flush advances.
		}
	}
	if len(bumps)+len(invalidate) > 0 {
		e.mu.Lock()
		for _, r := range bumps {
			if r.cursor < end {
				r.cursor = end
			}
		}
		for _, r := range invalidate {
			r.memoValid = false
			r.memoBindings = nil
		}
		e.mu.Unlock()
	}
	return e.runJobs(jobs, end)
}

// replayOutcome reproduces, without evaluation, the outcome re-evaluating
// a quiescent rule at the newest state would yield: the memoized firings
// at the new timestamp. Binding maps are copied so replays never alias
// the memo (or each other) in the firing log.
func (e *Engine) replayOutcome(r *rule, end int) advanceOutcome {
	out := advanceOutcome{cursor: end}
	if !r.memoFired {
		return out
	}
	st := e.hist.At(end - 1)
	for _, b := range r.memoBindings {
		nb := make(core.Binding, len(b))
		for k, v := range b {
			nb[k] = v
		}
		out.firings = append(out.firings, Firing{Rule: r.name, Binding: nb, Time: st.TS, StateIndex: e.base + end - 1})
	}
	return out
}

// relevant implements the Section-8 filter: a state concerns a rule when
// it carries one of the rule's event symbols, or it is a commit point and
// the rule reads the database.
func (e *Engine) relevant(r *rule, st history.SystemState) bool {
	for _, name := range st.Events.Names() {
		if r.events[name] {
			return true
		}
	}
	if r.readsDB && st.Events.CommitCount() > 0 {
		return true
	}
	// Rules with neither events nor database reads (pure time conditions)
	// are always relevant.
	if len(r.events) == 0 && !r.readsDB {
		return true
	}
	return false
}

// advanceOutcome is the result of advancing one rule's evaluator through
// pending history states: it is produced by a worker without touching
// shared engine state and merged back on the engine goroutine.
type advanceOutcome struct {
	firings []Firing
	steps   int64
	cursor  int
	err     error
	// memoSet carries a fresh quiescent-replay memo back to the merge:
	// the rule was evaluated at a commit state, so memoFired/memoBindings
	// are the outcome any read-set-untouched commit may replay.
	memoSet      bool
	memoFired    bool
	memoBindings []core.Binding
}

// advanceRule advances r's evaluator through pending states up to (but
// not including) history index end, collecting firings locally. Each rule
// owns its evaluator, so advances of distinct rules are independent and
// may run concurrently; the shared layers they read — history, database
// snapshots, the query registry, the execution log — are read-only for
// the duration of an evaluation phase.
//
// Non-temporal conditions keep no state between system states, so under
// Relevant scheduling the skipped (irrelevant) states are disregarded
// outright, exactly as Section 8 prescribes — only the newest state is
// evaluated. Temporal conditions must see every state to keep their
// F_{g,i} formulas correct, so they replay the pending states (batched
// invocation: firing delayed, never lost).
func (e *Engine) advanceRule(r *rule, end int) advanceOutcome {
	out := advanceOutcome{cursor: r.cursor}
	if !r.info.Temporal && r.sched == Relevant && out.cursor < end-1 {
		out.cursor = end - 1
	}
	budget := e.sweepBudget
	for out.cursor < end {
		// The per-rule half of the sweep budget: a single rule's catch-up
		// may spend at most SweepBudget steps per invocation. Checked here
		// (not at merge) so a huge backlog stops early; the cursor stays at
		// the stopping point, so the evaluator state remains consistent and
		// the next sweep resumes with a fresh budget (progress, no hang).
		// The comparison matches the cumulative check at the merge (strictly
		// over budget errors), so exactly SweepBudget steps always pass and
		// step budget+1 always trips, whichever check fires first.
		if budget > 0 && out.steps > budget {
			out.err = &BudgetError{Rule: r.name, Steps: out.steps, Budget: budget}
			return out
		}
		st := e.hist.At(out.cursor)
		var res core.Result
		var err error
		if r.hinted != nil {
			// The dbUnchanged hint lets the evaluator keep its query-result
			// cache across states whose dirty set is disjoint from the
			// rule's read set. Only contiguous rules qualify: a cursor jump
			// would leave the cache describing a state the evaluator never
			// stepped past.
			hint := !e.noIndex && r.contiguous && e.stateClean(r, out.cursor)
			res, err = r.hinted.StepResultHinted(st, hint)
		} else {
			res, err = r.ev.StepResult(st)
		}
		out.steps++
		if err != nil {
			out.err = fmt.Errorf("adb: rule %s at state %d: %w", r.name, out.cursor, err)
			return out
		}
		if res.Fired && !r.constraint {
			for _, b := range res.Bindings {
				out.firings = append(out.firings, Firing{Rule: r.name, Binding: b, Time: st.TS, StateIndex: e.base + out.cursor})
			}
		}
		if r.class == classQuiescent && out.cursor == end-1 && st.Events.CommitCount() > 0 {
			out.memoSet = true
			out.memoFired = res.Fired
			out.memoBindings = res.Bindings
		}
		out.cursor++
	}
	return out
}

// stateClean reports whether history state i left every item in r's read
// set unchanged: the dirty set is known and either empty (event or abort
// states — the database pointer is untouched) or, for analyzable rules,
// disjoint from the extracted footprint.
func (e *Engine) stateClean(r *rule, i int) bool {
	d := e.dirty[i]
	if !d.known {
		return false
	}
	if len(d.items) == 0 {
		return true
	}
	if !r.rs.analyzable {
		return false
	}
	for _, item := range d.items {
		if r.rs.items[item] {
			return false
		}
	}
	return true
}

// apply merges one rule's advance outcome into engine state: cursor and
// step counter under the write lock, then the firings one at a time — the
// exact observable sequence (append, OnFiring callback, action queue) the
// sequential engine produces.
func (e *Engine) apply(r *rule, out advanceOutcome) {
	e.mu.Lock()
	r.cursor = out.cursor
	e.evalSteps += out.steps
	if out.memoSet {
		r.memoValid = true
		r.memoFired = out.memoFired
		r.memoBindings = out.memoBindings
	}
	e.mu.Unlock()
	for _, f := range out.firings {
		e.mu.Lock()
		e.firings = append(e.firings, f)
		obs := e.observers // snapshot; mutation is copy-on-write
		e.mu.Unlock()
		if e.onFiring != nil {
			e.onFiring(f)
		}
		for _, o := range obs {
			o.fn(f)
		}
		e.pending = append(e.pending, f)
	}
}

// advanceRules advances the given rules to history index end — the
// parallel temporal component. Rules are evaluated by at most Workers
// goroutines (the caller and parked helpers, see dispatch); outcomes are
// merged strictly in the order rules appear in the slice (registration
// order at every call site), so the firing sequence, callbacks and step
// counts are byte-identical to sequential evaluation regardless of worker
// count.
//
// Errors also surface first-by-rule-order, and a failed invocation still
// advances every rule and merges every outcome: the engine state a
// caller observes after the error — cursors, queued firings, step counts
// — is identical at every worker count, so retrying (a later Flush) is
// equivalent whether the failure happened serially or in parallel.
func (e *Engine) advanceRules(rules []*rule, end int) error {
	if len(rules) == 0 {
		return nil
	}
	jobs := make([]sweepJob, len(rules))
	for i, r := range rules {
		jobs[i] = sweepJob{r: r}
	}
	return e.runJobs(jobs, end)
}

// runJobs executes a sweep's job list: evaluation jobs are spread over the
// engine's dispatch, replay jobs are resolved inline (they are pure memo
// reads), and every outcome is merged strictly in job order — the
// registration order at every call site — so the firing sequence is
// independent of both the worker count and the eval/replay split. The
// index and outcome slices are the dispatch's reused scratch.
func (e *Engine) runJobs(jobs []sweepJob, end int) error {
	if len(jobs) == 0 {
		return nil
	}
	d := &e.disp
	evalIdx := d.idx[:0]
	for i, j := range jobs {
		if !j.replay {
			evalIdx = append(evalIdx, i)
		}
	}
	outs := append(d.outs[:0], make([]advanceOutcome, len(jobs))...)
	d.end, d.jobs, d.idx, d.outs = end, jobs, evalIdx, outs
	d.run(len(evalIdx), e.workers, advanceJob)
	// The merge runs firing callbacks; should one re-enter the engine, its
	// sweep takes fresh scratch rather than this sweep's outcomes.
	d.jobs, d.idx, d.outs = nil, nil, nil
	for i, j := range jobs {
		if j.replay {
			outs[i] = e.replayOutcome(j.r, end)
		}
	}
	var firstErr error
	var used int64
	budget := e.sweepBudget
	for i, j := range jobs {
		e.apply(j.r, outs[i])
		if outs[i].err != nil && firstErr == nil {
			firstErr = outs[i].err
		}
		// The cumulative half of the sweep budget: total steps across the
		// invocation, accumulated in rule order so the offending rule is
		// the same at every worker count.
		used += outs[i].steps
		if budget > 0 && used > budget && firstErr == nil {
			firstErr = &BudgetError{Rule: j.r.name, Steps: used, Budget: budget}
		}
	}
	clear(outs)
	d.idx, d.outs = evalIdx[:0], outs[:0]
	return firstErr
}

// drainActions executes queued actions inside the per-rule sandbox;
// actions may commit transactions, which append states and queue further
// firings (bounded by the cascade limit).
//
// A failing action — an error, a recovered panic, an exceeded deadline —
// is an isolated per-rule fault: it is recorded in the rule's health (and
// counts toward quarantine), the failed firing is not entered in the
// executed-predicate log, and the drain continues with the remaining
// firings, so no other rule's behavior is perturbed. Only engine-level
// failures (the cascade limit, a sealed engine) abort the drain.
func (e *Engine) drainActions() error {
	for len(e.pending) > 0 {
		f := e.pending[0]
		e.pending = e.pending[1:]
		r := e.index[f.Rule]
		if r == nil || r.action == nil {
			e.recordExecution(r, f, f.Time)
			continue
		}
		if e.isQuarantined(r) {
			// Condition maintained, firing recorded, action suppressed.
			e.mu.RLock()
			h := r.health
			e.mu.RUnlock()
			e.reportFault(r.name, f.Time, &QuarantineError{Rule: r.name, Failures: h.consecutive, Cause: h.lastErr})
			continue
		}
		e.cascade++
		if e.cascade > e.cascadeTo {
			return fmt.Errorf("adb: action cascade exceeded %d firings (rule %s)", e.cascadeTo, f.Rule)
		}
		// Operations the action runs are cascade-derived: replaying the
		// external operation that fired it re-derives them, so they must
		// not be logged themselves.
		e.suppress++
		err := e.runAction(r, f)
		e.suppress--
		if err != nil {
			e.recordFailure(r, f.Time, err)
			continue
		}
		e.recordSuccess(r)
		e.recordExecution(r, f, e.now)
	}
	return nil
}

// recordExecution appends to the executed-predicate log. The execution
// time is when the action's effects committed (Section 7: "the action part
// of the rule was committed by the time t").
func (e *Engine) recordExecution(r *rule, f Firing, ts int64) {
	if r == nil {
		return
	}
	params := make([]value.Value, len(r.paramOrder))
	for i, name := range r.paramOrder {
		params[i] = f.Binding[name]
	}
	e.mu.Lock()
	e.appendExecutionLocked(ptl.Execution{Rule: f.Rule, Params: params, Time: ts})
	e.mu.Unlock()
}

// keyScratch pools the key-sorting scratch of the hot commit path; the
// slices never escape a single Commit call.
var keyScratch = sync.Pool{New: func() any {
	s := make([]string, 0, 16)
	return &s
}}

func sortedKeys(m map[string]value.Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedBoolKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
