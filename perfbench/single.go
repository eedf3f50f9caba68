package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/history"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// pass is what one timed phase measured.
type pass struct {
	setup     []float64 // seconds per setup repetition
	commitLat []float64 // µs per acknowledged commit of the timed phase
	fireLat   []float64 // µs per received firing of the timed phase
	deliver   []float64 // µs from the backend tap to the subscriber (traced)
	late      []float64 // µs the open-loop sender ran behind schedule
	replLag   []float64 // µs from primary firing to follower firing
	lsnBehind []float64 // sampled primary-minus-follower LSN
	rate      float64   // commits acknowledged per second (closed or saturated loop)
	acked     int
	relays    int64

	ops    []op
	sentAt []int64 // clock ns each commit was due (open loop) or sent
	aborts []bool

	heapMB, heapGrowth, gcFrac float64
	wireCommit, wireFiring     float64 // bytes per commit / per firing
	storage                    wire.StorageJSON
	recoveryS, restoreMS       float64
	replayed                   int
	self, durations            map[string][]float64 // traced spans, µs
	fanin                      []float64            // µs from shard to router observer (traced)

	// replay is the input the in-process layer replays use.
	replay *replayInput
}

// replayInput is an engine's initial state, rules and applied commits.
type replayInput struct {
	initial map[string]value.Value
	rules   []ruleDef
	ops     []op
}

// singleWorkload describes a one-node workload: its inputs, its engine
// configuration and its load loop.
type singleWorkload struct {
	name      string
	spec      func(seed int64) *spec
	cfg       adb.Config
	durable   bool
	setupReps int // builds per round
	// commits is how many commits an untraced round sends.
	commits func(r *runCtx) int
	// drive runs the timed phase, filling ops, sentAt, aborts, commitLat
	// and late; it returns the number of failed commits.
	drive func(r *runCtx, n *single, s *spec, p *pass) int64
}

// txnOf builds the client transaction for o.
func txnOf(cli *client.Client, o op) *client.Txn {
	tx := cli.Txn().At(o.TS)
	for k, v := range o.Updates {
		tx.Set(k, v)
	}
	return tx.Emit(o.Events...)
}

// outcome classifies a commit's result: an expected constraint abort is
// an outcome; anything else is a failure.
func outcome(err error) (aborted, failed bool) {
	if err == nil {
		return false, false
	}
	if errors.Is(err, adb.ErrConstraintViolation) {
		return true, false
	}
	return false, true
}

// runSingle runs one round of a one-node workload: setup (repeated),
// timed phase, drain, the correctness gate against exp and, when recover
// is set, the recovery check.
func runSingle(r *runCtx, w singleWorkload, exp *expected, traced, recover bool) (*pass, error) {
	s := w.spec(r.opts.seed)
	clock := newTracer()
	var tr *tracer
	if traced {
		tr = clock
	}
	p := &pass{}
	var n *single
	var dir string
	runtime.GC() // the previous round's garbage is not these builds'
	for rep := 0; rep < w.setupReps; rep++ {
		dir = r.newDir(w.name)
		t0 := time.Now()
		cfg := w.cfg
		cfg.Initial = s.initial
		var eng *adb.Engine
		if w.durable {
			var err error
			if eng, err = adb.Restore(cfg, dir); err != nil {
				return nil, err
			}
		} else {
			eng = adb.NewEngine(cfg)
		}
		var err error
		if n, err = openSingle(eng, s.rules, clock, tr); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if rep < w.setupReps-1 {
			if err := n.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
	}

	if w.durable {
		syscall.Sync() // earlier writes must not be flushed under the timed fsyncs
	}
	heap0 := liveHeapMB()
	cpu0 := readCPU()
	in0, out0 := n.cc.in.Load(), n.cc.out.Load()
	sub0 := n.sc.in.Load()
	failedCommits := w.drive(r, n, s, p)
	r.attempted += int64(len(p.ops))
	if failedCommits > 0 {
		r.fail(failedCommits, "%s: %d commits failed", w.name, failedCommits)
	}

	// Drain: every firing the engine produced must reach the subscriber.
	n.be.Barrier()
	want := len(n.eng.Firings())
	if !n.subs.waitFor(want) {
		r.fail(1, "%s: subscriber stalled before %d firings", w.name, want)
	}
	got, gaps := n.subs.snapshot()
	if gaps > 0 {
		r.fail(int64(gaps), "%s: subscriber saw gap markers for %d firings", w.name, gaps)
	}
	p.gcFrac = gcFrac(cpu0, readCPU())
	p.heapMB = liveHeapMB()
	if p.acked > 0 {
		p.heapGrowth = (p.heapMB - heap0) / float64(p.acked) * 1e4
		p.wireCommit = float64(n.cc.in.Load()-in0+n.cc.out.Load()-out0) / float64(len(p.ops))
	}
	if len(got) > 0 {
		p.wireFiring = float64(n.sc.in.Load()-sub0) / float64(len(got))
	}
	for _, g := range got {
		if i := g.key.TS - 1; i >= 0 && int(i) < len(p.sentAt) {
			p.fireLat = append(p.fireLat, float64(g.at-p.sentAt[i])/1e3)
		}
		if at := n.tap.fired.get(g.seq); traced && at >= 0 {
			p.deliver = append(p.deliver, float64(g.at-at)/1e3)
		}
	}
	if w.durable {
		st, err := n.be.Storage()
		if err != nil {
			return nil, err
		}
		p.storage = st
	}
	n.be.Barrier()
	before := n.eng.DB()
	if err := n.close(); err != nil {
		return nil, err
	}
	if tr != nil {
		p.self = tr.selfTimes()
		p.durations = tr.durations()
		if err := tr.write(filepath.Join(r.dir, "..", fmt.Sprintf("spans-%s-%d.jsonl", w.name, r.opts.seed))); err != nil {
			return nil, err
		}
	}

	if w.durable && recover {
		if err := recoverCheck(r, w.name, w.cfg, dir, before, p); err != nil {
			return nil, err
		}
	}
	os.RemoveAll(dir)

	// The gate: firings, aborts and the database against a Workers: 1
	// replay of the same commits.
	if r.opts.corrupt == "firing" {
		got = append(got, received{key: firingKey{Rule: "corrupted"}})
	}
	ref, stray := exp.prefix(p.ops)
	if stray != "" {
		r.fail(1, "%s: round sent other commits than the generated stream: %s", w.name, stray)
		return p, nil
	}
	keys := make([]firingKey, len(got))
	for i, g := range got {
		keys[i] = g.key
	}
	if d := diffFirings(keys, ref.firings); d != "" {
		r.fail(1, "%s: firings differ from replay: %s", w.name, d)
	}
	if d := diffAborts(p.aborts, ref.aborts); d > 0 {
		r.fail(int64(d), "%s: %d constraint outcomes differ from replay", w.name, d)
	}
	if d := diffDB(before, ref.db); d != "" {
		r.fail(1, "%s: served database differs from replay: %s", w.name, d)
	}
	return p, nil
}

// recoverCheck restores the workload's data directory after close, checks
// that the database equals the one before close and times the restore
// until it accepts a commit (the comparison itself is not timed).
func recoverCheck(r *runCtx, name string, cfg adb.Config, dir string, before history.DBState, p *pass) error {
	runtime.GC()
	t0 := time.Now()
	eng, err := adb.Restore(cfg, dir)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	restore := time.Since(t0)
	p.restoreMS = float64(restore) / 1e6
	p.replayed = eng.Recovery().ReplayedRecords
	if d := diffDB(eng.DB(), before); d != "" {
		r.fail(1, "%s: restored database differs from the one before close: %s", name, d)
	}
	probe := before.Items()[0]
	t1 := time.Now()
	err = eng.ExecTxn(eng.Now()+1, map[string]value.Value{probe: value.NewInt(1)}, nil)
	p.recoveryS = (restore + time.Since(t1)).Seconds()
	if err != nil {
		r.fail(1, "%s: restored engine refused a commit: %v", name, err)
	}
	_ = eng.Close() // the directory is discarded next
	return nil
}
