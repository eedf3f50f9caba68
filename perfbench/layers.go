package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/histio"
	"ptlactive/internal/history"
	"ptlactive/internal/server/wire"
)

// addTraced adds the per-layer numbers of the traced round tp. The
// untraced rounds ps are the reference for the tracing overhead (their
// median commit_p50_us); the last of them gives the live counts.
func addTraced(m map[string]float64, ps []*pass, tp *pass) {
	p := ps[len(ps)-1]
	c50 := quantile(tp.commitLat, 0.5)
	var ref []float64
	for _, q := range ps {
		ref = append(ref, quantile(append([]float64(nil), q.commitLat...), 0.5))
	}
	if r := median(ref); r > 0 {
		m["trace.overhead_frac"] = c50/r - 1
	}
	m["trace.commit_p50_us"] = c50
	backend := spanBackend
	if len(tp.durations[spanFront]) > 0 {
		backend = spanFront
	}
	m["server.backend_p50_us"] = quantile(tp.durations[backend], 0.5)
	m["server.backend_p99_us"] = quantile(tp.durations[backend], 0.99)
	m["server.net_p50_us"] = quantile(tp.self[spanClient], 0.5)
	m["server.deliver_p50_us"] = quantile(tp.deliver, 0.5)
	m["server.deliver_p99_us"] = quantile(tp.deliver, 0.99)
	m["cluster.route_p50_us"] = quantile(tp.self[spanFront], 0.5)
	m["cluster.fanin_p50_us"] = quantile(tp.fanin, 0.5)
	m["wire.bytes_per_commit"] = tp.wireCommit
	m["wire.bytes_per_firing"] = tp.wireFiring
	if p.acked > 0 {
		m["cluster.relays_per_commit"] = float64(p.relays) / float64(p.acked)
	}
	m["replica.apply_lag_p50_us"] = quantile(tp.replLag, 0.5)
	m["replica.apply_lag_p99_us"] = quantile(tp.replLag, 0.99)
	m["replica.lsn_behind_max"] = quantile(p.lsnBehind, 1)
	m["replica.lsn_behind_mean"] = mean(p.lsnBehind)
	if n := p.storage.LastLsn - p.storage.HeadLsn + 1; p.storage.WalBytes > 0 && n > 0 {
		m["persist.wal_bytes_per_commit"] = float64(p.storage.WalBytes) / float64(n)
	} else {
		m["persist.wal_bytes_per_commit"] = 0
	}
	m["persist.segments_live"] = float64(p.storage.Segments)
	m["persist.recover_ms"] = p.restoreMS
	m["persist.replayed_records"] = float64(p.replayed)
	m["go.gc_cpu_frac"] = p.gcFrac
	m["go.heap_growth_mb_per_10k"] = p.heapGrowth
	m["gen.late_p99_us"] = quantile(p.late, 0.99)
	if _, ok := m["disk_bytes_per_commit"]; !ok {
		m["disk_bytes_per_commit"] = 0
	}
}

// replayLayers replays a fixed prefix of the run's inputs into in-process
// engines and times the layers below the server: adb (ExecTxn, steps,
// allocations), core (time per evaluator step), pmap (DBState.WithAll),
// wire (codec and firing encode) and, for a durable config, persist.
//
// It returns the replay's median ExecTxn time in the served config
// (durable or not), the engine's own figure for reconcile.
func replayLayers(r *runCtx, m map[string]float64, cfg adb.Config, durable bool, in *replayInput) (float64, error) {
	ops := in.ops
	if len(ops) > ReplayCommits {
		ops = ops[:ReplayCommits]
	}
	mem := cfg
	mem.Durability, mem.SnapshotEvery, mem.Retention = adb.DurabilityOff, 0, adb.Retention{}
	if len(ops) == 0 {
		return 0, fmt.Errorf("no commits to replay")
	}
	n := float64(len(ops))

	// adb and core: the served config, in memory.
	eng, err := newEngine(mem, in.initial, in.rules)
	if err != nil {
		return 0, err
	}
	steps0 := eng.EvalSteps()
	execs, total, aborts, err := timedReplay(eng, ops)
	if err != nil {
		return 0, err
	}
	steps := eng.EvalSteps() - steps0
	served := quantile(append([]float64(nil), execs...), 0.5)
	m["adb.exec_p50_us"] = served
	m["adb.exec_p99_us"] = quantile(append([]float64(nil), execs...), 0.99)
	m["adb.eval_steps_per_commit"] = float64(steps) / n
	m["adb.firings_per_commit"] = float64(len(eng.Firings())) / n
	m["adb.abort_frac"] = float64(aborts) / n
	m["core.ns_per_step"] = 0
	if steps > 0 {
		m["core.ns_per_step"] = float64(total) / float64(steps)
	}
	firings := eng.Firings()

	// Allocations per commit at one proc and at every proc. The engine is
	// built after GOMAXPROCS is set, since its worker pool follows it.
	for _, at := range []struct {
		name  string
		procs int
	}{{"p1", 1}, {"pn", runtime.NumCPU()}} {
		allocs, bytes, err := allocReplay(mem, in, ops, at.procs)
		if err != nil {
			return 0, err
		}
		m["adb.allocs_per_commit_"+at.name] = allocs
		m["adb.alloc_bytes_per_commit_"+at.name] = bytes
	}

	// pmap: the state transitions alone, against the initial state.
	db := history.NewDB(in.initial)
	t0 := time.Now()
	for _, o := range ops {
		db = db.WithAll(o.Updates)
	}
	m["pmap.apply_ns"] = float64(time.Since(t0)) / n

	// wire: commit frames through the negotiated codec, and firing encode.
	codec := wire.PickCodec(wire.DefaultCodecs())
	var buf bytes.Buffer
	var codecNS time.Duration
	for _, o := range ops {
		up, err := histio.EncodeItems(o.Updates)
		if err != nil {
			return 0, err
		}
		evs, err := histio.EncodeEvents(o.Events)
		if err != nil {
			return 0, err
		}
		msg := &wire.Msg{T: wire.TypeTxn, TS: o.TS, Updates: up, Events: evs}
		buf.Reset()
		t0 := time.Now()
		if err := wire.WriteFrameC(&buf, msg, codec); err != nil {
			return 0, err
		}
		if _, err := wire.ReadFrameC(&buf, codec); err != nil {
			return 0, err
		}
		codecNS += time.Since(t0)
	}
	m["wire.codec_ns"] = float64(codecNS) / n
	m["wire.firing_encode_ns"] = 0
	if len(firings) > 0 {
		t0 := time.Now()
		for i, f := range firings {
			if _, err := wire.EncodeFiring(f, i); err != nil {
				return 0, err
			}
		}
		m["wire.firing_encode_ns"] = float64(time.Since(t0)) / float64(len(firings))
	}

	// persist: the same replay into a durable engine with the served WAL,
	// fsync and snapshot settings, less the memory replay.
	m["persist.log_us"], m["persist.checkpoint_commit_us"] = 0, 0
	if !durable {
		return served, nil
	}
	dir := filepath.Join(r.dir, "replay-durable")
	defer os.RemoveAll(dir)
	dcfg := cfg
	dcfg.Initial = in.initial
	deng, err := adb.Restore(dcfg, dir)
	if err != nil {
		return 0, err
	}
	if err := addRules(deng, in.rules); err != nil {
		deng.Close()
		return 0, err
	}
	dexecs, dtotal, _, err := timedReplay(deng, ops)
	if cerr := deng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	m["persist.log_us"] = float64(dtotal-total) / n / 1e3
	if every := cfg.SnapshotEvery; every > 0 {
		var cross []float64
		for i := every - 1; i < len(dexecs); i += every {
			cross = append(cross, dexecs[i])
		}
		m["persist.checkpoint_commit_us"] = mean(cross)
	}
	return quantile(dexecs, 0.5), nil
}

// timedReplay applies ops, timing each ExecTxn in µs; it also returns the
// total time and the abort count.
func timedReplay(eng *adb.Engine, ops []op) (lat []float64, total time.Duration, aborts int, err error) {
	lat = make([]float64, len(ops))
	for i, o := range ops {
		t0 := time.Now()
		aborted, err := apply(eng, o)
		d := time.Since(t0)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("replay commit %d: %w", i, err)
		}
		if aborted {
			aborts++
		}
		lat[i] = float64(d) / 1e3
		total += d
	}
	return lat, total, aborts, nil
}

// allocReplay counts heap allocations per commit over the replay at the
// given GOMAXPROCS.
func allocReplay(cfg adb.Config, in *replayInput, ops []op, procs int) (allocs, bytes float64, err error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	eng, err := newEngine(cfg, in.initial, in.rules)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i, o := range ops {
		if _, err := apply(eng, o); err != nil {
			return 0, 0, fmt.Errorf("alloc replay commit %d: %w", i, err)
		}
	}
	runtime.ReadMemStats(&b)
	n := float64(len(ops))
	return float64(b.Mallocs-a.Mallocs) / n, float64(b.TotalAlloc-a.TotalAlloc) / n, nil
}

// reconcile checks the traced split of the commit path, in two ways.
//
// The p50 self times of the commit-path spans (client, backend or router,
// shard) must sum to within reconcileWithin of the traced commit_p50_us,
// or the run fails. The self times partition each commit's client span,
// so this catches a span that is missing or mis-parented for some
// commits, and a split whose medians do not add up.
//
// The layer figures measured apart from the spans, the client span's self
// time (session and socket), the router's self time and the engine's
// median ExecTxn in an in-process replay of the served config, are also
// summed; trace.unexplained_frac is the share of the traced
// commit_p50_us they leave unexplained. Queueing in the pipelines and the
// work the live server does beside the engine show up there. It is
// reported, not gated: no isolated replay reproduces them.
func reconcile(r *runCtx, m map[string]float64, tp *pass, engineP50 float64) {
	c50 := m["trace.commit_p50_us"]
	self := 0.0
	for _, name := range []string{spanClient, spanBackend, spanFront, spanShard} {
		self += quantile(tp.self[name], 0.5)
	}
	layers := m["server.net_p50_us"] + m["cluster.route_p50_us"] + engineP50
	m["trace.path_self_p50_sum_us"] = self
	m["trace.layer_p50_sum_us"] = layers
	if c50 <= 0 {
		r.fail(1, "%s: traced round acknowledged no commits", r.opts.workload)
		return
	}
	frac := math.Abs(self-c50) / c50
	m["trace.reconcile_frac"] = frac
	m["trace.unexplained_frac"] = (c50 - layers) / c50
	if frac > reconcileWithin {
		r.fail(1, "%s: commit-path self times sum to %.1f us, %.3f away from the traced commit_p50_us %.1f (limit %.2f)",
			r.opts.workload, self, frac, c50, reconcileWithin)
	}
}
