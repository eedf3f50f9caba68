package main

import (
	"fmt"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
)

// ingestWorkload: the durable node as adbserverd -data -snapshot-every
// -wal-segment-bytes ships it (fsync on every commit), driven by one
// synchronous committer.
func ingestWorkload() singleWorkload {
	return singleWorkload{
		name: "ingest",
		spec: ingestSpec,
		cfg: adb.Config{
			Durability:    adb.DurabilitySnapshot,
			SnapshotEvery: IngestSnapshotEvery,
			Retention:     adb.Retention{SegmentBytes: IngestSegmentBytes, KeepSnapshots: IngestKeepSnapshots},
		},
		durable:   true,
		setupReps: IngestSetupReps,
		commits:   func(*runCtx) int { return IngestRoundCommits },
		drive:     closedLoop,
	}
}

// monitorWorkload: a memory engine fed on a fixed schedule.
func monitorWorkload() singleWorkload {
	return singleWorkload{name: "monitor", spec: monitorSpec, setupReps: MonitorSetupReps,
		commits: func(r *runCtx) int { return roundCommits(r, MonitorRate) + MonitorSatCommits },
		drive:   monitorDrive}
}

func runIngest(r *runCtx) (map[string]float64, error) { return runSingleWorkload(r, ingestWorkload()) }
func runMonitor(r *runCtx) (map[string]float64, error) {
	return runSingleWorkload(r, monitorWorkload())
}

// spinMargin is how long before a due time the open-loop sender stops
// sleeping and spins: a little more than the runtime's timer slack.
const spinMargin = 1200 * int64(time.Microsecond)

// closedLoop sends IngestRoundCommits commits synchronously; the round's
// rate is its acknowledged commits per second. A round of fixed size
// holds the same checkpoints whatever the machine's speed, where a round
// of fixed length would end before or after one by chance.
func closedLoop(r *runCtx, n *single, s *spec, p *pass) int64 {
	var failed int64
	start := time.Now()
	for range IngestRoundCommits {
		o := s.next()
		tx := txnOf(n.cli, o)
		t0 := n.clock.now()
		_, err := tx.Go().Wait()
		t1 := n.clock.now()
		n.tap.tr.add(spanClient, o.TS-1, t0, t1)
		p.ops = append(p.ops, o)
		p.sentAt = append(p.sentAt, t0)
		aborted, bad := outcome(err)
		p.aborts = append(p.aborts, aborted)
		if bad {
			failed++
			continue
		}
		p.acked++
		p.commitLat = append(p.commitLat, float64(t1-t0)/1e3)
	}
	p.rate = float64(p.acked) / time.Since(start).Seconds()
	return failed
}

// monitorDrive sends the feed open-loop, one commit every 1/MonitorRate
// seconds, for the round's length; untraced rounds then measure the
// saturated rate.
func monitorDrive(r *runCtx, n *single, s *spec, p *pass) int64 {
	ops := make([]op, roundCommits(r, MonitorRate))
	for i := range ops {
		ops[i] = s.next()
	}
	failed, _ := openLoop(n.cli, n.clock, n.tap.tr, ops, schedule(n.clock.now(), MonitorRate, 1), p)
	if n.tap.tr == nil {
		sat := make([]op, MonitorSatCommits)
		for i := range sat {
			sat[i] = s.next()
		}
		f, _ := saturate(n.cli, sat, p)
		failed += f
	}
	return failed
}

// roundCommits is how many commits an open loop at rate sends in one
// round; at least one.
func roundCommits(r *runCtx, rate int) int {
	return max(1, int(int64(rate)*int64(r.roundLength())/int64(time.Second)))
}

// schedule returns the due times of an open loop sending rate commits per
// second in bursts of burst, starting a millisecond after start.
func schedule(start int64, rate, burst int) func(i int) int64 {
	start += int64(time.Millisecond)
	every := int64(burst) * int64(time.Second) / int64(rate)
	return func(i int) int64 { return start + int64(i/burst)*every }
}

// openLoop sends ops[i] on one session when due(i) comes, whatever the
// server's speed, so commits pipeline on the connection; a second
// goroutine collects the acknowledgements in order. Latency counts from
// when each commit was due. The sender sleeps until spinMargin before a
// due time and spins on the clock for the rest: the runtime's timers wake
// up to a millisecond late, which would count as latency, and yielding in
// the spin starves the network poller. It returns the failed count and
// each commit's applied timestamp (0 when it failed).
func openLoop(cli *client.Client, clock, tr *tracer, ops []op, due func(int) int64, p *pass) (int64, []int64) {
	p.ops = ops
	p.sentAt = make([]int64, len(ops))
	p.aborts = make([]bool, len(ops))
	p.late = make([]float64, 0, len(ops))
	tsOf := make([]int64, len(ops))
	type inflight struct {
		i  int
		pd *client.Pending
	}
	pending := make(chan inflight, len(ops)) // sized to the number of sends
	var failed int64
	reaped := make(chan struct{})
	go func() {
		defer close(reaped)
		for f := range pending {
			ts, err := f.pd.Wait()
			t := clock.now()
			tr.add(spanClient, int64(f.i), p.sentAt[f.i], t)
			aborted, bad := outcome(err)
			p.aborts[f.i] = aborted
			if bad {
				failed++
				continue
			}
			tsOf[f.i] = ts
			p.acked++
			p.commitLat = append(p.commitLat, float64(t-p.sentAt[f.i])/1e3)
		}
	}()
	for i, o := range ops {
		tx := txnOf(cli, o)
		at := due(i)
		p.sentAt[i] = at
		now := clock.now()
		if wait := at - now; wait > spinMargin {
			time.Sleep(time.Duration(wait - spinMargin))
			now = clock.now()
		}
		for now < at {
			now = clock.now()
		}
		p.late = append(p.late, float64(now-at)/1e3)
		pending <- inflight{i: i, pd: tx.Go()}
	}
	close(pending)
	<-reaped
	return failed, tsOf
}

// saturate sends ops on one session as fast as the server acknowledges
// them, at most SatWindow in flight, after the open loop's commits in p.
// It sets p.rate to the commits acknowledged per second from the first
// send to the last acknowledgement, and returns the failed count and
// each commit's applied timestamp (0 when it failed).
func saturate(cli *client.Client, ops []op, p *pass) (int64, []int64) {
	base := len(p.ops)
	p.ops = append(p.ops, ops...)
	p.aborts = append(p.aborts, make([]bool, len(ops))...)
	tsOf := make([]int64, len(ops))
	slots := make(chan struct{}, SatWindow)
	pending := make(chan *client.Pending, len(ops)) // sized to the number of sends
	var failed int64
	reaped := make(chan struct{})
	go func() {
		defer close(reaped)
		i := 0
		for pd := range pending {
			ts, err := pd.Wait()
			<-slots
			aborted, bad := outcome(err)
			p.aborts[base+i] = aborted
			if bad {
				failed++
			} else {
				tsOf[i] = ts
				p.acked++
			}
			i++
		}
	}()
	start := time.Now()
	for _, o := range ops {
		slots <- struct{}{}
		pending <- txnOf(cli, o).Go()
	}
	close(pending)
	<-reaped
	p.rate = float64(len(ops)-int(failed)) / time.Since(start).Seconds()
	return failed, tsOf
}

// runSingleWorkload runs the untraced rounds and, for --trace 1, one
// traced round and the in-process layer replays.
func runSingleWorkload(r *runCtx, w singleWorkload) (map[string]float64, error) {
	s := w.spec(r.opts.seed)
	ops := make([]op, w.commits(r))
	for i := range ops {
		ops[i] = s.next()
	}
	exp, err := replayExpected(s.initial, s.rules, ops)
	if err != nil {
		return nil, err
	}
	ps, err := rounds(r, func(last bool) (*pass, error) { return runSingle(r, w, exp, false, last) })
	if err != nil {
		return nil, err
	}
	noteRounds(r, ps)
	m := endToEnd(ps)
	if !r.opts.trace {
		return m, nil
	}
	tp, err := runSingle(r, w, exp, true, false)
	if err != nil {
		return nil, err
	}
	addTraced(m, ps, tp)
	// The layer replays take the stream an untraced round sends.
	eng, err := replayLayers(r, m, w.cfg, w.durable, &replayInput{initial: s.initial, rules: s.rules, ops: exp.ops})
	if err != nil {
		return nil, err
	}
	reconcile(r, m, tp, eng)
	return m, nil
}

// rounds runs WarmupRounds and then r.rounds() untraced rounds, and
// returns the latter. Each builds its deployment afresh from the same
// seed, so every round sees the same inputs and history; every round's
// outputs are checked, and the last also runs the recovery check. The
// inputs of a round are dropped once the next ends.
func rounds(r *runCtx, round func(last bool) (*pass, error)) ([]*pass, error) {
	var ps []*pass
	n := WarmupRounds + r.rounds()
	for i := 0; i < n; i++ {
		p, err := round(i == n-1)
		if err != nil {
			return nil, err
		}
		if i < WarmupRounds {
			continue
		}
		if n := len(ps); n > 0 {
			ps[n-1].ops, ps[n-1].sentAt, ps[n-1].aborts, ps[n-1].replay = nil, nil, nil, nil
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// noteRounds records each untraced round's figures, so a reader can see
// how far the rounds of a run differ.
func noteRounds(r *runCtx, ps []*pass) {
	for _, f := range []struct {
		name string
		of   func(*pass) float64
	}{
		{"commit_p50_us", func(p *pass) float64 { return quantile(append([]float64(nil), p.commitLat...), 0.5) }},
		{"fire_p50_us", func(p *pass) float64 { return quantile(append([]float64(nil), p.fireLat...), 0.5) }},
		{"commits_per_s", func(p *pass) float64 { return p.rate }},
		{"setup_s", func(p *pass) float64 { return median(append([]float64(nil), p.setup...)) }},
	} {
		line := "rounds: " + f.name
		for _, p := range ps {
			line += fmt.Sprintf(" %.6g", f.of(p))
		}
		r.notes = append(r.notes, line)
	}
	line := "rounds: samples (commits/firings)"
	for _, p := range ps {
		line += fmt.Sprintf(" %d/%d", len(p.commitLat), len(p.fireLat))
	}
	r.notes = append(r.notes, line)
}

// endToEnd turns the untraced rounds into the end-to-end metrics. Each
// is the median over the rounds of the round's own figure, except that
// the firing latencies pool every round's firings (a round sees only
// tens of them) and setup_s is the median of every build of the rounds.
func endToEnd(ps []*pass) map[string]float64 {
	q := func(f func(*pass) []float64, at float64) func(*pass) float64 {
		return func(p *pass) float64 { return quantile(append([]float64(nil), f(p)...), at) }
	}
	commits := func(p *pass) []float64 { return p.commitLat }
	fires := func(p *pass) []float64 { return p.fireLat }
	lags := func(p *pass) []float64 { return p.replLag }
	var builds []float64
	for _, p := range ps {
		builds = append(builds, p.setup...)
	}
	m := map[string]float64{
		"commit_p50_us":   acrossRounds(ps, q(commits, 0.5)),
		"commit_p99_us":   acrossRounds(ps, q(commits, 0.99)),
		"fire_p50_us":     pooled(ps, fires, 0.5),
		"fire_p99_us":     pooled(ps, fires, 0.99),
		"repl_lag_p50_us": acrossRounds(ps, q(lags, 0.5)),
		"repl_lag_p99_us": acrossRounds(ps, q(lags, 0.99)),
		"setup_s":         median(builds),
		"heap_mb":         acrossRounds(ps, func(p *pass) float64 { return p.heapMB }),
		"recovery_s":      ps[len(ps)-1].recoveryS, // the last round runs the recovery check
		"commits_per_s":   acrossRounds(ps, func(p *pass) float64 { return p.rate }),
	}
	m["disk_bytes_per_commit"] = acrossRounds(ps, func(p *pass) float64 {
		if p.acked == 0 {
			return 0
		}
		return float64(p.storage.WalBytes+p.storage.SnapshotBytes) / float64(p.acked)
	})
	return m
}
