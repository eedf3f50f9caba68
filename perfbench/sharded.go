package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/cluster"
	"ptlactive/internal/history"
	"ptlactive/internal/replica"
	"ptlactive/internal/server"
	"ptlactive/internal/value"
)

// relayPrefix marks the router's hidden relay triggers.
const relayPrefix = "__relay/"

// shardCfg is each shard's engine configuration, less its initial state.
var shardCfg = adb.Config{Durability: adb.DurabilityWAL, NoFsync: ShardedNoFsync}

// shipOnly serves shard 0's replication endpoint without owning the
// shard: the router drains and closes the engine, so this server's drain
// must not barrier or close it again.
type shipOnly struct{ *replica.Node }

func (shipOnly) Barrier()     {}
func (shipOnly) Close() error { return nil }

// routed is one firing as the router's observer saw it.
type routed struct {
	key   firingKey
	shard int
	at    int64
}

// cluster is the sharded-ha deployment: router, two durable shards, shard
// 0's replication server and its follower, and the committer session.
type shardedDeploy struct {
	part    cluster.Partitioner
	engs    []*adb.Engine
	cfgs    []adb.Config
	dirs    []string
	taps    []*tapShard
	front   *cluster.Front
	ftap    *tapBackend
	srv     *served
	primary *replica.Node
	ship    *served
	fol     *replica.Node
	folDir  string
	stream  *replica.Stream
	folAt   stamps
	rules0  []ruleDef // shard 0's rules, relays included, once gated
	cli     *client.Client
	cc      *countConn
	clock   *tracer

	mu     sync.Mutex
	routed []routed
	homeOf func(rule string) int
}

// shardOf returns the shard owning every key of o.
func shardOf(part cluster.Partitioner, o op) (int, error) {
	keys := make([]string, 0, len(o.Updates)+len(o.Events))
	for k := range o.Updates {
		keys = append(keys, k)
	}
	for _, e := range o.Events {
		keys = append(keys, e.Name)
	}
	return cluster.RouteKeys(part, keys)
}

func openSharded(s *spec, dir string, clock, tr *tracer) (*shardedDeploy, error) {
	d := &shardedDeploy{part: cluster.NewPartitioner(ShardedShards), clock: clock}
	relayHome, err := cluster.RouteKeys(d.part, []string{ShardedRelayItem})
	if err != nil {
		return nil, err
	}
	d.homeOf = func(rule string) int {
		if item, ok := strings.CutPrefix(rule, "hot_"); ok {
			k, _ := cluster.RouteKeys(d.part, []string{item})
			return k
		}
		return relayHome
	}
	initial := make([]map[string]value.Value, ShardedShards)
	for k := range initial {
		initial[k] = map[string]value.Value{}
	}
	for name, v := range s.initial {
		k, err := cluster.RouteKeys(d.part, []string{name})
		if err != nil {
			return nil, err
		}
		initial[k][name] = v
	}
	counter := new(atomic.Int64)
	shards := make([]cluster.Shard, ShardedShards)
	for k := 0; k < ShardedShards; k++ {
		cfg := shardCfg
		cfg.Initial = initial[k]
		dk := filepath.Join(dir, fmt.Sprintf("shard%d", k))
		eng, err := adb.Restore(cfg, dk)
		if err != nil {
			d.close()
			return nil, err
		}
		d.engs, d.cfgs, d.dirs = append(d.engs, eng), append(d.cfgs, cfg), append(d.dirs, dk)
		ls := cluster.NewLocalShard(eng)
		tap := &tapShard{Shard: ls, clock: clock, tr: tr, n: counter}
		if k == 0 {
			d.primary = replica.NewPrimary(ls.EngineBackend, "")
			if d.ship, err = serve(server.Config{Backend: shipOnly{d.primary}, WALSource: d.primary, RoleInfo: d.primary.RoleInfo}); err != nil {
				ls.Close()
				d.close()
				return nil, err
			}
		}
		d.taps = append(d.taps, tap)
		shards[k] = tap
	}
	d.folDir = filepath.Join(dir, "follower")
	if d.fol, err = replica.NewFollower(adb.Config{NoFsync: ShardedNoFsync}, d.folDir, d.ship.addr, ""); err != nil {
		d.close()
		return nil, err
	}
	d.fol.OnFiring(func(fe server.FiringEvent) { d.folAt.put(fe.Seq, clock.now()) })
	d.stream = replica.StartStream(d.fol, replica.StreamConfig{Primary: d.ship.addr})

	if d.front, err = cluster.New(cluster.Config{Shards: shards}); err != nil {
		d.close()
		return nil, err
	}
	d.ftap = &tapBackend{Backend: d.front, clock: clock, tr: tr, span: spanFront, onFiring: func(fe server.FiringEvent) {
		if fe.Gap > 0 {
			return // counted by the gate through the shard logs
		}
		at := clock.now()
		d.mu.Lock()
		d.routed = append(d.routed, routed{key: keyOf(fe.F), shard: d.homeOf(fe.F.Rule), at: at})
		d.mu.Unlock()
	}}
	if d.srv, err = serve(server.Config{Backend: d.ftap}); err != nil {
		d.front.Close()
		d.front = nil
		d.close()
		return nil, err
	}
	if d.cli, d.cc, err = dial(d.srv.addr); err != nil {
		d.close()
		return nil, err
	}
	if err := registerRules(d.cli, s.rules); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close tears the deployment down: the router (closing the shard
// engines) first, then replication and the follower.
func (d *shardedDeploy) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if d.cli != nil {
		d.cli.Close()
	}
	switch {
	case d.srv != nil:
		keep(d.srv.shutdown())
	case d.front != nil:
		keep(d.front.Close())
	default:
		for _, e := range d.engs {
			keep(e.Close())
		}
	}
	if d.stream != nil {
		d.stream.Stop()
	}
	if d.ship != nil {
		keep(d.ship.shutdown())
	}
	if d.fol != nil {
		keep(d.fol.Close())
	}
	return first
}

// quiesce waits until every relay firing has been forwarded and applied
// and the router has merged every shard firing.
func (d *shardedDeploy) quiesce() bool {
	deadline := time.Now().Add(DrainTimeout)
	for time.Now().Before(deadline) {
		d.front.Barrier()
		relayFired, plain := 0, 0
		for _, e := range d.engs {
			for _, f := range e.Firings() {
				if strings.HasPrefix(f.Rule, relayPrefix) {
					relayFired++
				} else {
					plain++
				}
			}
		}
		forwarded := 0
		for _, t := range d.taps {
			forwarded += int(t.relaysDone.Load())
		}
		d.mu.Lock()
		merged := len(d.routed)
		d.mu.Unlock()
		if relayFired == forwarded && merged == plain {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func runSharded(r *runCtx) (map[string]float64, error) {
	ps, err := rounds(r, func(last bool) (*pass, error) { return shardedPass(r, false, last) })
	if err != nil {
		return nil, err
	}
	noteRounds(r, ps)
	m := endToEnd(ps)
	if !r.opts.trace {
		return m, nil
	}
	tp, err := shardedPass(r, true, false)
	if err != nil {
		return nil, err
	}
	last := ps[len(ps)-1]
	addTraced(m, ps, tp)
	// The layer replays run shard 0's applied commits: shard 0 is the
	// replicated primary.
	eng, err := replayLayers(r, m, shardCfg, true, last.replay)
	if err != nil {
		return nil, err
	}
	reconcile(r, m, tp, eng)
	return m, nil
}

// shardedPass runs one round of sharded-ha: setup (repeated), the open
// loop, then, untraced, the saturated phase; drain, the gate and, when
// recover is set, the recovery check.
func shardedPass(r *runCtx, traced, recover bool) (*pass, error) {
	s, err := shardedSpec(r.opts.seed)
	if err != nil {
		return nil, err
	}
	clock := newTracer()
	var tr *tracer
	if traced {
		tr = clock
	}
	p := &pass{}
	var d *shardedDeploy
	runtime.GC() // the previous round's garbage is not these builds'
	for rep := 0; rep < ShardedSetupReps; rep++ {
		dir := r.newDir("sharded")
		t0 := time.Now()
		if d, err = openSharded(s, dir, clock, tr); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if rep < ShardedSetupReps-1 {
			if err := d.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
	}

	ops := make([]op, roundCommits(r, ShardedRate))
	for i := range ops {
		ops[i] = s.next()
	}
	var sat []op
	if !traced {
		sat = make([]op, ShardedSatCommits)
		for i := range sat {
			sat[i] = s.next()
		}
	}
	all := append(append([]op(nil), ops...), sat...)
	shardOfCommit := make([]int, len(all))
	for i, o := range all {
		if shardOfCommit[i], err = shardOf(d.part, o); err != nil {
			return nil, err
		}
	}
	heap0 := liveHeapMB()
	cpu0 := readCPU()
	in0, out0 := d.cc.in.Load(), d.cc.out.Load()
	stopSampler := make(chan struct{})
	sampled := make(chan []float64)
	go func() {
		var behind []float64
		t := time.NewTicker(SampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stopSampler:
				sampled <- behind
				return
			case <-t.C:
				behind = append(behind, float64(d.primary.LastLSN()-d.fol.LastLSN()))
			}
		}
	}()
	failed, tsOf := openLoop(d.cli, d.clock, d.ftap.tr, ops, schedule(d.clock.now(), ShardedRate, ShardedBurst), p)
	if len(sat) > 0 {
		f, ts := saturate(d.cli, sat, p)
		failed += f
		tsOf = append(tsOf, ts...)
	}
	close(stopSampler)
	p.lsnBehind = <-sampled
	r.attempted += int64(len(p.ops))
	if failed > 0 {
		r.fail(failed, "sharded-ha: %d commits failed", failed)
	}

	if !d.quiesce() {
		r.fail(1, "sharded-ha: relays or router fan-in did not settle")
	}
	// Every shard-0 WAL record must reach the follower.
	want := d.primary.LastLSN()
	deadline := time.Now().Add(DrainTimeout)
	for d.fol.LastLSN() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.gcFrac = gcFrac(cpu0, readCPU())
	p.heapMB = liveHeapMB()
	if p.acked > 0 {
		p.heapGrowth = (p.heapMB - heap0) / float64(p.acked) * 1e4
		p.wireCommit = float64(d.cc.in.Load()-in0+d.cc.out.Load()-out0) / float64(len(p.ops))
	}
	for _, t := range d.taps {
		p.relays += t.relays.Load()
	}

	// Latencies: commit -> router, shard firing -> router, primary -> follower.
	type shardTS struct{ shard, ts int64 }
	commitOf := map[shardTS]int{}
	for i, ts := range tsOf {
		if ts > 0 {
			commitOf[shardTS{int64(shardOfCommit[i]), ts}] = i
		}
	}
	d.mu.Lock()
	rt := append([]routed(nil), d.routed...)
	d.mu.Unlock()
	perShard := make([][]routed, ShardedShards)
	for _, f := range rt {
		if i, ok := commitOf[shardTS{int64(f.shard), f.key.TS}]; ok {
			if i < len(p.sentAt) { // the open loop's commits only
				p.fireLat = append(p.fireLat, float64(f.at-p.sentAt[i])/1e3)
			}
		}
		perShard[f.shard] = append(perShard[f.shard], f)
	}
	logs := make([][]adb.Firing, ShardedShards)
	for k, e := range d.engs {
		logs[k] = e.Firings()
		j := 0
		for seq, f := range logs[k] {
			if strings.HasPrefix(f.Rule, relayPrefix) {
				continue
			}
			if j < len(perShard[k]) {
				if t := d.taps[k].fired.get(seq); traced && t >= 0 {
					p.fanin = append(p.fanin, float64(perShard[k][j].at-t)/1e3)
				}
			}
			j++
		}
	}
	for seq := range logs[0] {
		if a, b := d.taps[0].fired.get(seq), d.folAt.get(seq); a >= 0 && b >= 0 {
			p.replLag = append(p.replLag, float64(b-a)/1e3)
		}
	}
	if st, err := d.primary.Storage(); err == nil {
		p.storage = st
	} else {
		return nil, err
	}

	// The gate. Each shard must have applied exactly the generated
	// commits routed to it, in order and at their acknowledged
	// timestamps, and together the shards must hold the database a
	// sequential replay of every commit gives. Each shard's merged
	// firings must equal a Workers: 1 replay of what it applied; relay
	// forwards must match the relay firings; the follower must hold shard
	// 0's WAL byte for byte and its firing log.
	if r.opts.corrupt == "route" && len(all) > 0 {
		all[0].Updates = map[string]value.Value{"corrupted": value.NewInt(1)}
	}
	dbs := make([]history.DBState, ShardedShards)
	for k, e := range d.engs {
		dbs[k] = e.DB()
	}
	routeGate(r, d, all, tsOf, shardOfCommit, p.aborts, dbs, s.initial)
	relayFired := 0
	for k := range d.engs {
		if err := shardGate(r, k, d, logs[k], perShard[k]); err != nil {
			return nil, err
		}
		for _, f := range logs[k] {
			if strings.HasPrefix(f.Rule, relayPrefix) {
				relayFired++
			}
		}
	}
	if p.relays != int64(relayFired) {
		r.fail(1, "sharded-ha: router forwarded %d relay occurrences, shards fired %d", p.relays, relayFired)
	}
	pw, err := walBytes(d.dirs[0])
	if err != nil {
		return nil, err
	}
	fw, err := walBytes(d.folDir)
	if err != nil {
		return nil, err
	}
	if r.opts.corrupt == "wal" && len(fw) > 0 {
		fw[len(fw)/2] ^= 0xff
	}
	if !bytes.Equal(pw, fw) {
		r.fail(1, "sharded-ha: follower WAL (%d bytes) differs from shard 0's (%d bytes)", len(fw), len(pw))
	}
	folFirings, err := d.fol.Firings(0)
	if err != nil {
		return nil, err
	}
	fk := make([]firingKey, len(folFirings))
	for i, fe := range folFirings {
		fk[i] = keyOf(fe.F)
	}
	pk := make([]firingKey, len(logs[0]))
	for i, f := range logs[0] {
		pk[i] = keyOf(f)
	}
	if diff := diffFirings(fk, pk); diff != "" {
		r.fail(1, "sharded-ha: follower firings differ from shard 0: %s", diff)
	}

	before := dbs[0]
	if err := d.close(); err != nil {
		return nil, err
	}
	if tr != nil {
		p.self = tr.selfTimes()
		p.durations = tr.durations()
		if err := tr.write(filepath.Join(r.dir, "..", fmt.Sprintf("spans-sharded-ha-%d.jsonl", r.opts.seed))); err != nil {
			return nil, err
		}
	}
	if recover {
		if err := recoverCheck(r, "sharded-ha", d.cfgs[0], d.dirs[0], before, p); err != nil {
			return nil, err
		}
	}
	p.replay = &replayInput{initial: d.cfgs[0].Initial, rules: d.rules0, ops: d.taps[0].ops(true)}
	return p, nil
}

// routeGate checks the router: each shard's applied commits, relay emits
// aside, must be the generated commits that route to it, in order, at the
// timestamps their clients were given; their number must be the number
// acknowledged; and the shards' databases together must equal the
// initial state with every acknowledged commit applied in order.
func routeGate(r *runCtx, d *shardedDeploy, all []op, tsOf []int64, shardOfCommit []int, aborts []bool, dbs []history.DBState, initial map[string]value.Value) {
	want := make([][]op, ShardedShards)
	db := history.NewDB(initial)
	acked := 0
	for i, o := range all {
		if tsOf[i] == 0 || aborts[i] {
			continue
		}
		o.TS = tsOf[i]
		want[shardOfCommit[i]] = append(want[shardOfCommit[i]], o)
		db = db.WithAll(o.Updates)
		acked++
	}
	applied := 0
	for k, t := range d.taps {
		got := t.ops(false)
		applied += len(got)
		if diff := diffOps(got, want[k]); diff != "" {
			r.fail(1, "sharded-ha: shard %d applied other commits than were routed to it: %s", k, diff)
		}
	}
	if applied != acked {
		r.fail(1, "sharded-ha: shards applied %d client commits, %d were acknowledged", applied, acked)
	}
	n := 0
	for _, s := range dbs {
		n += s.Len()
	}
	msg := ""
	if n != db.Len() {
		msg = fmt.Sprintf("%d items, want %d", n, db.Len())
	}
	db.Range(func(name string, v value.Value) bool {
		k, err := cluster.RouteKeys(d.part, []string{name})
		if err != nil {
			msg = err.Error()
			return false
		}
		if g, ok := dbs[k].Get(name); !ok || !g.Equal(v) {
			msg = fmt.Sprintf("item %q on shard %d = %v, want %v", name, k, g, v)
			return false
		}
		return true
	})
	if msg != "" {
		r.fail(1, "sharded-ha: shard databases differ from a sequential replay: %s", msg)
	}
}

// shardGate checks one shard: the router's firings from it against a
// Workers: 1 replay of what it applied, and relay forwards against relay
// firings.
func shardGate(r *runCtx, k int, d *shardedDeploy, log []adb.Firing, got []routed) error {
	rules := shardRules(d.engs[k])
	if k == 0 {
		d.rules0 = rules
	}
	ops := d.taps[k].ops(true)
	orc, err := replayOracle(d.cfgs[k].Initial, rules, ops)
	if err != nil {
		return fmt.Errorf("shard %d: %w", k, err)
	}
	var want []firingKey
	relays := 0
	for _, f := range orc.firings {
		if strings.HasPrefix(f.Rule, relayPrefix) {
			relays++
			continue
		}
		want = append(want, f)
	}
	keys := make([]firingKey, len(got))
	for i, g := range got {
		keys[i] = g.key
	}
	if diff := diffFirings(keys, want); diff != "" {
		r.fail(1, "sharded-ha: shard %d router firings differ from replay: %s", k, diff)
	}
	inLog := 0
	for _, f := range log {
		if strings.HasPrefix(f.Rule, relayPrefix) {
			inLog++
		}
	}
	if inLog != relays {
		r.fail(1, "sharded-ha: shard %d fired %d relays, replay %d", k, inLog, relays)
	}
	return nil
}

// shardRules lists a shard engine's rules, hidden relays included, in
// registration order.
func shardRules(eng *adb.Engine) []ruleDef {
	var out []ruleDef
	for _, name := range eng.RuleNames() {
		info, ok := eng.Rule(name)
		if !ok {
			continue
		}
		out = append(out, ruleDef{Name: name, Cond: info.Condition, Constraint: info.Constraint})
	}
	return out
}

// walBytes concatenates a data directory's WAL segments in replay order.
func walBytes(dir string) ([]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "wal.") && strings.Trim(n[len("wal."):], "0123456789") == "" && len(n) > len("wal.") {
			names = append(names, n)
		}
	}
	sort.Strings(names) // zero-padded ordinals
	var out []byte
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}
