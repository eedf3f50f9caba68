package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ptlactive/internal/cluster"
	"ptlactive/internal/event"
	"ptlactive/internal/server"
	"ptlactive/internal/value"
)

// Span names along the commit path, outermost first. Each is timed by the
// benchmark around a call into one module's public API.
const (
	spanClient  = "client"         // Txn.Go -> Pending.Wait return
	spanBackend = "server.backend" // Backend.GoTxn submit -> done
	spanFront   = "cluster.front"  // Front.GoTxn submit -> done (sharded-ha)
	spanShard   = "cluster.shard"  // Shard.GoTxn submit -> done (sharded-ha)
)

// spanParent is the static shape of the commit path.
var spanParent = map[string]string{
	spanBackend: spanClient,
	spanFront:   spanClient,
	spanShard:   spanFront,
}

// span is one timed interval; times are nanoseconds since the tracer's
// epoch. Spans of one commit share Commit.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Commit int64  `json:"commit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(name string, commit, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: spanParent[name], Commit: commit, Start: start, End: end})
	t.mu.Unlock()
}

// selfTimes returns, per span name, the self time of each span: its
// duration minus the part of it covered by its children in the same
// commit.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byCommit := map[int64][]span{}
	for _, s := range t.spans {
		byCommit[s.Commit] = append(byCommit[s.Commit], s)
	}
	out := map[string][]float64{}
	for _, ss := range byCommit {
		for _, p := range ss {
			var cover [][2]int64
			for _, c := range ss {
				if c.Parent != p.Name {
					continue
				}
				lo, hi := max(c.Start, p.Start), min(c.End, p.End)
				if hi > lo {
					cover = append(cover, [2]int64{lo, hi})
				}
			}
			out[p.Name] = append(out[p.Name], float64(p.End-p.Start-union(cover))/1e3)
		}
	}
	return out
}

// durations returns, per span name, each span's duration in µs.
func (t *tracer) durations() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
	}
	return out
}

// union is the total length of a set of intervals.
func union(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stamps records one time per index from a single writer goroutine; the
// reader looks only after the writer is quiescent.
type stamps struct {
	mu sync.Mutex
	at []int64
}

func (s *stamps) put(i int, t int64) {
	s.mu.Lock()
	for len(s.at) <= i {
		s.at = append(s.at, -1)
	}
	s.at[i] = t
	s.mu.Unlock()
}

func (s *stamps) get(i int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.at) {
		return -1
	}
	return s.at[i]
}

// tapBackend is the benchmark-owned server.Backend wrapper in front of the
// served backend: it stamps every firing the backend hands the server
// (by firing sequence number) and, when traced, spans every GoTxn from
// submit to its done callback.
type tapBackend struct {
	server.Backend
	clock *tracer // always set: the stamp clock
	tr    *tracer // nil when untraced
	span  string
	// n numbers GoTxn calls: one committer session submits them in
	// commit order.
	n        atomic.Int64
	fired    stamps
	onFiring func(server.FiringEvent)
}

func (b *tapBackend) GoTxn(ts int64, updates map[string]value.Value, deletes []string,
	events []event.Event, done func(int64, error)) {
	if b.tr == nil {
		b.Backend.GoTxn(ts, updates, deletes, events, done)
		return
	}
	id := b.n.Add(1) - 1
	start := b.tr.now()
	b.Backend.GoTxn(ts, updates, deletes, events, func(ts int64, err error) {
		b.tr.add(b.span, id, start, b.tr.now())
		done(ts, err)
	})
}

func (b *tapBackend) OnFiring(fn func(server.FiringEvent)) (cancel func()) {
	return b.Backend.OnFiring(func(fe server.FiringEvent) {
		b.fired.put(fe.Seq, b.clock.now())
		if b.onFiring != nil {
			b.onFiring(fe)
		}
		fn(fe)
	})
}

// tapShard wraps one cluster shard: it stamps each firing the shard
// hands the router's fan-in, records the operations the shard applied
// (in pipeline order, with their resolved timestamps) for the per-shard
// oracle, counts relay emits and, when traced, spans each GoTxn.
type tapShard struct {
	cluster.Shard
	clock      *tracer
	tr         *tracer
	n          *atomic.Int64 // shared across shards: the router calls them in commit order
	relays     atomic.Int64  // relay emits submitted
	relaysDone atomic.Int64  // relay emits applied
	fired      stamps

	mu      sync.Mutex
	applied []appliedOp // in apply order
}

// appliedOp is one operation a shard applied, with its resolved
// timestamp; relay marks the router's relay emits.
type appliedOp struct {
	op
	relay bool
}

func (s *tapShard) record(o op, relay bool, ts int64, err error) {
	if err != nil {
		return
	}
	o.TS = ts
	s.mu.Lock()
	s.applied = append(s.applied, appliedOp{op: o, relay: relay})
	s.mu.Unlock()
}

func (s *tapShard) GoTxn(ts int64, updates map[string]value.Value, deletes []string,
	events []event.Event, done func(int64, error)) {
	o := op{Updates: updates, Events: events}
	if s.tr == nil {
		s.Shard.GoTxn(ts, updates, deletes, events, func(ts int64, err error) {
			s.record(o, false, ts, err)
			done(ts, err)
		})
		return
	}
	id := s.n.Add(1) - 1
	start := s.tr.now()
	s.Shard.GoTxn(ts, updates, deletes, events, func(ts int64, err error) {
		s.tr.add(spanShard, id, start, s.tr.now())
		s.record(o, false, ts, err)
		done(ts, err)
	})
}

func (s *tapShard) GoEmit(ts int64, events []event.Event, done func(int64, error)) {
	s.relays.Add(1)
	s.Shard.GoEmit(ts, events, func(ts int64, err error) {
		s.record(op{Events: events}, true, ts, err)
		s.relaysDone.Add(1)
		done(ts, err)
	})
}

func (s *tapShard) Follow(fn func(server.FiringEvent)) error {
	return s.Shard.Follow(func(fe server.FiringEvent) {
		s.fired.put(fe.Seq, s.clock.now())
		fn(fe)
	})
}

// ops returns the operations the shard applied, relay emits included
// only when relays is set.
func (s *tapShard) ops(relays bool) []op {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []op
	for _, a := range s.applied {
		if relays || !a.relay {
			out = append(out, a.op)
		}
	}
	return out
}

// countConn counts the bytes a connection carries in each direction.
type countConn struct {
	net.Conn
	in, out atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
