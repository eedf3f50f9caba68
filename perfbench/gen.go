package main

import (
	"fmt"
	"math/rand"

	"ptlactive/internal/cluster"
	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// ruleDef is one rule a workload registers, in registration order.
type ruleDef struct {
	Name       string
	Cond       string
	Constraint bool
}

// op is one generated commit. TS 0 asks the server for the next tick
// (sharded-ha, where the router's relay emits share the shard clocks);
// otherwise the commit is pinned at TS.
type op struct {
	TS      int64
	Updates map[string]value.Value
	Events  []event.Event
}

// spec is a workload's generated input: the initial state, the rules and
// a deterministic commit stream. The program under test sees only these.
type spec struct {
	initial map[string]value.Value
	rules   []ruleDef
	next    func() op
}

// ingestSpec: 100k items, Zipf-skewed 1..4-item commits, a large table
// of quiet triggers (each fires only when its item crosses a rarely
// reached value), constraints on the hottest items and a few temporal
// triggers on warm ones.
func ingestSpec(seed int64) *spec {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(IngestItems) // rank -> item index: hot items spread over the key space
	name := func(rank int) string { return fmt.Sprintf("it%06d", perm[rank]) }
	initial := make(map[string]value.Value, IngestItems)
	for i := 0; i < IngestItems; i++ {
		initial[fmt.Sprintf("it%06d", i)] = value.NewInt(int64(rng.Intn(IngestValueMax)))
	}
	var rules []ruleDef
	constrained := make([]string, IngestConstraints)
	for i := range constrained {
		constrained[i] = name(i)
		rules = append(rules, ruleDef{Name: fmt.Sprintf("nonneg%02d", i),
			Cond: fmt.Sprintf(`item(%q) >= 0`, constrained[i]), Constraint: true})
	}
	rank := IngestTemporalRank
	for i := 0; i < IngestTemporalTriggers; i++ {
		it := name(rank)
		rank++
		rules = append(rules, ruleDef{Name: fmt.Sprintf("doubled%d", i),
			Cond: fmt.Sprintf(`[t <- time] [x <- item(%q)] previously (item(%q) <= 0.5 * x and time >= t - 10)`, it, it)})
	}
	for i := 0; i < IngestQuietTriggers; i++ {
		it := name(rank)
		rank++
		rules = append(rules, ruleDef{Name: fmt.Sprintf("quiet%03d", i),
			Cond: fmt.Sprintf(`item(%q) > %d and lasttime (item(%q) <= %d)`, it, IngestQuietAbove, it, IngestQuietAbove)})
	}
	zipf := rand.NewZipf(rng, IngestZipfS, 1, IngestItems-1)
	ts := int64(0)
	return &spec{initial: initial, rules: rules, next: func() op {
		ts++
		n := 1 + rng.Intn(IngestMaxItems)
		up := make(map[string]value.Value, n+1)
		for j := 0; j < n; j++ {
			up[name(int(zipf.Uint64()))] = value.NewInt(int64(rng.Intn(IngestValueMax)))
		}
		if rng.Float64() < IngestViolateFrac {
			up[constrained[rng.Intn(len(constrained))]] = value.NewInt(-1)
		}
		return op{TS: ts, Updates: up}
	}}
}

// monitorSpec: the stock feed. Each commit moves 1..2 prices and emits
// update_stocks(symbol) for each; the triggers are the paper's bounded
// past-only conditions over the watched stocks.
func monitorSpec(seed int64) *spec {
	rng := rand.New(rand.NewSource(seed))
	sym := func(i int) string { return fmt.Sprintf("S%04d", i) }
	px := func(i int) string { return "px_" + sym(i) }
	initial := make(map[string]value.Value, MonitorStocks)
	for i := 0; i < MonitorStocks; i++ {
		initial[px(i)] = value.NewInt(int64(MonitorPriceLo + rng.Intn(MonitorPriceHi-MonitorPriceLo)))
	}
	var rules []ruleDef
	w := 0
	watched := func() int { i := w % MonitorWatched; w++; return i }
	for i := 0; i < MonitorDoubled; i++ {
		it := px(watched())
		rules = append(rules, ruleDef{Name: fmt.Sprintf("doubled%02d", i),
			Cond: fmt.Sprintf(`[t <- time] [x <- item(%q)] previously (item(%q) <= 0.5 * x and time >= t - 10)`, it, it)})
	}
	for i := 0; i < MonitorCrossing; i++ {
		it := px(watched())
		rules = append(rules, ruleDef{Name: fmt.Sprintf("cross%02d", i),
			Cond: fmt.Sprintf(`@update_stocks(S) and item(%q) < 60 and lasttime (item(%q) >= 60)`, it, it)})
	}
	for i := 0; i < MonitorSince; i++ {
		k := watched()
		rules = append(rules, ruleDef{Name: fmt.Sprintf("since%02d", i),
			Cond: fmt.Sprintf(`(item(%q) > 100) since (@update_stocks(%q) and item(%q) < 45)`, px(k), sym(k), px(k))})
	}
	for i := 0; i < MonitorAggregates; i++ {
		k := watched()
		avg := fmt.Sprintf(`avg(item(%q); window 60; @update_stocks(%q))`, px(k), sym(k))
		rules = append(rules, ruleDef{Name: fmt.Sprintf("avg%d", i),
			Cond: fmt.Sprintf(`%s > 110 and not lasttime %s > 110`, avg, avg)})
	}
	price := make([]int64, MonitorStocks)
	for i := range price {
		price[i] = initial[px(i)].AsInt()
	}
	ts := int64(0)
	return &spec{initial: initial, rules: rules, next: func() op {
		ts++
		n := 1 + rng.Intn(MonitorMaxItems)
		up := make(map[string]value.Value, n)
		evs := make([]event.Event, 0, n)
		for j := 0; j < n; j++ {
			k := rng.Intn(MonitorStocks)
			if rng.Intn(100) < MonitorWatchedPct {
				k = rng.Intn(MonitorWatched)
			}
			if _, dup := up[px(k)]; dup {
				continue
			}
			// A bounded random walk, with rare jumps anywhere in range.
			if rng.Float64() < MonitorJumpFrac {
				price[k] = int64(MonitorPriceLo + rng.Intn(MonitorPriceHi-MonitorPriceLo))
			} else {
				price[k] += int64(rng.Intn(2*MonitorStep+1) - MonitorStep)
				price[k] = min(max(price[k], MonitorPriceLo), MonitorPriceHi)
			}
			up[px(k)] = value.NewInt(price[k])
			evs = append(evs, event.New("update_stocks", value.NewString(sym(k))))
		}
		return op{TS: ts, Updates: up, Events: evs}
	}}
}

// shardedSpec: single-item commits over items spread across the shards,
// a firing-rare trigger per item, and one cross-shard rule that joins an
// item on shard 0 with an event symbol owned by another shard. Commits
// take server-assigned timestamps.
func shardedSpec(seed int64) (*spec, error) {
	part := cluster.NewPartitioner(ShardedShards)
	home, err := cluster.RouteKeys(part, []string{ShardedRelayItem})
	if err != nil {
		return nil, err
	}
	signal := ""
	for i := 0; i < ShardedSignalTries && signal == ""; i++ {
		cand := fmt.Sprintf("sig%d", i)
		if owner, err := cluster.RouteKeys(part, []string{cand}); err == nil && owner != home {
			signal = cand
		}
	}
	if signal == "" {
		return nil, fmt.Errorf("no event name owned off shard %d in %d tries", home, ShardedSignalTries)
	}
	rng := rand.New(rand.NewSource(seed))
	name := func(i int) string { return fmt.Sprintf("h%04d", i) }
	initial := make(map[string]value.Value, ShardedItems)
	var rules []ruleDef
	for i := 0; i < ShardedItems; i++ {
		initial[name(i)] = value.NewInt(int64(rng.Intn(ShardedFireAbove)))
		rules = append(rules, ruleDef{Name: "hot_" + name(i),
			Cond: fmt.Sprintf(`item(%q) > %d and lasttime (item(%q) <= %d)`, name(i), ShardedFireAbove, name(i), ShardedFireAbove)})
	}
	rules = append(rules, ruleDef{Name: "relayed",
		Cond: fmt.Sprintf(`@%s and item(%q) > %d`, signal, ShardedRelayItem, ShardedRelayAbove)})
	return &spec{initial: initial, rules: rules, next: func() op {
		if rng.Float64() < ShardedSignalFrac {
			return op{Events: []event.Event{event.New(signal)}}
		}
		return op{Updates: map[string]value.Value{
			name(rng.Intn(ShardedItems)): value.NewInt(int64(rng.Intn(ShardedValueMax)))}}
	}}, nil
}
