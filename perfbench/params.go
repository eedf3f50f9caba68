package main

import "time"

// Every workload parameter lives here as a named constant, so a result
// can be reproduced from its seed and this file alone. The values are
// printed with every run (see params).

// Shared load shape.
const (
	// RoundSeconds is the length of one round's timed phase: a run of
	// --seconds S repeats it S/RoundSeconds times (at least once), each
	// round on a freshly built deployment with the same inputs. The gated
	// figures are medians over the rounds (see endToEnd); short rounds,
	// many of them, even out the host's bursts.
	RoundSeconds = 2
	// WarmupRounds run first, are checked like the others and are not
	// measured: the first round of a process is the slowest, while its
	// heap grows into fresh memory.
	WarmupRounds = 1
	// SatWindow is how many commits the saturating sender of the open-loop
	// workloads keeps in flight. A deeper window lets group commits batch
	// by chance: at 32 in flight the sharded-ha rate swung 2.6k-7k/s
	// between rounds of one run on 2 CPUs, at 4 it held 4.4k-5k/s.
	SatWindow = 4
	// ReplayCommits is the fixed input prefix the traced run replays into
	// in-process engines, so its exact counts repeat for a seed whatever
	// the live run's speed.
	ReplayCommits = 5000
	// DrainTimeout bounds the wait for the last firing, ack or replicated
	// batch after the timed phase; hitting it is a failure.
	DrainTimeout = 20 * time.Second
	// SampleEvery is the tick of the replica LSN sampler.
	SampleEvery = 5 * time.Millisecond
)

// ingest: a durable single node, one synchronous committer.
const (
	IngestItems            = 100_000 // items in the initial state
	IngestQuietTriggers    = 512     // single-item triggers that almost never fire
	IngestConstraints      = 16      // single-item integrity constraints
	IngestTemporalTriggers = 4       // "doubled within 10 ticks" triggers
	IngestTemporalRank     = 64      // Zipf rank of the first item they watch; quiet triggers follow
	IngestMaxItems         = 4       // items per commit: 1..IngestMaxItems
	IngestZipfS            = 1.1     // Zipf skew of item choice
	IngestValueMax         = 10_000  // item values are drawn from [0, IngestValueMax)
	IngestQuietAbove       = 9_990   // a quiet trigger fires above this value
	IngestViolateFrac      = 0.01    // share of commits that break a constraint
	IngestSnapshotEvery    = 2_048   // checkpoint cadence, as adbserverd -snapshot-every
	IngestSegmentBytes     = 256 << 10
	IngestKeepSnapshots    = 2
	// IngestRoundCommits is the size of one round's closed loop: about
	// RoundSeconds of commits, holding one checkpoint.
	IngestRoundCommits = 2_200
	// IngestSetupReps is how many times each round builds the node;
	// setup_s is the median build of the run, and only the last build of
	// a round is timed under load. Likewise MonitorSetupReps and
	// ShardedSetupReps: the cheaper a build, the more of them.
	IngestSetupReps = 1
)

// monitor: the paper's stock feed, open loop against a memory engine.
const (
	MonitorStocks     = 1_000 // price items
	MonitorWatched    = 32    // stocks the triggers watch
	MonitorDoubled    = 16    // "doubled within 10 ticks" triggers
	MonitorCrossing   = 24    // lasttime downward-crossing triggers
	MonitorSince      = 23    // since triggers
	MonitorAggregates = 1     // rewritten windowed-average trigger
	MonitorWatchedPct = 50    // percent of updates that hit a watched stock
	MonitorRate       = 200   // commits per second, sent on schedule
	MonitorSatCommits = 1_500 // commits sent saturated after each round's open loop
	MonitorSetupReps  = 16
	MonitorMaxItems   = 2 // stocks per commit: 1..MonitorMaxItems
	MonitorPriceLo    = 40
	MonitorPriceHi    = 160
	MonitorStep       = 6    // largest random-walk move per update
	MonitorJumpFrac   = 0.02 // share of updates that jump anywhere in range
)

// sharded-ha: a router over two durable shards, shard 0 replicated.
const (
	ShardedShards     = 2
	ShardedItems      = 512    // items across both shards
	ShardedValueMax   = 10_000 // item values are drawn from [0, ShardedValueMax)
	ShardedFireAbove  = 9_500  // each per-item trigger fires above this value
	ShardedSignalFrac = 0.02   // share of commits that emit the relayed event
	ShardedRate       = 1_000  // commits per second, sent on schedule
	ShardedBurst      = 4      // commits sent back to back at each due time
	ShardedSatCommits = 6_000  // commits sent saturated after each round's open loop
	ShardedSetupReps  = 3
	// ShardedNoFsync leaves WAL syncing to the kernel on the shards and
	// the follower: ingest carries the fsync cost, and here the disk's
	// latency swings would swamp routing, shipping and apply.
	ShardedNoFsync     = true
	ShardedRelayItem   = "h0000"
	ShardedRelayAbove  = 10
	ShardedSignalTries = 64 // candidate event names searched for a remote owner
)
