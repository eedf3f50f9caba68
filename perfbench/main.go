// Command perfbench is ptlactive's benchmark of record. One invocation
// runs one workload for a fixed time against the server, router, shards
// and follower built in-process over loopback, checks the outputs
// against a single-engine replay of the same generated inputs, and prints
// its metrics; the last line of standard output is a JSON result.
//
//	perfbench --workload ingest|monitor|sharded-ha --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace
// 1 adds a traced pass with the benchmark's layer wrappers switched on and
// prints the per-layer metrics, the tracing overhead and the span
// reconciliation. run.sh builds it and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the program reads: which
// metric names each mode prints, and with which unit.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dataDir  string // scratch directory for durable engines, inside the checkout
	specPath string
	// corrupt, when set, alters one observed or expected output before
	// the gate runs ("firing", "wal" or "route"); the benchmark's tests
	// use it to show the gate is not vacuous.
	corrupt string
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain parses args, runs the workload and prints the result; it
// returns the process exit code.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: ingest, monitor or sharded-ha")
	fs.Int64Var(&o.seed, "seed", 1, "input generator seed")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced pass and prints per-layer metrics")
	fs.StringVar(&o.dataDir, "data", filepath.Join(".bench_build", "data"), "scratch directory for durable engines")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	res, err := run(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one invocation and shapes its result. An error means no
// result could be produced at all.
func run(o options, stdout io.Writer) (*result, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	raw, err := os.ReadFile(o.specPath)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", o.specPath, err)
	}
	runner, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.dataDir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	printHeader(stdout, o)
	r := &runCtx{opts: o, dir: dir}
	all, err := runner(r)
	if err != nil {
		return nil, err
	}
	if r.attempted > 0 {
		all["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	names := spec.EndToEnd
	if o.trace {
		names = spec.PerLayer
	}
	res := &result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := all[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", o.workload, m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(stdout, "GATE FAIL: %s\n", f)
	}
	for _, m := range names {
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	return res, nil
}

// printHeader records the machine fingerprint, the seed and every
// workload parameter ahead of the result.
func printHeader(w io.Writer, o options) {
	fmt.Fprintf(w, "machine: go=%s os=%s arch=%s cpus=%d gomaxprocs=%d cpu=%q\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "params: %s\n", params())
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func params() string {
	return fmt.Sprintf("round_seconds=%d warmup_rounds=%d sat_window=%d replay_commits=%d "+
		"ingest{items=%d quiet=%d constraints=%d temporal=%d temporal_rank=%d max_items=%d zipf_s=%g value_max=%d quiet_above=%d violate=%g snapshot_every=%d segment_bytes=%d keep_snapshots=%d round_commits=%d setup_reps=%d} "+
		"monitor{stocks=%d watched=%d doubled=%d crossing=%d since=%d aggregates=%d watched_pct=%d rate=%d sat_commits=%d setup_reps=%d max_items=%d price=[%d,%d] step=%d jump=%g} "+
		"sharded-ha{shards=%d items=%d value_max=%d fire_above=%d signal_frac=%g rate=%d burst=%d sat_commits=%d setup_reps=%d relay_item=%s}",
		RoundSeconds, WarmupRounds, SatWindow, ReplayCommits,
		IngestItems, IngestQuietTriggers, IngestConstraints, IngestTemporalTriggers, IngestTemporalRank, IngestMaxItems, IngestZipfS, IngestValueMax, IngestQuietAbove, IngestViolateFrac, IngestSnapshotEvery, IngestSegmentBytes, IngestKeepSnapshots, IngestRoundCommits, IngestSetupReps,
		MonitorStocks, MonitorWatched, MonitorDoubled, MonitorCrossing, MonitorSince, MonitorAggregates, MonitorWatchedPct, MonitorRate, MonitorSatCommits, MonitorSetupReps, MonitorMaxItems, MonitorPriceLo, MonitorPriceHi, MonitorStep, MonitorJumpFrac,
		ShardedShards, ShardedItems, ShardedValueMax, ShardedFireAbove, ShardedSignalFrac, ShardedRate, ShardedBurst, ShardedSatCommits, ShardedSetupReps, ShardedRelayItem)
}

// reconcileWithin is how far the commit-path layer figures may sum from
// the traced commit_p50_us, as a share of it, before the traced run
// fails (see reconcile).
const reconcileWithin = 0.10

// runCtx carries one invocation's state through a workload runner.
type runCtx struct {
	opts options
	dir  string

	attempted, failed int64
	failures          []string
	notes             []string // printed ahead of the metrics
	dirs              int      // data directories handed out
}

// rounds is how many measured rounds the run makes: one per
// RoundSeconds of --seconds, at least one.
func (r *runCtx) rounds() int {
	return max(1, r.opts.seconds/RoundSeconds)
}

// roundLength is one round's timed phase: the run's seconds shared
// evenly among its rounds.
func (r *runCtx) roundLength() time.Duration {
	return time.Duration(r.opts.seconds) * time.Second / time.Duration(r.rounds())
}

// newDir names a fresh data directory for one deployment.
func (r *runCtx) newDir(name string) string {
	r.dirs++
	return filepath.Join(r.dir, fmt.Sprintf("%s-%d", name, r.dirs))
}

// fail records a correctness failure: it fails the run and counts in
// failed_frac.
func (r *runCtx) fail(n int64, format string, args ...any) {
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*runCtx) (map[string]float64, error){
	"ingest":     runIngest,
	"monitor":    runMonitor,
	"sharded-ha": runSharded,
}
