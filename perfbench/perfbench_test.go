package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// specPath is BENCHMARK.json as seen from this package's directory.
const specPath = "../BENCHMARK.json"

// invoke runs the one command in-process and returns its exit code and
// parsed result line.
func invoke(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := runMain(append(args, "--spec", specPath, "--data", t.TempDir()), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errb.String())
	}
	return code, res, out.String()
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestReducedPass runs every workload for one second in both modes and
// checks that each metric BENCHMARK.json names prints with its unit and
// that the correctness gate passes.
func TestReducedPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range []string{"ingest", "monitor", "sharded-ha"} {
		for _, trace := range []string{"0", "1"} {
			code, res, out := invoke(t, "--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, result %+v\n%s", w, trace, code, res, out)
			}
			names := spec.EndToEnd
			if trace == "1" {
				names = spec.PerLayer
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(names))
			}
			for _, m := range names {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestGateCatchesCorruptFiring: one altered firing must fail the run.
func TestGateCatchesCorruptFiring(t *testing.T) {
	var out bytes.Buffer
	res, err := run(options{workload: "monitor", seed: 3, seconds: 1, dataDir: t.TempDir(), specPath: specPath, corrupt: "firing"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("gate passed a corrupted firing stream: %+v\n%s", res, out.String())
	}
}

// TestGateCatchesCorruptWAL: one flipped follower WAL byte must fail the
// run.
func TestGateCatchesCorruptWAL(t *testing.T) {
	var out bytes.Buffer
	res, err := run(options{workload: "sharded-ha", seed: 3, seconds: 1, dataDir: t.TempDir(), specPath: specPath, corrupt: "wal"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("gate passed a corrupted follower WAL: %+v\n%s", res, out.String())
	}
}

// TestGateCatchesMisroute: a commit the shards applied other than as
// generated must fail the run.
func TestGateCatchesMisroute(t *testing.T) {
	var out bytes.Buffer
	res, err := run(options{workload: "sharded-ha", seed: 3, seconds: 1, dataDir: t.TempDir(), specPath: specPath, corrupt: "route"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("gate passed a misrouted commit: %+v\n%s", res, out.String())
	}
}

// TestCountsRepeat: the exact counts repeat for a seed. monitor's open
// loop sends a fixed number of commits, so its wire bytes per commit are
// exact too.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced monitor pass twice")
	}
	countsRepeat(t, "adb.eval_steps_per_commit", "adb.firings_per_commit", "adb.abort_frac",
		"adb.allocs_per_commit_p1", "wire.bytes_per_commit")
}

// TestAllocsRepeatAtNumCPU: allocations per commit at GOMAXPROCS=NumCPU
// repeat for a seed. The engine starts worker goroutines for every
// commit, and this count has differed between runs in the last digits
// (3914.940 against 3914.945 on monitor, seed 5, two CPUs).
func TestAllocsRepeatAtNumCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced monitor pass twice")
	}
	countsRepeat(t, "adb.allocs_per_commit_pn")
}

// countsRepeat runs the traced monitor pass twice with one seed and
// requires the named metrics to be equal.
func countsRepeat(t *testing.T, names ...string) {
	t.Helper()
	var first map[string]metric
	for i := 0; i < 2; i++ {
		code, res, out := invoke(t, "--workload", "monitor", "--seed", "5", "--seconds", "1", "--trace", "1")
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, out)
		}
		if first == nil {
			first = res.Metrics
			continue
		}
		for _, name := range names {
			if res.Metrics[name] != first[name] {
				t.Errorf("%s: %v then %v", name, first[name].Value, res.Metrics[name].Value)
			}
		}
	}
}
