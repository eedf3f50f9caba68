package adb

import (
	"testing"

	"ptlactive/internal/value"
)

// TestCommitAllocs is the allocation-regression gate for the commit hot
// path. BenchmarkCommit sat at 44 allocs/op when the gate landed
// (pooled key scratch, owned event sets, structurally-shared DBState);
// the ceiling keeps those wins from rotting silently — an accidental
// return to whole-map copying in history.DBState, or a new per-commit
// map, fails this test rather than only shifting a benchmark number.
// The workload mirrors BenchmarkCommit exactly: a two-item transaction
// against a small rule table of eight triggers and one constraint.
func TestCommitAllocs(t *testing.T) {
	e := NewEngine(Config{Initial: map[string]value.Value{
		"a": value.NewInt(0), "b": value.NewInt(0), "c": value.NewInt(0),
	}})
	items := []string{"a", "b", "c"}
	for i := 0; i < 8; i++ {
		name := "watch" + string(rune('0'+i))
		if err := e.AddTrigger(name, `item("`+items[i%3]+`") > 1000000`, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddConstraint("cap", `item("a") < 1000000`); err != nil {
		t.Fatal(err)
	}
	ts := int64(0)
	var failed error
	got := testing.AllocsPerRun(500, func() {
		ts++
		if err := e.Exec(ts, map[string]value.Value{
			"a": value.NewInt(ts % 1000),
			"b": value.NewInt(ts % 777),
		}); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if got > 44 {
		t.Fatalf("commit path: %.1f allocs/op, ceiling 44", got)
	}
}

// TestCommitAllocsAnyWorkers pins the commit path's allocation count
// independently of the machine's core count: TestCommitAllocs' table at
// explicit Workers 1, 2 and 8 must cost the same, within its ceiling. The
// rule-evaluation dispatch reuses parked helpers and per-engine scratch,
// so the worker count may change wall time but never the allocations. A
// three-constraint table covers checkConstraints' parallel path, which
// the one-constraint table never reaches; it is compared only across
// parallel worker counts, since the serial constraint loop catches each
// constraint up separately.
func TestCommitAllocsAnyWorkers(t *testing.T) {
	one := map[int]float64{}
	for _, w := range []int{1, 2, 8} {
		one[w] = commitAllocs(t, w, 1)
	}
	if one[1] > 44 || one[2] != one[1] || one[8] != one[1] {
		t.Fatalf("one-constraint commit path: %v allocs/op by Workers, want equal and ≤44", one)
	}
	three := map[int]float64{}
	for _, w := range []int{2, 8} {
		three[w] = commitAllocs(t, w, 3)
	}
	t.Logf("allocs/op by Workers: one constraint %v, three constraints %v", one, three)
	if three[8] != three[2] {
		t.Fatalf("three-constraint commit path: %v allocs/op by Workers, want equal", three)
	}
}

// commitAllocs measures allocs per commit on TestCommitAllocs' workload —
// eight triggers and a two-item transaction — with the given worker count
// and number of (never violated) constraints.
func commitAllocs(t *testing.T, workers, constraints int) float64 {
	t.Helper()
	e := NewEngine(Config{Workers: workers, Initial: map[string]value.Value{
		"a": value.NewInt(0), "b": value.NewInt(0), "c": value.NewInt(0),
	}})
	items := []string{"a", "b", "c"}
	for i := 0; i < 8; i++ {
		name := "watch" + string(rune('0'+i))
		if err := e.AddTrigger(name, `item("`+items[i%3]+`") > 1000000`, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < constraints; i++ {
		name := "cap" + string(rune('0'+i))
		if err := e.AddConstraint(name, `item("`+items[i%3]+`") < 1000000`); err != nil {
			t.Fatal(err)
		}
	}
	ts := int64(0)
	var failed error
	got := testing.AllocsPerRun(500, func() {
		ts++
		if err := e.Exec(ts, map[string]value.Value{
			"a": value.NewInt(ts % 1000),
			"b": value.NewInt(ts % 777),
		}); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	return got
}
