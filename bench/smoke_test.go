package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
)

// toySize runs the real workloads on graphs small enough for a test: the
// same code, the same metrics, no claim about the numbers.
var toySize = sizing{
	cold:           graphSpec{"toy-cold", 5_000, 10},
	mid:            graphSpec{"toy-mid", 5_000, 10},
	churn:          graphSpec{"toy-churn", 1_000, 4},
	hotSet:         128,
	coldWarm:       16,
	batchSeeds:     8,
	churnEdges:     50,
	setups:         2,
	minCompactions: 8,
	coldRate:       1000,
	hotRate:        1500,
	readRate:       50,
	triadBytes:     48 << 20,
}

// TestSmokeEveryMetricOfTheContract runs all four workloads, measured and
// traced, against a freshly built tpad and checks that every metric
// BENCHMARK.json names comes out, in the unit it names: the schema later
// changes are judged by cannot rot unnoticed.
func TestSmokeEveryMetricOfTheContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tpad")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tpad := filepath.Join(dir, "tpad")
	if out, err := exec.Command("go", "build", "-o", tpad, "tpa/cmd/tpad").CombinedOutput(); err != nil {
		t.Fatalf("building tpad: %v\n%s", err, out)
	}
	b := &bench{spec: sp, tpad: tpad, work: dir, out: dir, seconds: 1, sz: toySize}
	all := workloads(b.sz)
	if len(all) != len(sp.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json names %d", len(all), len(sp.Workloads))
	}
	for i, w := range all {
		if w.name != sp.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, sp.Workloads[i].Name)
		}
		res, err := b.runOne(context.Background(), w, 3, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, p := range res.Problems {
			t.Errorf("%s: %s", w.name, p)
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		for _, trace := range []bool{false, true} {
			if _, err := res.driverLine(sp, trace); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
		for name, v := range res.EndToEnd {
			if v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
			}
		}
	}
}
