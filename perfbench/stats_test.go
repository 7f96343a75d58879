package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected cut points are what Python's statistics.quantiles(d, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2.5, 7.25}, 1.3125, 4.875, 8.4375},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // descending, so sorting matters
	}
	return out
}

// tailOf's rule: the highest percentile (at most p99) that leaves at
// least ten samples beyond it, never below the median.
func TestTailOfLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{10000, 99, 9900},
		{1000, 99, 990},
		{100, 90, 90},
		{30, 100 * 20.0 / 30, 20},
		{20, 50, 10},
		{15, 50, 8}, // too few for any tail: the median
		{1, 50, 1},
	} {
		xs := seq(c.n)
		pct, v := tailOf(xs)
		if !near(pct, c.pct) || !near(v, c.want) {
			t.Errorf("n=%d: tailOf = p%v %v, want p%v %v", c.n, pct, v, c.pct, c.want)
		}
		if c.n >= 20 {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
			}
		}
	}
	if p, v := tailOf(nil); p != 0 || v != 0 {
		t.Errorf("tailOf(nil) = %v %v", p, v)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	for _, c := range []struct{ p, want float64 }{{50, 100}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestClassifyCountsEveryNon2xxAsFailure(t *testing.T) {
	for _, c := range []struct {
		status int
		err    error
		want   outcome
	}{
		{200, nil, outcomeOK},
		{201, nil, outcomeOK},
		{429, nil, outcomeRefused},
		{500, nil, outcomeServerErr},
		{503, nil, outcomeServerErr},
		{504, nil, outcomeServerErr},
		{400, nil, outcomeClientErr},
		{404, nil, outcomeClientErr},
		{0, errors.New("connection reset"), outcomeTransport},
		{200, errors.New("body cut short"), outcomeTransport},
	} {
		if got := classify(c.status, c.err); got != c.want {
			t.Errorf("classify(%d, %v) = %v, want %v", c.status, c.err, got, c.want)
		}
	}
}

func TestReconcileRemainders(t *testing.T) {
	r, err := reconcile(100*time.Millisecond, 90*time.Millisecond, 70*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.Loop != 10*time.Millisecond || r.Other != 20*time.Millisecond {
		t.Errorf("loop %v other %v, want 10ms 20ms", r.Loop, r.Other)
	}
	if r.Loop+r.Other+r.Phases != r.Wall {
		t.Errorf("parts %v+%v+%v do not add up to wall %v", r.Loop, r.Other, r.Phases, r.Wall)
	}
	if _, err := reconcile(90, 100, 50); err == nil {
		t.Error("steps longer than the run were accepted")
	}
	if _, err := reconcile(100, 90, 95); err == nil {
		t.Error("phases longer than the steps were accepted")
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "step", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "step", Start: 20, End: 50}, // overlaps the first
		{ID: 4, Parent: 1, Name: "step", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "match", Start: 60, End: 80}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"run": 50, "step": 20 + 30 + 0, "match": 20}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
}

func TestGroupMediansAndPairedRatio(t *testing.T) {
	xs := []float64{1, 3, 10, 20, 30}
	group := []int{0, 0, 1, 1, 1}
	if got := meanOfGroupMedians(xs, group); !near(got, (2+20)/2.0) {
		t.Errorf("meanOfGroupMedians = %v, want 11", got)
	}
	traced := []float64{2.2, 22}
	untraced := []float64{2, 20, 99}
	if got := pairedRatio(traced, []int{0, 1}, untraced, []int{0, 1, 2}); !near(got, 1.1) {
		t.Errorf("pairedRatio = %v, want 1.1 (group 2 has no traced run)", got)
	}
}

func TestWorkerBalance(t *testing.T) {
	if got := workerBalance([]time.Duration{3, 1}, []time.Duration{1, 1}); !near(got, 1.5) {
		t.Errorf("workerBalance = %v, want 1.5", got)
	}
	if got := workerBalance([]time.Duration{0}, []time.Duration{0}); got != 1 {
		t.Errorf("idle workerBalance = %v, want 1", got)
	}
}

func TestParseServerTiming(t *testing.T) {
	got, err := parseServerTiming("session;dur=0.002, queue;dur=0.000, wal;dur=0.219, fsync;dur=0.200, run;dur=1.5")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"session": 0.002, "queue": 0, "wal": 0.219, "fsync": 0.2, "run": 1.5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if got, err := parseServerTiming(""); err != nil || len(got) != 0 {
		t.Errorf("empty header: %v %v", got, err)
	}
	if _, err := parseServerTiming("run;dur=abc"); err == nil {
		t.Error("a malformed duration was accepted")
	}
}

// Nested stages must not be counted twice in server.http_other_ms.
func TestTopLevelSkipsNestedStages(t *testing.T) {
	run := map[string]float64{"session": 0.1, "queue": 0.2, "run": 2, "wal": 0.5, "fsync": 0.4}
	if got := topLevel(run); !near(got, 2.1) {
		t.Errorf("run request: %v, want 2.1", got)
	}
	write := map[string]float64{"session": 0.1, "wal": 0.5, "fsync": 0.4}
	if got := topLevel(write); !near(got, 0.6) {
		t.Errorf("write request: %v, want 0.6", got)
	}
}

// BENCHMARK.json and the tables the benchmark prints must name the same
// metrics with the same units and directions.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEndDefs)
	compare("per_layer", doc.PerLayer, perLayerDefs)
	known := map[string]bool{"alloc-serve": true}
	for name := range batchSpecs {
		known[name] = true
	}
	for _, w := range doc.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs", w.Name)
		}
	}
	if len(doc.Workloads) != len(known) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(known))
	}
}
