package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json lists the same names and units,
// and a test holds the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are measured with tracing off and are defined on every
// workload. A batch "write" builds an engine and loads the generated
// facts, its "run" runs it to quiescence and its "read" copies working
// memory back out; for alloc-serve these are the HTTP operations of the
// same names.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"write_p50_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
}

// perLayerDefs come from the traced run. A layer a workload does not
// exercise, or whose numbers its public hooks do not expose, reports 0;
// the printed summary marks those n/a.
var perLayerDefs = []metricDef{
	{"compile.parse_ms", "ms", "lower"},
	{"compile.compile_ms", "ms", "lower"},
	{"run.wall_ms", "ms", "lower"},
	{"engine.loop_ms", "ms", "lower"},
	{"engine.step_ms", "ms", "lower"},
	{"match.ms", "ms", "lower"},
	{"redact.ms", "ms", "lower"},
	{"fire.ms", "ms", "lower"},
	{"apply.ms", "ms", "lower"},
	{"engine.other_ms", "ms", "lower"},
	{"match.apply_ms", "ms", "lower"},
	{"match.apply_calls", "count", "lower"},
	{"match.insts_added", "count", "lower"},
	{"match.insts_removed", "count", "lower"},
	{"match.alpha_items", "count", "lower"},
	{"match.beta_tokens", "count", "lower"},
	{"redact.eligible", "count", "lower"},
	{"redact.killed", "count", "lower"},
	{"redact.rounds", "count", "lower"},
	{"redact.fire_ratio", "ratio", "higher"},
	{"redact.us_per_eligible", "us", "lower"},
	{"fire.firings", "count", "lower"},
	{"apply.delta_wmes", "count", "lower"},
	{"apply.write_conflicts", "count", "lower"},
	{"engine.cycles", "count", "lower"},
	{"engine.cycle_p50_ms", "ms", "lower"},
	{"engine.cycle_max_ms", "ms", "lower"},
	{"engine.worker_balance", "ratio", "higher"},
	{"runtime.alloc_mb", "MiB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.heap_growth_mb_per_kiter", "MiB", "lower"},
	{"server.session_wait_p50_ms", "ms", "lower"},
	{"server.session_wait_p99_ms", "ms", "lower"},
	{"server.queue_wait_p50_ms", "ms", "lower"},
	{"server.queue_wait_p99_ms", "ms", "lower"},
	{"server.run_p50_ms", "ms", "lower"},
	{"server.run_p99_ms", "ms", "lower"},
	{"server.http_other_ms", "ms", "lower"},
	{"server.run_queue_ms", "ms", "lower"},
	{"server.run_wal_ms", "ms", "lower"},
	{"wal.append_p50_ms", "ms", "lower"},
	{"wal.append_p99_ms", "ms", "lower"},
	{"wal.fsync_p50_ms", "ms", "lower"},
	{"wal.fsync_p99_ms", "ms", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.appends_per_fsync", "ratio", "higher"},
	{"wal.bytes_per_op", "B", "lower"},
	{"checkpoint.count", "count", "lower"},
	{"checkpoint.ms_total", "ms", "lower"},
	{"wm.resident_facts", "count", "lower"},
	{"trace_overhead", "ratio", "lower"},
}

// layerSample is one traced batch run: its per-layer values by metric
// name, and the wall time of each of its steps.
type layerSample struct {
	vals  map[string]float64
	steps []time.Duration
}

// measurements is everything one benchmark run collects.
type measurements struct {
	setup          []float64 // s per set-up
	parse, compile []float64 // ms per set-up
	run, write     []float64 // ms per operation
	read           []float64 // ms per operation
	cpu            []float64 // s per batch iteration
	// sliced holds end-to-end values alloc-serve computes itself as
	// medians over slices of its window; they replace the whole-run ones.
	sliced map[string]float64
	// group labels each batch sample of run and cpu with the generated
	// input it ran; nil for alloc-serve.
	group         []int
	busy          time.Duration // batch: Σ write+run+read wall
	ops           int
	liveHeapMB    float64
	untracedRun   []float64 // s, trace mode only
	untracedGroup []int
	tracedRun     []float64 // s, trace mode only
	tracedGroup   []int
	layers        []layerSample
	serve         *serveLayers
	rec           *recorder
	attempted     int
	failed        int
	failures      []string
	notes         []string
}

// fail records one failed operation or output check.
func (m *measurements) fail(err error) {
	m.failed++
	if len(m.failures) < 10 {
		m.failures = append(m.failures, err.Error())
	}
}

func (m *measurements) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// typical is a series' central value: the median, or for batch samples
// the mean of the per-input medians.
func (m *measurements) typical(xs []float64, group []int) float64 {
	if group == nil {
		return median(xs)
	}
	return meanOfGroupMedians(xs, group)
}

// endToEnd computes the untraced metrics. Batch writes and reads have
// the same size for every input, so their plain median is used.
func (m *measurements) endToEnd() map[string]float64 {
	out := map[string]float64{
		"setup_s":      median(m.setup),
		"run_s":        m.typical(m.run, m.group) / 1000,
		"cpu_s":        m.typical(m.cpu, m.group),
		"live_heap_mb": m.liveHeapMB,
		"write_p50_ms": median(m.write),
		"read_p50_ms":  median(m.read),
	}
	if m.busy > 0 {
		out["ops_per_s"] = float64(m.ops) / m.busy.Seconds()
	}
	for k, v := range m.sliced {
		out[k] = v
	}
	return out
}

// perLayer computes the traced metrics. Batch reconciliation parts are
// means per run, so they add up to the mean run wall exactly.
func (m *measurements) perLayer() map[string]float64 {
	out := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.name] = 0
	}
	out["compile.parse_ms"] = median(m.parse)
	out["compile.compile_ms"] = median(m.compile)
	if m.untracedGroup != nil {
		out["trace_overhead"] = pairedRatio(m.tracedRun, m.tracedGroup, m.untracedRun, m.untracedGroup)
	} else if u := median(m.untracedRun); u > 0 {
		out["trace_overhead"] = median(m.tracedRun) / u
	}
	if n := float64(len(m.layers)); n > 0 {
		for _, l := range m.layers {
			for k, v := range l.vals {
				out[k] += v / n
			}
		}
		if e := out["redact.eligible"]; e > 0 {
			out["redact.fire_ratio"] = out["fire.firings"] / e
			out["redact.us_per_eligible"] = out["redact.ms"] * 1000 / e
		}
		var cycles []float64
		for _, l := range m.layers {
			for _, s := range l.steps {
				cycles = append(cycles, ms(s))
			}
		}
		out["engine.cycle_p50_ms"] = median(cycles)
		if len(cycles) > 0 {
			out["engine.cycle_max_ms"] = sortedCopy(cycles)[len(cycles)-1]
		}
	}
	if m.serve != nil {
		m.serve.fill(out)
	}
	return out
}

// toResult packages values by the given table.
func toResult(m *measurements, defs []metricDef, vals map[string]float64) result {
	r := result{
		Correct:   m.failed == 0,
		Attempted: max(m.attempted, 1),
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return r
}

// printSummary writes the human-readable report that precedes the result
// line: environment, checks, every metric with its sample count, and for
// traced runs the per-layer reconciliation and span self times.
func printSummary(w io.Writer, cfg config, m *measurements, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# env: num_cpu=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, n := range m.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range m.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	errRate := float64(m.failed) / float64(max(m.attempted, 1))
	fmt.Fprintf(w, "%-28s %12.6f %-6s (%d failed of %d attempted)\n", "error_rate", errRate, "ratio", m.failed, m.attempted)
	if !cfg.trace {
		q1, _, q3 := quartiles(m.run)
		perInput := ""
		if m.group != nil {
			perInput = fmt.Sprintf(", mean of per-input medians over %d inputs", batchCases)
		}
		samples := map[string]string{
			"setup_s":      fmt.Sprintf("median of %d set-ups", len(m.setup)),
			"run_s":        fmt.Sprintf("%d runs%s; all runs q1 %.6f q3 %.6f", len(m.run), perInput, q1/1000, q3/1000),
			"cpu_s":        fmt.Sprintf("per run%s", perInput),
			"ops_per_s":    fmt.Sprintf("%d operations", m.ops),
			"write_p50_ms": fmt.Sprintf("%d writes", len(m.write)),
			"read_p50_ms":  fmt.Sprintf("%d reads", len(m.read)),
		}
		for _, d := range defs {
			fmt.Fprintf(w, "%-28s %12.6f %-6s %s\n", d.name, vals[d.name], d.unit, samples[d.name])
		}
		// Tails, which are printed but not gated.
		for _, x := range []struct {
			kind string
			xs   []float64
		}{{"run", m.run}, {"write", m.write}, {"read", m.read}} {
			p, v := tailOf(x.xs)
			name := x.kind + "_tail_ms"
			if p >= 99 {
				name = x.kind + "_p99_ms"
			}
			fmt.Fprintf(w, "%-28s %12.6f %-6s %s\n", name, v, "ms", tailNote(x.xs))
		}
		return
	}
	for _, d := range defs {
		v := vals[d.name]
		if v == 0 {
			fmt.Fprintf(w, "%-28s %12s %-6s\n", d.name, "n/a", d.unit)
			continue
		}
		fmt.Fprintf(w, "%-28s %12.6f %-6s\n", d.name, v, d.unit)
	}
	if m.serve != nil && m.serve.runs > 0 {
		fmt.Fprintf(w, "# reconciliation, mean of %d runs: server run %.3f ms = queue %.3f + wal %.3f + match %.3f + redact %.3f + fire %.3f + apply %.3f + other %.3f\n",
			m.serve.runs, vals["run.wall_ms"], vals["server.run_queue_ms"], vals["server.run_wal_ms"], vals["match.ms"],
			vals["redact.ms"], vals["fire.ms"], vals["apply.ms"], vals["engine.other_ms"])
	}
	if len(m.layers) > 0 {
		fmt.Fprintf(w, "# reconciliation, mean of %d traced runs: wall %.3f ms = loop %.3f + match %.3f + redact %.3f + fire %.3f + apply %.3f + other %.3f\n",
			len(m.layers), vals["run.wall_ms"], vals["engine.loop_ms"], vals["match.ms"], vals["redact.ms"],
			vals["fire.ms"], vals["apply.ms"], vals["engine.other_ms"])
	}
	if m.rec != nil {
		self := selfTimes(m.rec.spans)
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "# self time %-18s %12.3f ms total\n", n, ms(self[n]))
		}
	}
}

func tailNote(xs []float64) string {
	p, _ := tailOf(xs)
	return fmt.Sprintf("p%.1f of %d samples", p, len(xs))
}

func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB collects garbage and reports the heap still in use. The
// second collection empties the sync.Pool victim caches the first one
// only demoted.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return float64(s.HeapAlloc) / (1 << 20)
}
