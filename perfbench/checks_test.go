package main

import (
	"math"
	"strings"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/programs"
	"parulel/internal/wm"
)

// heldOutSeed is not among the seeds the benchmark was tuned on.
const heldOutSeed = 9001

func compileBuiltin(t *testing.T, name string) *compile.Program {
	t.Helper()
	prog, err := programs.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// Every output check must pass on a seed the benchmark was not tuned on,
// traced and untraced; the counts themselves may differ from other seeds.
func TestHeldOutSeedPassesBatchChecks(t *testing.T) {
	for name, spec := range batchSpecs {
		t.Run(name, func(t *testing.T) {
			prog := compileBuiltin(t, spec.program)
			facts, err := spec.gen(caseSeeds(heldOutSeed)[0])
			if err != nil {
				t.Fatal(err)
			}
			ref, err := reference(prog, facts)
			if err != nil {
				t.Fatal(err)
			}
			m := &measurements{}
			eng, got, err := timedBatchRun(prog, 0, facts, m, true)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Errorf("2 workers: %+v, 1-worker reference %+v", got, ref)
			}
			if spec.check != nil {
				if err := spec.check(eng.Memory()); err != nil {
					t.Error(err)
				}
			}
			eng, got, err = tracedBatchRun(prog, 0, facts, newRecorder(), m)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Errorf("traced: %+v, 1-worker reference %+v", got, ref)
			}
			v := m.layers[0].vals
			known := map[string]bool{}
			for _, d := range perLayerDefs {
				known[d.name] = true
			}
			for k := range v {
				if !known[k] {
					t.Errorf("traced run reports %q, which is not a per-layer metric", k)
				}
			}
			parts := v["engine.loop_ms"] + v["match.ms"] + v["redact.ms"] + v["fire.ms"] + v["apply.ms"] + v["engine.other_ms"]
			if math.Abs(parts-v["run.wall_ms"]) > 1e-6 {
				t.Errorf("traced run does not reconcile: parts %v ms, wall %v ms", parts, v["run.wall_ms"])
			}
			if v["engine.cycles"] != float64(ref.Cycles) || v["fire.firings"] != float64(ref.Firings) || v["redact.killed"] != float64(ref.Redactions) {
				t.Errorf("tracer counted %v cycles, %v firings, %v redactions; reference %+v",
					v["engine.cycles"], v["fire.firings"], v["redact.killed"], ref)
			}
			if len(m.write) != 1 || len(m.run) != 1 || len(m.read) != 1 || len(m.layers) != 1 {
				t.Errorf("samples: %d writes, %d runs, %d reads, %d traced", len(m.write), len(m.run), len(m.read), len(m.layers))
			}
		})
	}
}

func TestAllocationCheckCatchesViolations(t *testing.T) {
	prog := compileBuiltin(t, programs.Alexsys)
	mem := func(facts ...fact) *wm.Memory {
		eng := core.New(prog, core.Options{})
		if err := load(eng, facts); err != nil {
			t.Fatal(err)
		}
		return eng.Memory()
	}
	pool := func(id, amount int64, status string, owner wm.Value) fact {
		return fact{"pool", map[string]wm.Value{"id": wm.Int(id), "amount": wm.Int(amount), "status": wm.Sym(status), "owner": owner}}
	}
	order := func(id, lo, hi int64, filled string, p wm.Value) fact {
		return fact{"order", map[string]wm.Value{"id": wm.Int(id), "lo": wm.Int(lo), "hi": wm.Int(hi), "filled": wm.Sym(filled), "pool": p}}
	}
	for _, c := range []struct {
		name  string
		mem   *wm.Memory
		fault string // "" when the state is valid
	}{
		{"valid", mem(pool(1, 50, "sold", wm.Int(7)), order(7, 40, 60, "yes", wm.Int(1)), pool(2, 5, "free", wm.Nil())), ""},
		{"free pool fits open order", mem(pool(1, 50, "free", wm.Nil()), order(7, 40, 60, "no", wm.Nil())), "fits unfilled order"},
		{"sold outside window", mem(pool(1, 90, "sold", wm.Int(7)), order(7, 40, 60, "yes", wm.Int(1))), "does not hold it"},
		{"order names another pool", mem(pool(1, 50, "sold", wm.Int(7)), order(7, 40, 60, "yes", wm.Int(2))), "does not hold it"},
	} {
		err := checkAllocation(c.mem)
		switch {
		case c.fault == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.fault != "" && (err == nil || !strings.Contains(err.Error(), c.fault)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.fault)
		}
	}
}

func TestHeldOutSeedPassesServeChecks(t *testing.T) {
	for _, trace := range []bool{false, true} {
		m, err := runServe(config{workload: "alloc-serve", seed: heldOutSeed, seconds: 1, trace: trace, work: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if m.failed != 0 || m.attempted == 0 {
			t.Fatalf("trace=%v: %d of %d operations failed: %v", trace, m.failed, m.attempted, m.failures)
		}
		if !trace {
			continue
		}
		vals := m.perLayer()
		for _, name := range []string{"server.run_p50_ms", "wal.fsyncs", "wm.resident_facts", "trace_overhead"} {
			if vals[name] <= 0 {
				t.Errorf("%s = %v, want > 0", name, vals[name])
			}
		}
		if vals["engine.other_ms"] < 0 || vals["server.http_other_ms"] < 0 {
			t.Errorf("negative remainder: engine.other_ms %v, server.http_other_ms %v",
				vals["engine.other_ms"], vals["server.http_other_ms"])
		}
	}
}
