package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/lang"
	"parulel/internal/match/rete"
	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// E13 — expression-backend ablation: the bytecode register VM vs the
// tree-walking interpreter on the expressions of real workloads (waltz's
// junction arithmetic, circuit's threshold tests, a filter-heavy join
// chain). Each workload is compiled twice: by compile.Compile, whose
// call-rooted expressions carry bytecode, and by compile.CompileReference,
// whose expressions all run on the tree walker.
//
// Two measurements per workload:
//
//   - eval-only: every call expression of each compiled program
//     (alpha/join filters, RHS action expressions, meta tests) evaluated
//     repeatedly against a deterministic binding environment. Leaf roots
//     (bare refs and constants) are excluded: lowering leaves them on the
//     tree walker in both programs by design, so they dilute the measured
//     delta to noise without informing it. This isolates the backend the
//     ablation changes; the speedup column is the headline number.
//   - full run: engine wall time of each program. Match dominates these
//     workloads, so the end-to-end delta is small by Amdahl — reported to
//     keep the component number honest.

// filteredChainProgram is the E4 join chain with a `(test …)` filter on
// every condition element, so join evaluation exercises the expression
// backend on each candidate rather than only equality tests.
func filteredChainProgram(depth int) string {
	var b strings.Builder
	b.WriteString("(literalize rec seg key val)\n")
	b.WriteString("(literalize out key)\n")
	b.WriteString("(rule deep\n")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "  (rec ^seg %d ^key <k> ^val <v%d>)\n", i, i)
		fmt.Fprintf(&b, "  (test (and (>= <v%d> 0) (< (+ <v%d> (* <k> 2)) 100000)))\n", i, i)
	}
	b.WriteString("-->\n  (make out ^key <k>))\n")
	return b.String()
}

// evalBenchEnv is a deterministic compile.Env for the eval-only
// measurement: every reference resolves to a small positive integer, so
// arithmetic, comparisons and symcat all take their non-error paths.
type evalBenchEnv struct{}

func (evalBenchEnv) Ref(r compile.VarRef) wm.Value {
	return wm.Int(int64((7*r.CE+3*r.Field+11)%13 + 1))
}
func (evalBenchEnv) Local(i int) wm.Value { return wm.Int(int64(i%13 + 1)) }
func (evalBenchEnv) MetaVal(pat int, r compile.VarRef) wm.Value {
	return wm.Int(int64((5*pat+7*r.CE+3*r.Field)%13 + 1))
}
func (evalBenchEnv) MetaTag(pat int) int64           { return int64(pat*10 + 3) }
func (evalBenchEnv) MetaRuleName(pat int) string     { return fmt.Sprintf("rule%d", pat) }
func (evalBenchEnv) MetaPrecedes(pat, pat2 int) bool { return pat < pat2 }

// collectExprs walks every call expression the compiler lowered:
// condition filters, RHS action expressions, and meta-rule tests. Leaf
// roots are skipped — both programs run them through the same tree-walker
// switch arm, so they carry no signal about the ablation.
func collectExprs(p *compile.Program) []*compile.Expr {
	var out []*compile.Expr
	add := func(xs ...*compile.Expr) {
		for _, x := range xs {
			if x.Kind == compile.ECall {
				out = append(out, x)
			}
		}
	}
	for _, r := range p.Rules {
		for _, ce := range r.CEs {
			add(ce.Filters...)
		}
		for _, a := range r.Actions {
			for _, s := range a.Slots {
				add(s.Expr)
			}
			add(a.Exprs...)
		}
	}
	for _, m := range p.MetaRules {
		add(m.Tests...)
	}
	return out
}

// evalPass evaluates every expression once, discarding values and errors
// (both backends agree on both).
func evalPass(exprs []*compile.Expr, env compile.Env) {
	for _, e := range exprs {
		compile.Eval(e, env) //nolint:errcheck // timing only
	}
}

// evalOnly times `passes` sweeps over the expression set and returns the
// best per-pass duration.
func evalOnly(exprs []*compile.Expr, passes, reps int) time.Duration {
	env := evalBenchEnv{}
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < passes; i++ {
			evalPass(exprs, env)
		}
		d := time.Since(start) / time.Duration(passes)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// evalSpec is one E13 workload: a parsed program plus an engine loader.
type evalSpec struct {
	name string
	ast  func() (*lang.Program, error)
	load loader
}

// program compiles the workload to bytecode, or with
// compile.CompileReference when reference is set.
func (s evalSpec) program(reference bool) (*compile.Program, error) {
	ast, err := s.ast()
	if err != nil {
		return nil, err
	}
	if reference {
		return compile.CompileReference(ast)
	}
	return compile.Compile(ast)
}

func evalSpecs(quick bool) []evalSpec {
	cubes, cw, cd, depth, keys, copies := 40, 16, 24, 6, 14, 2
	bw, bd, drv := 8, 8, 12
	if quick {
		cubes, cw, cd, depth, keys, copies = 10, 8, 10, 4, 8, 2
		bw, bd, drv = 4, 4, 8
	}
	chainSrc := filteredChainProgram(depth)
	return []evalSpec{
		{fmt.Sprintf("waltz(%d)", cubes),
			func() (*lang.Program, error) { return programs.AST(programs.Waltz) },
			func(i workload.Inserter) error { return workload.WaltzScene(i, cubes) }},
		{fmt.Sprintf("circuit(%dx%d)", cw, cd),
			func() (*lang.Program, error) { return programs.AST(programs.Circuit) },
			func(i workload.Inserter) error { return workload.GenCircuit(cw, cd, true, 1).Insert(i) }},
		{fmt.Sprintf("circuit-bus(%dx%d,d%d)", bw, bd, drv),
			func() (*lang.Program, error) { return programs.AST(programs.Circuit) },
			func(i workload.Inserter) error { return workload.GenBusCircuit(bw, bd, drv, 1).Insert(i) }},
		{fmt.Sprintf("joinchain(%d)", depth),
			func() (*lang.Program, error) { return lang.Parse(chainSrc) },
			func(i workload.Inserter) error {
				facts := workload.JoinChainFacts(keys, depth, copies, 1)
				for _, f := range facts {
					if _, err := i.Insert("rec", f); err != nil {
						return err
					}
				}
				return nil
			}},
	}
}

// evalLegs orders the ablation: the reference program (tree walker) is
// the baseline, the bytecode program the treatment.
var evalLegs = []struct {
	name      string
	reference bool
}{{"interp", true}, {"bytecode", false}}

// EvalResult is one workload row of the ablation.
type EvalResult struct {
	Workload string `json:"workload"`
	Exprs    int    `json:"exprs"` // call expressions in the compiled program
	// Eval-only: best per-pass time over the expression set.
	InterpEvalNS   int64   `json:"interp_eval_ns"`
	BytecodeEvalNS int64   `json:"bytecode_eval_ns"`
	EvalSpeedup    float64 `json:"eval_speedup"`
	// Full engine run under each backend (RETE, 4 workers).
	InterpWallNS   int64   `json:"interp_wall_ns"`
	BytecodeWallNS int64   `json:"bytecode_wall_ns"`
	RunSpeedup     float64 `json:"run_speedup"`
	Cycles         int     `json:"cycles"`
	Firings        int     `json:"firings"`
}

// EvalDoc is the E13 document merged into BENCH_*.json under "eval".
type EvalDoc struct {
	Schema      string       `json:"schema"` // "parulel-evalbench/v1"
	GeneratedAt string       `json:"generated_at"`
	NumCPU      int          `json:"num_cpu"`
	Quick       bool         `json:"quick"`
	Results     []EvalResult `json:"results"`
}

// RunEvalAblation measures the E13 grid and returns the document.
func RunEvalAblation(quick bool) (*EvalDoc, error) {
	doc := &EvalDoc{
		Schema:      "parulel-evalbench/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		NumCPU:      runtime.NumCPU(),
		Quick:       quick,
	}
	// Best-of-N on both measurements: single-run full-engine wall times
	// swing ±30% on a loaded 1-CPU host, so E13 takes more reps than the
	// throughput suite even under -quick.
	passes, runReps := 2000, 11
	if quick {
		passes, runReps = 400, 5
	}
	for _, spec := range evalSpecs(quick) {
		ref, err := spec.program(true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		prog, err := spec.program(false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		exprs := collectExprs(prog)
		row := EvalResult{Workload: spec.name, Exprs: len(exprs)}

		interpEval := evalOnly(collectExprs(ref), passes, reps(quick))
		bytecodeEval := evalOnly(exprs, passes, reps(quick))
		row.InterpEvalNS = interpEval.Nanoseconds()
		row.BytecodeEvalNS = bytecodeEval.Nanoseconds()
		if bytecodeEval > 0 {
			row.EvalSpeedup = float64(interpEval) / float64(bytecodeEval)
		}

		// Interleave the two backends rep by rep: back-to-back runs see the
		// same heap, GC debt and scheduler state, so the best-of comparison
		// is not biased by whichever leg happens to run second.
		best := make([]time.Duration, len(evalLegs))
		var lastRes core.Result
		for r := 0; r < runReps; r++ {
			for i, leg := range evalLegs {
				prog, err := spec.program(leg.reference)
				if err != nil {
					return nil, fmt.Errorf("%s [%s]: %w", spec.name, leg.name, err)
				}
				e := core.New(prog, core.Options{
					Workers:   4,
					MaxCycles: 1 << 20,
					Matcher:   rete.New,
				})
				if err := spec.load(e); err != nil {
					return nil, fmt.Errorf("%s [%s]: %w", spec.name, leg.name, err)
				}
				// Settle the heap so collection debt from the previous rep
				// lands here, not inside an arbitrary timed run.
				runtime.GC()
				start := time.Now()
				res, err := e.Run()
				if err != nil {
					return nil, fmt.Errorf("%s [%s]: %w", spec.name, leg.name, err)
				}
				d := time.Since(start)
				if best[i] == 0 || d < best[i] {
					best[i] = d
				}
				lastRes = res
			}
		}
		row.InterpWallNS = best[0].Nanoseconds()
		row.BytecodeWallNS = best[1].Nanoseconds()
		row.Cycles, row.Firings = lastRes.Cycles, lastRes.Firings
		if row.BytecodeWallNS > 0 {
			row.RunSpeedup = float64(row.InterpWallNS) / float64(row.BytecodeWallNS)
		}
		doc.Results = append(doc.Results, row)
	}
	return doc, nil
}

// E13 — Table 10 (ablation): bytecode VM vs tree-walking interpreter.
func E13(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "E13 (Table 10, ablation) — expression backend: bytecode VM vs tree walker")
	doc, err := RunEvalAblation(quick)
	if err != nil {
		return err
	}
	WriteEvalTable(w, doc)
	return nil
}

// WriteEvalTable renders the ablation document as the E13 table.
func WriteEvalTable(w io.Writer, doc *EvalDoc) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\texprs\teval-interp\teval-bytecode\teval-speedup\trun-interp\trun-bytecode\trun-speedup")
	for _, r := range doc.Results {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%.2fx\t%v\t%v\t%.2fx\n",
			r.Workload, r.Exprs,
			time.Duration(r.InterpEvalNS).Round(time.Nanosecond),
			time.Duration(r.BytecodeEvalNS).Round(time.Nanosecond),
			r.EvalSpeedup,
			time.Duration(r.InterpWallNS).Round(time.Microsecond),
			time.Duration(r.BytecodeWallNS).Round(time.Microsecond),
			r.RunSpeedup)
	}
	tw.Flush()
	fmt.Fprintf(w, "  num_cpu=%d; eval-only isolates the backend, full-run deltas are bounded by the eval share of the cycle\n", doc.NumCPU)
}

// MergeEvalJSON writes the ablation document into path under an "eval"
// key, preserving every other key of an existing BENCH_*.json ("-" =
// stdout, eval document only).
func MergeEvalJSON(path string, doc *EvalDoc) error {
	if path == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	merged := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &merged); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	merged["eval"] = doc
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
