package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/lang"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// gridConfig is one point of the differential grid: a matcher and
// whether the program is built by compile.CompileReference, which leaves
// every expression on the tree walker instead of the bytecode VM.
type gridConfig struct {
	name      string
	factory   match.Factory
	reference bool
}

// program compiles src for the configuration.
func (c gridConfig) program(t *testing.T, src string) *compile.Program {
	t.Helper()
	compileFn := compile.Compile
	if c.reference {
		compileFn = compile.CompileReference
	}
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compileFn(ast)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// matcherConfigs is the {RETE, TREAT} × {index on, index off} ×
// {bytecode, reference} grid the differential tests sweep. Results must
// be bit-identical across all eight: the hash-join indexes, the compact
// instantiation keys and the bytecode compilation of expressions are
// pure optimizations.
var matcherConfigs = []gridConfig{
	{"rete-indexed-bytecode", rete.Factory(rete.Options{}), false},
	{"rete-indexed-reference", rete.Factory(rete.Options{}), true},
	{"rete-noindex-bytecode", rete.Factory(rete.Options{DisableJoinIndex: true}), false},
	{"rete-noindex-reference", rete.Factory(rete.Options{DisableJoinIndex: true}), true},
	{"treat-indexed-bytecode", treat.Factory(treat.Options{}), false},
	{"treat-indexed-reference", treat.Factory(treat.Options{}), true},
	{"treat-noindex-bytecode", treat.Factory(treat.Options{DisableJoinIndex: true}), false},
	{"treat-noindex-reference", treat.Factory(treat.Options{DisableJoinIndex: true}), true},
}

// firingTracer records the per-cycle rule-firing sequence (RuleFired
// calls arrive in name order within each committed cycle, so identical
// executions yield identical sequences).
type firingTracer struct {
	cycle  int
	firing []string
}

func (f *firingTracer) CycleStart(n int)                   { f.cycle = n }
func (f *firingTracer) PhaseEnd(core.Phase, time.Duration) {}
func (f *firingTracer) InstantiationsFound(int, int)       {}
func (f *firingTracer) Redacted(int, int, int)             {}
func (f *firingTracer) RuleFired(rule string, count int) {
	f.firing = append(f.firing, fmt.Sprintf("%d:%s:%d", f.cycle, rule, count))
}
func (f *firingTracer) Commit(int, int, bool) {}

// outcome is everything an engine run must agree on across matchers.
type outcome struct {
	cycles, firings, redactions, conflicts int
	halted                                 bool
	wm                                     []string
	firing                                 []string // "cycle:rule:count" sequence
}

// runOutcome runs the named embedded program to quiescence on workers
// workers under one grid configuration, using the from-scratch redactor
// if asked.
func runOutcome(t *testing.T, name string, load func(workload.Inserter) error, cfg gridConfig, workers int, fromScratch bool) outcome {
	t.Helper()
	src, err := programs.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := &firingTracer{}
	e := core.New(cfg.program(t, src), core.Options{Workers: workers, MaxCycles: 1 << 20, Matcher: cfg.factory, Tracer: tr})
	if fromScratch {
		core.UseFromScratchRedaction(e)
	}
	if err := load(e); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Memory().Snapshot()
	facts := make([]string, len(snap))
	for i, w := range snap {
		facts[i] = w.String()
	}
	sort.Strings(facts)
	return outcome{
		cycles:     res.Cycles,
		firings:    res.Firings,
		redactions: res.Redactions,
		conflicts:  res.WriteConflicts,
		halted:     res.Halted,
		wm:         facts,
		firing:     tr.firing,
	}
}

func diffOutcomes(t *testing.T, name string, want, got outcome) {
	t.Helper()
	if want.cycles != got.cycles || want.firings != got.firings ||
		want.redactions != got.redactions || want.conflicts != got.conflicts ||
		want.halted != got.halted {
		t.Fatalf("%s: result diverged: want {cycles %d firings %d redactions %d conflicts %d halted %v}, got {cycles %d firings %d redactions %d conflicts %d halted %v}",
			name, want.cycles, want.firings, want.redactions, want.conflicts, want.halted,
			got.cycles, got.firings, got.redactions, got.conflicts, got.halted)
	}
	if len(want.wm) != len(got.wm) {
		t.Fatalf("%s: final working memory size %d, want %d", name, len(got.wm), len(want.wm))
	}
	for i := range want.wm {
		if want.wm[i] != got.wm[i] {
			t.Fatalf("%s: final working memory differs at %d: %q vs %q", name, i, got.wm[i], want.wm[i])
		}
	}
	if len(want.firing) != len(got.firing) {
		t.Fatalf("%s: firing sequence length %d, want %d", name, len(got.firing), len(want.firing))
	}
	for i := range want.firing {
		if want.firing[i] != got.firing[i] {
			t.Fatalf("%s: firing sequence differs at %d: %q vs %q", name, i, got.firing[i], want.firing[i])
		}
	}
}

// TestMatcherDifferentialEmbeddedPrograms runs every embedded program to
// quiescence under all eight configurations and requires identical cycle
// counts, firings, redactions, write conflicts, halt status, final
// working-memory contents and per-cycle firing sequences.
func TestMatcherDifferentialEmbeddedPrograms(t *testing.T) {
	for _, tc := range embeddedCases {
		tc := tc
		t.Run(tc.prog, func(t *testing.T) {
			base := runOutcome(t, tc.prog, tc.load, matcherConfigs[0], 2, false)
			for _, cfg := range matcherConfigs[1:] {
				diffOutcomes(t, cfg.name, base, runOutcome(t, tc.prog, tc.load, cfg, 2, false))
			}
		})
	}
}

// embeddedCases load every embedded program with a small workload.
var embeddedCases = []struct {
	prog string
	load func(workload.Inserter) error
}{
	{programs.Quickstart, func(i workload.Inserter) error { return workload.People(i, 10) }},
	{programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 25, 18, 1) }},
	{programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, 8) }},
	{programs.Closure, func(i workload.Inserter) error { return workload.LayeredDAG(i, 4, 4, 2, 1) }},
	{programs.Manners, func(i workload.Inserter) error { return workload.Manners(i, 10, 2, 4, 1) }},
	{programs.Life, func(i workload.Inserter) error {
		return workload.LifeGrid(i, 6, 6, workload.LifeRandom(6, 6, 0.4, 3), 3)
	}},
	{programs.Circuit, func(i workload.Inserter) error {
		return workload.GenCircuit(6, 8, true, 1).Insert(i)
	}},
}

// TestIncrementalRedactionMatchesFromScratch runs every embedded program
// under every grid configuration and worker count, and requires each run
// to reproduce, byte for byte, the run whose redactor recomputes every
// cycle from scratch. A larger alexsys input crosses the threshold at
// which redaction passes stripe across workers.
func TestIncrementalRedactionMatchesFromScratch(t *testing.T) {
	cases := append(embeddedCases[:len(embeddedCases):len(embeddedCases)], embeddedCases[1])
	cases[len(cases)-1].load = func(i workload.Inserter) error { return workload.Alexsys(i, 60, 50, 7) }
	for _, tc := range cases {
		tc := tc
		t.Run(tc.prog, func(t *testing.T) {
			ref := runOutcome(t, tc.prog, tc.load, matcherConfigs[0], 1, true)
			for _, cfg := range matcherConfigs {
				for _, workers := range []int{1, 2, 4} {
					got := runOutcome(t, tc.prog, tc.load, cfg, workers, false)
					diffOutcomes(t, fmt.Sprintf("%s w=%d", cfg.name, workers), ref, got)
				}
			}
		})
	}
}

// filteredJoinChain is the E4 join chain with a `(test …)` filter on
// every element, so the matcher-direct sweep also exercises the eval
// dimension of the grid (filters run per join candidate).
func filteredJoinChain(depth int) string {
	var b strings.Builder
	b.WriteString("(literalize rec seg key val)\n")
	b.WriteString("(literalize out key)\n")
	b.WriteString("(rule deep\n")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "  (rec ^seg %d ^key <k> ^val <v%d>)\n", i, i)
		fmt.Fprintf(&b, "  (test (>= (+ <v%d> <k>) 0))\n", i)
	}
	b.WriteString("-->\n  (make out ^key <k>))\n")
	return b.String()
}

// TestMatcherDifferentialGeneratedJoinChains sweeps generated deep-join
// workloads (the E4 shapes, with per-element filters) through the same
// eight-way grid. These chains are where the beta index matters most, so
// a probe/scan disagreement would surface here first.
func TestMatcherDifferentialGeneratedJoinChains(t *testing.T) {
	for _, depth := range []int{2, 4, 6} {
		depth := depth
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			facts := workload.JoinChainFacts(10, depth, 2, 1)

			// Drive the matchers directly (the join-chain program has no
			// actions): build up, then churn, comparing conflict sets after
			// every delta. Each configuration compiles its own program, so
			// each gets its own memory; identical histories give identical
			// time tags and so comparable instantiation keys.
			runs := make([]*chainRun, len(matcherConfigs))
			for i, cfg := range matcherConfigs {
				prog := cfg.program(t, filteredJoinChain(depth))
				runs[i] = &chainRun{
					mem:  wm.NewMemory(prog.Schema),
					tmpl: prog.Schema.MustLookup("rec"),
					m:    cfg.factory(prog.Rules),
				}
			}
			check := func(step string) {
				t.Helper()
				base := matchtestKeys(runs[0].m.ConflictSet())
				for i, r := range runs[1:] {
					got := matchtestKeys(r.m.ConflictSet())
					if len(base) != len(got) {
						t.Fatalf("%s: %s: conflict set size %d, want %d",
							step, matcherConfigs[i+1].name, len(got), len(base))
					}
					for j := range base {
						if base[j] != got[j] {
							t.Fatalf("%s: %s: conflict sets differ at %d: %s vs %s",
								step, matcherConfigs[i+1].name, j, got[j], base[j])
						}
					}
				}
			}
			for k, fields := range facts {
				for _, r := range runs {
					vec := make([]wm.Value, r.tmpl.Arity())
					for attr, v := range fields {
						idx, _ := r.tmpl.AttrIndex(attr)
						vec[idx] = v
					}
					w := r.mem.InsertFields(r.tmpl, vec)
					r.wmes = append(r.wmes, w)
					r.m.Apply(wm.Delta{Added: []*wm.WME{w}})
				}
				if k%13 == 0 {
					check(fmt.Sprintf("build %d", k))
				}
			}
			check("built")
			for i := 0; i < len(facts); i += 5 {
				for _, r := range runs {
					old := r.wmes[i]
					r.mem.Remove(old.Time)
					nw := r.mem.InsertFields(old.Tmpl, old.Fields)
					r.m.Apply(wm.Delta{Removed: []*wm.WME{old}, Added: []*wm.WME{nw}})
					r.wmes[i] = nw
				}
				check(fmt.Sprintf("churn %d", i))
			}
		})
	}
}

// chainRun is one grid configuration's matcher over its own memory.
type chainRun struct {
	mem  *wm.Memory
	tmpl *wm.Template
	m    match.Matcher
	wmes []*wm.WME
}

func matchtestKeys(ins []*match.Instantiation) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.KeyString()
	}
	return out
}
