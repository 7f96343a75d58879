package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"parulel/internal/compile"
	"parulel/internal/lang"
	"parulel/internal/match"
	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// syntheticMetaSrc holds meta-rule shapes the embedded programs lack:
// a 3-pattern tuple over a chain of equality joins, two redact targets
// with an unjoined (scanned) pattern, mutual redaction, inequality-only
// joins, a single-pattern meta-rule, two patterns of one rule with no
// test to keep an instantiation from pairing with itself, and constant,
// disjunction and intra-instantiation pattern tests.
const syntheticMetaSrc = `
(literalize a k v w)
(literalize b k v)
(rule ra (a ^k <k> ^v <v> ^w <w>) --> (halt))
(rule rb (b ^k <k> ^v <v>) --> (halt))
(rule rab (a ^k <k> ^v <v>) (b ^k <k> ^v <u>) --> (halt))
(metarule chain3
  [<i> (ra ^k <k> ^v <v>)]
  [<j> (rab ^k <k> ^u <v>)]
  [<l> (rb ^k <k>)]
  (test (< <v> 2))
-->
  (redact <l>))
(metarule two-targets
  [<i> (ra ^k <k> ^w 1)]
  [<j> (rab ^v <k>)]
  [<l> (rb ^v <x>)]
  (test (precedes <j> <l>))
-->
  (redact <i> <l>))
(metarule mutual
  [<i> (rb ^k <k> ^v <v1>)]
  [<j> (rb ^k <k> ^v <v2>)]
  (test (<> <v1> <v2>))
-->
  (redact <j>))
(metarule inequality-only
  [<i> (ra ^v <a> ^w <w>)]
  [<j> (ra ^v (> <a>) ^w (<> <w>))]
-->
  (redact <i>))
(metarule alone
  [<i> (rb ^v 3)]
-->
  (redact <i>))
(metarule untested
  [<i> (rb ^k <k>)]
  [<j> (rb ^k <k> ^v 0)]
-->
  (redact <i>))
(metarule alpha
  [<i> (rab ^k <k> ^v << 0 1 >> ^u <x>)]
  [<j> (ra ^k <k> ^v <y> ^w <y>)]
  (test (> (tag <j>) 0))
-->
  (redact <j>))
`

// fuzzPrograms are the programs FuzzIncrementalRedaction draws from:
// every embedded program that has meta-rules, then the synthetic one.
// refs holds the same programs built by compile.CompileReference, so
// their meta tests run on the tree walker instead of the bytecode VM.
func fuzzPrograms(tb testing.TB) (progs, refs []*compile.Program) {
	tb.Helper()
	var srcs []string
	for _, name := range programs.All() {
		src, err := programs.Source(name)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	for _, src := range append(srcs, syntheticMetaSrc) {
		p, err := compile.CompileSource(src)
		if err != nil {
			tb.Fatal(err)
		}
		if len(p.MetaRules) == 0 {
			continue
		}
		ast, err := lang.Parse(src)
		if err != nil {
			tb.Fatal(err)
		}
		ref, err := compile.CompileReference(ast)
		if err != nil {
			tb.Fatal(err)
		}
		progs, refs = append(progs, p), append(refs, ref)
	}
	return progs, refs
}

// FuzzIncrementalRedaction drives the incremental redactor the way the
// engine does — seeded batches of arriving and leaving instantiations,
// and firing the survivors — and after every step requires its survivors
// to equal the from-scratch redactor's on the same eligible set. Odd
// seeds run the reference-compiled program, so both expression backends
// are covered.
func FuzzIncrementalRedaction(f *testing.F) {
	progs, refs := fuzzPrograms(f)
	for i := range progs {
		f.Add(uint8(i), int64(i), []byte{0, 4, 8, 3, 1, 2, 6, 3, 0, 10, 7, 3})
		// 0xfc is a bulk arrival, which stripes across workers.
		f.Add(uint8(i), int64(i+7), []byte{0xfc, 3, 0xfe, 2, 6, 3, 0xfc, 3, 3, 3})
		f.Add(uint8(i), int64(-i-1), []byte("00<<3<0x2D3"))
	}
	f.Fuzz(func(t *testing.T, pi uint8, seed int64, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		prog := progs[int(pi)%len(progs)]
		if seed%2 != 0 {
			prog = refs[int(pi)%len(refs)]
		}
		checkIncrementalRedaction(t, prog, seed, ops)
	})
}

// maxFuzzEligible caps the eligible set of one fuzz case.
const maxFuzzEligible = 160

// checkIncrementalRedaction runs one op sequence. Each op is one cycle's
// delta: op%4 of 0 or 1 adds instantiations (op>>2 of 63 adds a bulk
// batch), 2 removes eligible ones, 3 fires the last survivors.
func checkIncrementalRedaction(t *testing.T, prog *compile.Program, seed int64, ops []byte) {
	rng := rand.New(rand.NewSource(seed))
	inc := newRedactor(prog.MetaRules, 1+int(uint64(seed)%3), false, false)
	ref := newRedactor(prog.MetaRules, 1, false, false)
	var rules []*compile.Rule
	for _, m := range prog.MetaRules {
		for _, p := range m.Patterns {
			if !slices.Contains(rules, p.Rule) {
				rules = append(rules, p.Rule)
			}
		}
	}
	rules = append(rules, prog.Rules[0]) // a rule no pattern may name
	mem := wm.NewMemory(prog.Schema)
	values := []wm.Value{wm.Int(0), wm.Int(1), wm.Int(2), wm.Int(3), wm.Sym("x")}
	newEntry := func() *redEntry {
		r := rules[rng.Intn(len(rules))]
		var wmes []*wm.WME
		for _, ce := range r.CEs {
			if ce.Negated {
				continue
			}
			fields := make([]wm.Value, len(ce.Tmpl.Attrs))
			for i := range fields {
				fields[i] = values[rng.Intn(len(values))]
			}
			wmes = append(wmes, mem.InsertFields(ce.Tmpl, fields))
		}
		return &redEntry{in: match.NewInstantiation(r, wmes)}
	}

	var eligible, survivors []*redEntry
	for step, op := range ops {
		var removed, added []*redEntry
		switch op % 4 {
		case 0, 1:
			n := 1 + int(op>>2)%8
			if op>>2 == 63 {
				n = 2*parallelThreshold + rng.Intn(parallelThreshold)
			}
			// Bound the eligible set: scanned 3-pattern meta-rules cost
			// the from-scratch oracle cubic time.
			n = min(n, maxFuzzEligible-len(eligible))
			for i := 0; i < n; i++ {
				added = append(added, newEntry())
			}
		case 2:
			for i := int(op>>2)%8 + 1; i > 0 && len(eligible) > 0; i-- {
				k := rng.Intn(len(eligible))
				removed = append(removed, eligible[k])
				eligible = slices.Delete(eligible, k, k+1)
			}
		case 3:
			if len(survivors) == 0 {
				continue
			}
			inc.markFired()
			eligible = slices.DeleteFunc(eligible, func(n *redEntry) bool { return slices.Contains(survivors, n) })
		}
		eligible = append(eligible, added...)
		if len(eligible) == 0 {
			inc.release() // the engine quiesces
			survivors = nil
			continue
		}
		if inc.live == nil {
			inc.load(eligible)
		} else {
			inc.live.admit(inc.plan, removed, added)
		}
		got, _, gotN := inc.redactLive(nil)

		ins := make([]*match.Instantiation, len(eligible))
		for i, n := range eligible {
			ins[i] = n.in
		}
		match.SortInstantiations(ins)
		want, _, wantN := ref.run(ins)
		if gotN != wantN || !slices.Equal(got, want) {
			t.Fatalf("step %d (op %d, %d eligible): incremental redacted %d, survivors %v; from scratch redacted %d, survivors %v",
				step, op, len(eligible), gotN, got, wantN, want)
		}
		survivors = slices.Clone(inc.live.surv)
		if len(survivors) == 0 {
			inc.release() // everything redacted: the engine quiesces
		}
	}
}

// TestMetaTestEvalDoesNotAllocate pins the meta-test evaluation both
// redactors share at zero allocations per tuple under the bytecode
// backend. (The tree walker, kept as the bytecode oracle, allocates its
// own argument vectors.)
func TestMetaTestEvalDoesNotAllocate(t *testing.T) {
	prog, err := programs.Load(programs.Alexsys)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.MetaRules[0]
	mem := wm.NewMemory(prog.Schema)
	pool, order := prog.Schema.MustLookup("pool"), prog.Schema.MustLookup("order")
	inst := func(p, o int64) *match.Instantiation {
		return match.NewInstantiation(m.Patterns[0].Rule, []*wm.WME{
			mem.InsertFields(pool, []wm.Value{wm.Int(p), wm.Int(50), wm.Sym("free"), wm.Nil()}),
			mem.InsertFields(order, []wm.Value{wm.Int(o), wm.Int(40), wm.Int(60), wm.Sym("no"), wm.Nil()}),
		})
	}
	env := &metaEnv{tuple: []*match.Instantiation{inst(1, 1), inst(1, 1)}}
	var prof MetaRuleProfile
	if n := testing.AllocsPerRun(1000, func() { metaTestsPass(m, env, &prof) }); n != 0 {
		t.Errorf("%v allocations per meta-test evaluation, want 0", n)
	}
	if prof.Tests == 0 {
		t.Fatal("no meta-test evaluated")
	}
}

// liveSize reports the incremental redactor's per-instantiation state:
// the eligible entries it orders and the index positions they hold.
func liveSize(r *redactor) (entries, indexed int) {
	if r.live == nil {
		return 0, 0
	}
	for _, lp := range r.live.ixs {
		indexed += len(lp.all)
		for _, b := range lp.buckets {
			for _, list := range b {
				indexed += len(list)
			}
		}
	}
	return len(r.live.order), indexed
}

// TestRedactorStateBoundedByEligibleSet: during a run the redactor's
// state tracks the eligible set exactly, at quiescence it holds nothing,
// and a long-lived engine fed small deltas never holds more than its
// current eligible set requires — whatever its history.
func TestRedactorStateBoundedByEligibleSet(t *testing.T) {
	prog, err := programs.Load(programs.Alexsys)
	if err != nil {
		t.Fatal(err)
	}
	// Index positions per eligible instantiation: the four patterns of
	// both meta-rules share one index of allocate instantiations, hashed
	// on pool and on order.
	const perEntry = 2
	e := New(prog, Options{Workers: 2})
	if err := workload.Alexsys(e, 40, 30, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	next := int64(1000)
	for round := 0; round < 30; round++ {
		for {
			_, more, err := e.RunBounded(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
			// The live set is the eligible set of the last redact pass:
			// today's plus the survivors that have fired since.
			eligible := len(e.conflictSet) - len(e.fired)
			if l := e.redact.live; l != nil && l.fired {
				eligible += len(l.surv)
			}
			entries, indexed := liveSize(e.redact)
			if entries != eligible || indexed > perEntry*eligible {
				t.Fatalf("round %d: redactor holds %d entries and %d index positions for %d eligible", round, entries, indexed, eligible)
			}
		}
		if e.redact.live != nil || e.eligible != nil {
			t.Fatalf("round %d: quiescent engine still holds redaction state", round)
		}
		for i := 0; i < 3; i++ {
			next++
			lo := int64(10 + rng.Intn(70))
			if _, err := e.Insert("pool", map[string]wm.Value{"id": wm.Int(next), "amount": wm.Int(lo + 5), "status": wm.Sym("free")}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Insert("order", map[string]wm.Value{"id": wm.Int(next), "lo": wm.Int(lo), "hi": wm.Int(lo + 20), "filled": wm.Sym("no")}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// resumeState is what every resume path must reproduce: the counters
// (cycles, firings, redactions, …), the per-cycle firing sequence and the
// working-memory snapshot.
type resumeState struct {
	counters Counters
	firing   []string
	snapshot string
}

// firingLog records "cycle:rule:count" for every rule fired.
type firingLog struct {
	cycle int
	log   []string
}

func (f *firingLog) CycleStart(n int)              { f.cycle = n }
func (f *firingLog) PhaseEnd(Phase, time.Duration) {}
func (f *firingLog) InstantiationsFound(int, int)  {}
func (f *firingLog) Redacted(int, int, int)        {}
func (f *firingLog) Commit(int, int, bool)         {}
func (f *firingLog) RuleFired(rule string, count int) {
	f.log = append(f.log, fmt.Sprintf("%d:%s:%d", f.cycle, rule, count))
}

func resumeStateOf(t *testing.T, e *Engine, log *firingLog) resumeState {
	t.Helper()
	return resumeState{counters: e.Counters(), firing: log.log, snapshot: snapshotText(t, e)}
}

func requireSameState(t *testing.T, name string, want, got resumeState) {
	t.Helper()
	if want.counters != got.counters {
		t.Fatalf("%s: counters %+v, want %+v", name, got.counters, want.counters)
	}
	if !slices.Equal(want.firing, got.firing) {
		t.Fatalf("%s: firing sequence differs:\n got %v\nwant %v", name, got.firing, want.firing)
	}
	if want.snapshot != got.snapshot {
		t.Fatalf("%s: snapshots differ", name)
	}
}

// alexsysEngine builds an alexsys engine over a redaction-heavy input.
func alexsysEngine(t *testing.T, prog *compile.Program, workers int, log *firingLog, restoring bool) *Engine {
	t.Helper()
	e := New(prog, Options{Workers: workers, Tracer: log, NoInitialFacts: restoring})
	if !restoring {
		if err := workload.Alexsys(e, 40, 30, 3); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestIncrementalRedactionResumePaths: a run resumed from a checkpoint
// (refraction set restored), a run made of RunBounded slices, and a
// write-ahead-log replay (ReplaySteps) each reproduce the uninterrupted
// run's cycles, firings, redactions and snapshot exactly.
func TestIncrementalRedactionResumePaths(t *testing.T) {
	prog, err := programs.Load(programs.Alexsys)
	if err != nil {
		t.Fatal(err)
	}
	wantLog := &firingLog{}
	whole := alexsysEngine(t, prog, 2, wantLog, false)
	res := runOK(t, whole)
	if res.Redactions == 0 || res.Cycles < 6 {
		t.Fatalf("workload too small to exercise resumption: %+v", res)
	}
	want := resumeStateOf(t, whole, wantLog)

	t.Run("checkpoint", func(t *testing.T) {
		for _, pause := range []int{1, 2, res.Cycles / 2, res.Cycles - 1} {
			log := &firingLog{}
			orig := alexsysEngine(t, prog, 2, log, false)
			for i := 0; i < pause; i++ {
				if _, err := orig.Step(); err != nil {
					t.Fatal(err)
				}
			}
			restored := transplant(t, orig, prog, 1)
			restored.opts.Tracer = log
			runOK(t, restored)
			requireSameState(t, fmt.Sprintf("restored after %d cycles", pause), want, resumeStateOf(t, restored, log))
		}
	})

	t.Run("bounded", func(t *testing.T) {
		for _, slice := range []int{1, 2, 3} {
			log := &firingLog{}
			e := alexsysEngine(t, prog, 2, log, false)
			for more := true; more; {
				if _, more, err = e.RunBounded(context.Background(), slice); err != nil {
					t.Fatal(err)
				}
			}
			requireSameState(t, fmt.Sprintf("slices of %d", slice), want, resumeStateOf(t, e, log))
		}
	})

	t.Run("replay", func(t *testing.T) {
		// A live session: the load, a run, a delta asserted and retracted
		// between runs, and a second run; then the log replayed.
		type delta func(e *Engine)
		second := func(e *Engine) {
			for i := int64(0); i < 4; i++ {
				if _, err := e.Insert("pool", map[string]wm.Value{"id": wm.Int(100 + i), "amount": wm.Int(40 + 5*i), "status": wm.Sym("free")}); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Insert("order", map[string]wm.Value{"id": wm.Int(100 + i), "lo": wm.Int(30), "hi": wm.Int(70), "filled": wm.Sym("no")}); err != nil {
					t.Fatal(err)
				}
			}
			e.Retract(e.Memory().OfTemplate("pool")[0].Time)
		}
		liveLog := &firingLog{}
		live := alexsysEngine(t, prog, 2, liveLog, false)
		var cycles []int
		for _, d := range []delta{func(*Engine) {}, second} {
			d(live)
			before := live.Counters().Cycles
			runOK(t, live)
			cycles = append(cycles, live.Counters().Cycles-before)
		}
		if cycles[1] == 0 {
			t.Fatal("second run did no work; replay across runs untested")
		}
		log := &firingLog{}
		replayed := alexsysEngine(t, prog, 1, log, false)
		for i, d := range []delta{func(*Engine) {}, second} {
			d(replayed)
			if err := replayed.ReplaySteps(cycles[i]); err != nil {
				t.Fatal(err)
			}
		}
		requireSameState(t, "replay", resumeStateOf(t, live, liveLog), resumeStateOf(t, replayed, log))
	})
}
