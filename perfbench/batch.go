package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/lang"
	"parulel/internal/match/rete"
	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// batchWorkers is the worker count of every timed batch run; the
// reference run that checks it uses one worker.
const batchWorkers = 2

// batchSetupReps is how many times a run repeats set-up to report its
// median.
const batchSetupReps = 7

// batchCases is how many inputs one run draws from its seed and cycles
// through. Run time depends strongly on the input: one alexsys input
// takes 20 cycles and 29k redactions, another 40 cycles and 56k, and
// their run times differ by about 2x. Averaging the per-input medians
// over many inputs keeps that from moving the result from seed to seed.
const batchCases = 24

// batchSpec describes one batch workload: a builtin program, a generator
// for its input facts, and the invariants its quiescent state must meet.
type batchSpec struct {
	program string
	gen     func(seed int64) ([]fact, error)
	check   func(mem *wm.Memory) error
}

var batchSpecs = map[string]batchSpec{
	"alexsys-batch": {program: programs.Alexsys, gen: genAlexsys, check: checkAllocation},
	"waltz-batch":   {program: programs.Waltz, gen: genWaltz},
}

// fact is one generated input fact.
type fact struct {
	tmpl   string
	fields map[string]wm.Value
}

// factList collects what a workload generator inserts.
type factList []fact

func (l *factList) Insert(tmpl string, fields map[string]wm.Value) (*wm.WME, error) {
	*l = append(*l, fact{tmpl, fields})
	return nil, nil
}

func genAlexsys(seed int64) ([]fact, error) {
	var l factList
	err := workload.Alexsys(&l, 150, 100, seed)
	return l, err
}

// genWaltz builds the 300-cube scene, whose shape has no seed, and lets
// the seed choose the order facts enter working memory; that order sets
// every time tag and with it the order instantiations are matched,
// redacted and fired in.
func genWaltz(seed int64) ([]fact, error) {
	var l factList
	if err := workload.WaltzScene(&l, 300); err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	return l, nil
}

func load(eng *core.Engine, facts []fact) error {
	for _, f := range facts {
		if _, err := eng.Insert(f.tmpl, f.fields); err != nil {
			return err
		}
	}
	return nil
}

// signature is what every run of one input must reproduce exactly.
type signature struct {
	Cycles, Firings, Redactions int
	Digest                      uint64
}

// digest hashes working memory: every live fact with its time tag.
func digest(wmes []*wm.WME) uint64 {
	h := fnv.New64a()
	for _, w := range wmes {
		fmt.Fprintf(h, "%d %s", w.Time, w.Tmpl.Name)
		for _, v := range w.Fields {
			fmt.Fprintf(h, " %s", v)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// checkAllocation holds alexsys to its business rules at quiescence:
// every sold pool fits the window of the order it went to and that order
// names it back, and no free pool fits any unfilled order.
func checkAllocation(mem *wm.Memory) error {
	type order struct{ lo, hi, pool int64 }
	orders := map[int64]order{}
	var open []order
	for _, o := range mem.OfTemplate("order") {
		f := func(a string) wm.Value { v, _ := o.FieldByName(a); return v }
		ord := order{f("lo").I, f("hi").I, -1}
		filled := f("filled").S == "yes"
		if filled {
			ord.pool = f("pool").I
		} else {
			open = append(open, ord)
		}
		orders[f("id").I] = ord
	}
	for _, p := range mem.OfTemplate("pool") {
		f := func(a string) wm.Value { v, _ := p.FieldByName(a); return v }
		id, amount := f("id").I, f("amount").I
		switch f("status").S {
		case "sold":
			o, ok := orders[f("owner").I]
			if !ok || o.pool != id || amount < o.lo || amount > o.hi {
				return fmt.Errorf("pool %d (amount %d) sold to order %v that does not hold it", id, amount, f("owner"))
			}
		case "free":
			for _, o := range open {
				if amount >= o.lo && amount <= o.hi {
					return fmt.Errorf("free pool %d (amount %d) fits unfilled order window [%d,%d]", id, amount, o.lo, o.hi)
				}
			}
		}
	}
	return nil
}

// batchInput is one set-up's product: the compiled program and the
// generated cases with their reference signatures.
type batchInput struct {
	prog  *compile.Program
	cases []batchCase
}

type batchCase struct {
	facts []fact
	ref   signature
}

// caseSeeds derives the per-case generator seeds from the run's seed.
func caseSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, batchCases)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// setupBatch parses, compiles, generates every case and loads each into
// an engine, batchSetupReps times; it keeps the last result.
func setupBatch(spec batchSpec, seed int64, m *measurements) (batchInput, error) {
	src, err := programs.Source(spec.program)
	if err != nil {
		return batchInput{}, err
	}
	var in batchInput
	for i := 0; i < batchSetupReps; i++ {
		t0 := time.Now()
		ast, err := lang.Parse(src)
		if err != nil {
			return in, err
		}
		t1 := time.Now()
		prog, err := compile.Compile(ast)
		if err != nil {
			return in, err
		}
		t2 := time.Now()
		in = batchInput{prog: prog}
		for _, cs := range caseSeeds(seed) {
			facts, err := spec.gen(cs)
			if err != nil {
				return in, err
			}
			eng := core.New(prog, core.Options{Workers: batchWorkers})
			if err := load(eng, facts); err != nil {
				return in, err
			}
			in.cases = append(in.cases, batchCase{facts: facts})
		}
		t3 := time.Now()
		m.parse = append(m.parse, ms(t1.Sub(t0)))
		m.compile = append(m.compile, ms(t2.Sub(t1)))
		m.setup = append(m.setup, t3.Sub(t0).Seconds())
	}
	return in, nil
}

// references runs every case once with one worker, outside any timed
// window, batchWorkers cases at a time; every timed run must reproduce
// its case's signature.
func references(in batchInput) error {
	sem := make(chan struct{}, batchWorkers)
	errs := make([]error, len(in.cases))
	var wg sync.WaitGroup
	for i := range in.cases {
		wg.Add(1)
		sem <- struct{}{}
		go func(c *batchCase, err *error) {
			defer wg.Done()
			defer func() { <-sem }()
			c.ref, *err = reference(in.prog, c.facts)
		}(&in.cases[i], &errs[i])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reference runs one case with one worker.
func reference(prog *compile.Program, facts []fact) (signature, error) {
	eng := core.New(prog, core.Options{Workers: 1})
	if err := load(eng, facts); err != nil {
		return signature{}, err
	}
	res, err := eng.Run()
	if err != nil {
		return signature{}, err
	}
	return signature{res.Cycles, res.Firings, res.Redactions, digest(eng.Memory().Snapshot())}, nil
}

// runBatch measures a batch workload for cfg.seconds. With tracing on it
// alternates untraced and traced iterations, so trace_overhead compares
// runs made under the same conditions.
func runBatch(cfg config, spec batchSpec) (*measurements, error) {
	m := &measurements{}
	in, err := setupBatch(spec, cfg.seed, m)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := references(in); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	var cycles, firings, redactions int
	for _, c := range in.cases {
		cycles += c.ref.Cycles
		firings += c.ref.Firings
		redactions += c.ref.Redactions
	}
	m.note("%d inputs; references (1 worker) total %d cycles, %d firings, %d redactions",
		len(in.cases), cycles, firings, redactions)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		m.rec = rec
	}
	// Every input runs at least once, and in a traced run at least once
	// each way: inputs rotate every iteration, and traced and untraced
	// passes over all of them alternate.
	minIters := batchCases
	if cfg.trace {
		minIters = 2 * batchCases
	}
	var last *core.Engine
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i < minIters || time.Now().Before(deadline); i++ {
		m.attempted++
		c := in.cases[i%batchCases]
		var eng *core.Engine
		var got signature
		if cfg.trace && (i/batchCases)%2 == 1 {
			eng, got, err = tracedBatchRun(in.prog, i%batchCases, c.facts, rec, m)
		} else {
			eng, got, err = timedBatchRun(in.prog, i%batchCases, c.facts, m, !cfg.trace)
		}
		if err == nil && got != c.ref {
			err = fmt.Errorf("run %d: got %+v, reference %+v", i, got, c.ref)
		}
		if err == nil && spec.check != nil {
			err = spec.check(eng.Memory())
		}
		if err != nil {
			m.fail(err)
			continue
		}
		last = eng
	}
	// Drop the generated inputs so the live heap is the program's: the
	// compiled program and the last run's engine.
	in.cases = nil
	m.liveHeapMB = liveHeapMB()
	runtime.KeepAlive(last)
	return m, nil
}

// timedBatchRun is one untraced iteration: build and load an engine (a
// write), run it to quiescence, and read working memory back. Only the
// three operations are timed; the result checks are not.
func timedBatchRun(prog *compile.Program, ci int, facts []fact, m *measurements, count bool) (*core.Engine, signature, error) {
	cpu0 := cpuTime()
	t0 := time.Now()
	eng := core.New(prog, core.Options{Workers: batchWorkers})
	if err := load(eng, facts); err != nil {
		return nil, signature{}, err
	}
	t1 := time.Now()
	res, err := eng.Run()
	t2 := time.Now()
	if err != nil {
		return nil, signature{}, err
	}
	snap := eng.Memory().Snapshot()
	t3 := time.Now()
	cpu := cpuTime() - cpu0
	m.untracedRun = append(m.untracedRun, t2.Sub(t1).Seconds())
	m.untracedGroup = append(m.untracedGroup, ci)
	if count {
		m.write = append(m.write, ms(t1.Sub(t0)))
		m.run = append(m.run, ms(t2.Sub(t1)))
		m.read = append(m.read, ms(t3.Sub(t2)))
		m.cpu = append(m.cpu, cpu.Seconds())
		m.group = append(m.group, ci)
		m.busy += t3.Sub(t0)
		m.ops++
	}
	return eng, signature{res.Cycles, res.Firings, res.Redactions, digest(snap)}, nil
}

// tracedBatchRun drives the engine one Step at a time under the tracer
// and records the run's layer numbers.
func tracedBatchRun(prog *compile.Program, ci int, facts []fact, rec *recorder, m *measurements) (*core.Engine, signature, error) {
	runID := rec.newID()
	rt := &runTrace{rec: rec, runID: runID}
	eng := core.New(prog, core.Options{Workers: batchWorkers, Matcher: rt.factory(rete.New), Tracer: rt})
	if err := load(eng, facts); err != nil {
		return nil, signature{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := rec.now()
	for {
		progress, err := rt.step(eng)
		if err != nil {
			return nil, signature{}, err
		}
		if !progress {
			break
		}
	}
	end := rec.now()
	runtime.ReadMemStats(&ms1)
	rec.add(span{ID: runID, Name: "run", Run: runID, Start: int64(start), End: int64(end)})

	var steps time.Duration
	for _, s := range rt.steps {
		steps += s
	}
	rc, err := reconcile(end-start, steps, rt.phases())
	if err != nil {
		return nil, signature{}, errors.Join(errors.New("traced run does not reconcile"), err)
	}
	mw, fw := eng.WorkerWork()
	mem := rt.memStats()
	vals := map[string]float64{
		"run.wall_ms":           ms(rc.Wall),
		"engine.loop_ms":        ms(rc.Loop),
		"engine.step_ms":        ms(rc.Steps),
		"engine.other_ms":       ms(rc.Other),
		"match.ms":              ms(rt.match),
		"redact.ms":             ms(rt.redact),
		"fire.ms":               ms(rt.fire),
		"apply.ms":              ms(rt.apply),
		"match.alpha_items":     float64(mem.AlphaItems),
		"match.beta_tokens":     float64(mem.BetaTokens),
		"redact.eligible":       float64(rt.eligible),
		"redact.killed":         float64(rt.killed),
		"redact.rounds":         float64(rt.rounds),
		"fire.firings":          float64(rt.firings),
		"apply.delta_wmes":      float64(rt.delta),
		"apply.write_conflicts": float64(rt.conflicts),
		"engine.cycles":         float64(rt.cycles),
		"engine.worker_balance": workerBalance(mw, fw),
		"runtime.alloc_mb":      float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		"runtime.gc_cycles":     float64(ms1.NumGC - ms0.NumGC),
		"runtime.gc_pause_ms":   ms(time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)),
		"wm.resident_facts":     float64(eng.Memory().Len()),
	}
	for _, p := range rt.matchers {
		vals["match.apply_ms"] += ms(p.busy)
		vals["match.apply_calls"] += float64(p.calls)
		vals["match.insts_added"] += float64(p.added)
		vals["match.insts_removed"] += float64(p.removed)
	}
	m.layers = append(m.layers, layerSample{vals: vals, steps: rt.steps})
	m.tracedRun = append(m.tracedRun, (end - start).Seconds())
	m.tracedGroup = append(m.tracedGroup, ci)
	sig := signature{rt.cycles, rt.firings, rt.killed, digest(eng.Memory().Snapshot())}
	return eng, sig, nil
}
