package core

import (
	"sync"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// redactor runs the meta-rule redaction fixpoint.
//
// Semantics (synchronous): every meta-rule is matched against the eligible
// set; all redactions justified by those matches apply simultaneously, so
// the outcome is independent of meta-rule ordering and tuple enumeration
// order, and two instantiations that each justify redacting the other both
// die — meta-rule programs break such ties with `(tag …)` or
// `(precedes …)`.
//
// Because meta patterns have no negation over the conflict set, matching
// is monotone in the instantiation set: removing instantiations can only
// remove matches, never create them. Any tuple matching the post-round
// survivors also matched the full set, and its redaction target was
// already deleted — so the synchronous-round fixpoint is reached after
// exactly one round, and the redactor runs a single pass.
//
// The same monotonicity makes the pass incremental (incredact.go): an
// instantiation is redacted exactly when at least one matching tuple of
// live instantiations names it, so counting those tuples per
// instantiation as instantiations come and go gives the from-scratch
// answer. The engine uses the incremental redactor by default; run below
// recomputes from scratch and serves the E7 (no index) and E8
// (sequential) ablations and the tests as the reference.
//
// Under synchronous semantics the pass parallelizes: matches are a pure
// function of the eligible set and the dead-set is a union, so tuple
// enumeration is striped across the engine's workers. Sequential
// semantics (E8) is inherently serial — each match's immediate effect
// feeds the next — and always runs on one goroutine.
type redactor struct {
	metas []*compile.MetaRule
	// workers bounds the goroutines used for the synchronous pass.
	workers int
	// noIndex disables the equality-join hash index (ablation experiment
	// E7) and forces nested-loop tuple enumeration.
	noIndex bool
	// sequential switches to the alternative semantics explored by E8:
	// meta-rules apply in declaration order with immediate effect, so a
	// redacted instantiation can no longer justify later redactions.
	// Synchronous semantics can over-kill (two instantiations that each
	// justify redacting the other both die); sequential semantics keeps
	// the first and spares everything it dominates transitively.
	sequential bool
	// profiles counts, per meta-rule, the work of every pass so far.
	profiles []MetaRuleProfile

	// plan is the compiled enumeration plan of the incremental redactor;
	// nil when noIndex or sequential selects the from-scratch path.
	plan *incPlan
	// live is the incremental redactor's state: the eligible set, its
	// pattern indexes and redaction counts. nil while cold — before the
	// first cycle and after a run quiesces — in which case the next cycle
	// loads the whole eligible set.
	live *incState
}

func newRedactor(metas []*compile.MetaRule, workers int, noIndex, sequential bool) *redactor {
	if workers < 1 {
		workers = 1
	}
	r := &redactor{metas: metas, workers: workers, noIndex: noIndex, sequential: sequential}
	r.profiles = make([]MetaRuleProfile, len(metas))
	for i, m := range metas {
		r.profiles[i].MetaRule = m.Name
	}
	if !noIndex && !sequential {
		r.plan = newIncPlan(metas)
	}
	return r
}

// MetaRuleProfile attributes redaction work to one meta-rule. Tuples
// counts complete tuples formed (every join test passed), Tests the
// meta-test expressions evaluated on them, and Kills the tuples that
// passed every test and so redact their targets. The incremental
// redactor forms each tuple once when its last member arrives, and once
// more when its first member leaves unless every target leaves too (that
// pass counts no kills); the from-scratch path re-forms every tuple every
// cycle.
type MetaRuleProfile struct {
	MetaRule string `json:"meta_rule"`
	Tuples   uint64 `json:"tuples"`
	Tests    uint64 `json:"tests"`
	Kills    uint64 `json:"kills"`
}

func (p *MetaRuleProfile) add(o MetaRuleProfile) {
	p.Tuples += o.Tuples
	p.Tests += o.Tests
	p.Kills += o.Kills
}

// parallelThreshold is the pattern-0 candidate count below which striping
// the from-scratch enumeration is not worth the goroutine overhead.
const parallelThreshold = 64

// run computes, from scratch, the surviving instantiations, the number of
// rounds (0 or 1), and the number of redacted instantiations. It is the
// redaction path of the E7 and E8 ablations and the reference the
// incremental redactor is tested against.
func (r *redactor) run(eligible []*match.Instantiation) ([]*match.Instantiation, int, int) {
	if len(r.metas) == 0 || len(eligible) == 0 {
		return eligible, 0, 0
	}
	dead := make(map[match.Key]bool)
	byRule := make(map[*compile.Rule][]*match.Instantiation)
	for _, in := range eligible {
		byRule[in.Rule] = append(byRule[in.Rule], in)
	}
	for mi, m := range r.metas {
		states := r.buildStates(m, byRule)
		switch {
		case r.sequential, r.workers == 1, len(states[0].cands) < parallelThreshold:
			r.matchMeta(m, states, 0, 1, dead, &r.profiles[mi])
		default:
			// Stripe pattern-0 candidates across workers; each collects a
			// local dead-set and profile; the unions are order-independent.
			w := r.workers
			locals := make([]map[match.Key]bool, w)
			profs := make([]MetaRuleProfile, w)
			var wg sync.WaitGroup
			for k := 0; k < w; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					locals[k] = make(map[match.Key]bool)
					r.matchMeta(m, states, k, w, locals[k], &profs[k])
				}(k)
			}
			wg.Wait()
			for k, l := range locals {
				for key := range l {
					dead[key] = true
				}
				r.profiles[mi].add(profs[k])
			}
		}
	}
	if len(dead) == 0 {
		return eligible, 0, 0
	}
	survivors := eligible[:0:0]
	for _, in := range eligible {
		if !dead[in.Key()] {
			survivors = append(survivors, in)
		}
	}
	return survivors, 1, len(eligible) - len(survivors)
}

// patState holds one pattern's pre-filtered candidates and optional
// equality-join index. States are built once per meta-rule and shared
// read-only across the striped goroutines.
type patState struct {
	cands   []*match.Instantiation
	eqTest  *compile.MetaJoinTest
	index   map[wm.Value][]*match.Instantiation
	restIdx int // index of eqTest within JoinTests, -1 if none
}

// buildStates pre-filters each pattern's candidates by its constant,
// disjunction and intra-instantiation tests, and builds a hash index on
// the pattern's first equality join test (the common case — e.g. "same
// pool") to avoid quadratic blowup on large conflict sets.
func (r *redactor) buildStates(m *compile.MetaRule, byRule map[*compile.Rule][]*match.Instantiation) []patState {
	states := make([]patState, len(m.Patterns))
	for i, p := range m.Patterns {
		var cands []*match.Instantiation
		for _, in := range byRule[p.Rule] {
			if metaAlphaPasses(p, in) {
				cands = append(cands, in)
			}
		}
		st := patState{cands: cands, restIdx: -1}
		if !r.noIndex {
			for j := range p.JoinTests {
				if p.JoinTests[j].Op == compile.OpEq {
					st.eqTest = &p.JoinTests[j]
					st.restIdx = j
					break
				}
			}
		}
		if st.eqTest != nil {
			st.index = make(map[wm.Value][]*match.Instantiation, len(cands))
			for _, in := range cands {
				k := in.Binding(st.eqTest.Ref)
				st.index[k] = append(st.index[k], in)
			}
		}
		states[i] = st
	}
	return states
}

// matchMeta enumerates the tuples of distinct instantiations matching the
// meta-rule's patterns whose pattern-0 candidate index ≡ stripe (mod
// strides), recording redaction targets in dead. Under synchronous
// semantics every match's targets are recorded but matching keeps using
// the full set; under sequential semantics (always stripe 0 of 1) dead
// instantiations are skipped and a completed match kills its targets
// immediately.
func (r *redactor) matchMeta(m *compile.MetaRule, states []patState, stripe, strides int, dead map[match.Key]bool, prof *MetaRuleProfile) {
	tuple := make([]*match.Instantiation, len(m.Patterns))
	env := &metaEnv{tuple: tuple}
	used := make(map[match.Key]bool, len(m.Patterns))
	var choose func(i int)
	choose = func(i int) {
		if i == len(m.Patterns) {
			if r.sequential {
				// Immediate effect: a tuple only matches if all its
				// members are still alive at this point.
				for _, in := range tuple {
					if dead[in.Key()] {
						return
					}
				}
			}
			prof.Tuples++
			if !metaTestsPass(m, env, prof) {
				return
			}
			prof.Kills++
			for _, pi := range m.Redacts {
				dead[tuple[pi].Key()] = true
			}
			return
		}
		st := &states[i]
		p := m.Patterns[i]
		cands := st.cands
		if i == 0 && strides > 1 {
			// Striped share of the outermost loop.
			share := make([]*match.Instantiation, 0, len(cands)/strides+1)
			for j := stripe; j < len(cands); j += strides {
				share = append(share, cands[j])
			}
			cands = share
		}
		if st.eqTest != nil {
			probe := tuple[st.eqTest.OtherPat].Binding(st.eqTest.OtherRef)
			cands = st.index[probe]
		}
	cand:
		for _, in := range cands {
			if used[in.Key()] {
				continue // patterns bind distinct instantiations
			}
			if r.sequential && dead[in.Key()] {
				continue
			}
			for j, jt := range p.JoinTests {
				if j == st.restIdx {
					continue // satisfied by the index probe
				}
				if !jt.Op.Apply(in.Binding(jt.Ref), tuple[jt.OtherPat].Binding(jt.OtherRef)) {
					continue cand
				}
			}
			tuple[i] = in
			used[in.Key()] = true
			choose(i + 1)
			delete(used, in.Key())
			tuple[i] = nil
		}
	}
	choose(0)
}

// metaAlphaPasses checks a pattern's per-instantiation tests.
func metaAlphaPasses(p *compile.InstPattern, in *match.Instantiation) bool {
	for _, t := range p.ConstTests {
		if !t.Op.Apply(in.Binding(t.Ref), t.Val) {
			return false
		}
	}
	for _, t := range p.DisjTests {
		if !t.Matches(in.Binding(t.Ref)) {
			return false
		}
	}
	for _, t := range p.IntraTests {
		if !t.Op.Apply(in.Binding(t.Ref), in.Binding(t.OtherRef)) {
			return false
		}
	}
	return true
}

// metaTestsPass evaluates a meta-rule's tests over the tuple env holds,
// counting each evaluation in prof. A test that errors fails the tuple.
func metaTestsPass(m *compile.MetaRule, env *metaEnv, prof *MetaRuleProfile) bool {
	for _, t := range m.Tests {
		prof.Tests++
		v, err := compile.Eval(t, env)
		if err != nil || !v.Truthy() {
			return false
		}
	}
	return true
}

// metaEnv implements compile.Env for meta-rule test evaluation. It is
// passed by pointer and reused across tuples, so evaluating a test does
// not allocate.
type metaEnv struct {
	tuple []*match.Instantiation
}

func (m *metaEnv) Ref(compile.VarRef) wm.Value { panic("core: meta test has no object context") }
func (m *metaEnv) Local(int) wm.Value          { panic("core: meta test has no object context") }
func (m *metaEnv) MetaVal(pat int, ref compile.VarRef) wm.Value {
	return m.tuple[pat].Binding(ref)
}
func (m *metaEnv) MetaTag(pat int) int64       { return m.tuple[pat].Tag() }
func (m *metaEnv) MetaRuleName(pat int) string { return m.tuple[pat].Rule.Name }
func (m *metaEnv) MetaPrecedes(pat, pat2 int) bool {
	return m.tuple[pat].Compare(m.tuple[pat2]) < 0
}
