package core

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// Incremental synchronous redaction.
//
// An eligible instantiation is redacted exactly when some tuple of
// distinct eligible instantiations matches a meta-rule and names it as a
// target. The incremental redactor keeps, for every eligible
// instantiation, the number of such live tuples (its count) and redacts
// the instantiations whose count is above zero. Between cycles the
// eligible set changes by a delta — instantiations the matchers added or
// removed and the ones that just fired — and only tuples holding a member
// of that delta change:
//
//   - An arriving batch is indexed first, each member under a sequence
//     number. Each member then enumerates the tuples holding it whose
//     other members are older (already indexed before the batch, or
//     earlier in it), and each matching tuple adds one to its targets'
//     counts. A tuple is thus counted once, by its newest member.
//   - A leaving batch enumerates, while still indexed, the tuples holding
//     each member whose other leaving members are older, and each
//     matching tuple takes one from its targets' counts; then the batch
//     leaves the indexes. A tuple is thus retired once, by its newest
//     leaving member.
//
// Matching is a pure function of the tuple and, having no negation over
// the conflict set, monotone (see redactor): no tuple matches or stops
// matching except when a member arrives or leaves. So every count equals
// the number of matching tuples over the current eligible set, and the
// zero-count instantiations are exactly the survivors redactor.run
// computes from scratch. The sequence rule needs no order between
// workers, so both passes stripe their batch across the engine's
// workers, and counts are updated atomically. A leaving pass skips what
// cannot change a staying instantiation's count: tuples whose targets all
// leave, and members that hold no matching tuple redacting another member
// (tracked by a second, upper-bound count, holds).
//
// To enumerate the tuples that hold an instantiation at pattern f, a
// per-(meta-rule, f) plan fills the other patterns one at a time,
// probing a hash bucket wherever an equality join links the next pattern
// to one already filled — in either direction, so every pattern is
// indexed on each value its plans probe — and scanning the pattern's
// whole candidate list otherwise (meta-rules joined only by tests or
// inequalities, such as manners'). Each pattern's candidates pass its
// constant, disjunction and intra-instantiation tests once, on arrival;
// patterns of one rule with the same such tests share one index.
//
// The eligible set itself is kept in instantiation order across cycles
// (merging each cycle's arrivals in), so a cycle's survivors come out of
// one linear scan already sorted. The whole state is dropped when a run
// quiesces, so an idle engine holds none of it and no map keeps its peak
// capacity.

// incPlan is the static part of incremental redaction, compiled once per
// engine from the meta-rules.
type incPlan struct {
	metas []metaPlan
	// ixs are the pattern indexes. Patterns of one rule with the same
	// alpha tests share an index, hashed on every key any of them needs.
	ixs []ixPlan
	// ixsOf lists, by object-rule index, the indexes an instantiation of
	// that rule may enter, members the meta-rule patterns it may fill,
	// and nslots the number of index positions it records (ixPlan.base).
	ixsOf   [][]int
	members [][]patRef
	nslots  []int
	// maxPats is the widest meta-rule's pattern count.
	maxPats int
}

type patRef struct{ meta, pat int }

// ixPlan describes one pattern index.
type ixPlan struct {
	// pat holds the alpha tests of every pattern sharing the index.
	pat *compile.InstPattern
	// keys are the variables the index hashes on; scanned marks an index
	// some plan must scan in full.
	keys    []compile.VarRef
	scanned bool
	// base is the index's first slot in a redEntry of its rule:
	// slots[base] is -1 when the instantiation fails the alpha tests,
	// otherwise its position in the scan list (0 when the index is never
	// scanned); slots[base+1+k] is its position in its bucket of key k.
	base int
}

// addKey returns the position of ref among the index's keys, adding it.
func (x *ixPlan) addKey(ref compile.VarRef) int {
	if i := slices.Index(x.keys, ref); i >= 0 {
		return i
	}
	x.keys = append(x.keys, ref)
	return len(x.keys) - 1
}

// metaPlan compiles one meta-rule.
type metaPlan struct {
	meta *compile.MetaRule
	// ix[p] is the index pattern p draws its candidates from.
	ix []int
	// from[f] fills every pattern but f once pattern f holds the
	// instantiation being enumerated.
	from [][]planStep
	// soleTarget is the pattern every redact names, or -1; holder[p]
	// reports whether some redact names a pattern other than p.
	soleTarget int
	holder     []bool
}

// planStep fills pattern pat: from the bucket of its key keyed by the
// value at probeRef of the instantiation at probePat, or from its whole
// candidate list when key is -1. checks are the join tests between pat
// and the patterns filled before it, less the one the probe satisfies.
type planStep struct {
	pat, key int
	probePat int
	probeRef compile.VarRef
	checks   []joinCheck
}

// joinCheck is a meta join test: value aRef of the instantiation at
// pattern a, op, value bRef of the one at pattern b.
type joinCheck struct {
	a, b       int
	aRef, bRef compile.VarRef
	op         compile.PredOp
}

func newIncPlan(metas []*compile.MetaRule) *incPlan {
	p := &incPlan{metas: make([]metaPlan, len(metas))}
	nrules := 0
	for _, m := range metas {
		for _, ip := range m.Patterns {
			nrules = max(nrules, ip.Rule.Index+1)
		}
	}
	p.ixsOf = make([][]int, nrules)
	p.members = make([][]patRef, nrules)
	p.nslots = make([]int, nrules)
	for mi, m := range metas {
		mp := &p.metas[mi]
		mp.meta = m
		mp.ix = make([]int, len(m.Patterns))
		for pi, ip := range m.Patterns {
			mp.ix[pi] = p.indexFor(ip)
			p.members[ip.Rule.Index] = append(p.members[ip.Rule.Index], patRef{mi, pi})
		}
		mp.soleTarget = -1
		if len(m.Redacts) > 0 && !slices.ContainsFunc(m.Redacts, func(t int) bool { return t != m.Redacts[0] }) {
			mp.soleTarget = m.Redacts[0]
		}
		mp.holder = make([]bool, len(m.Patterns))
		mp.from = make([][]planStep, len(m.Patterns))
		for f := range m.Patterns {
			mp.holder[f] = slices.ContainsFunc(m.Redacts, func(t int) bool { return t != f })
			mp.from[f] = p.planFrom(m, mp.ix, f)
		}
		p.maxPats = max(p.maxPats, len(m.Patterns))
	}
	for id := range p.ixs {
		x := &p.ixs[id]
		ri := x.pat.Rule.Index
		x.base = p.nslots[ri]
		p.nslots[ri] += 1 + len(x.keys)
		p.ixsOf[ri] = append(p.ixsOf[ri], id)
	}
	return p
}

// indexFor returns the index of a pattern: the one of an earlier pattern
// of the same rule with the same alpha tests, or a new one.
func (p *incPlan) indexFor(ip *compile.InstPattern) int {
	for id, x := range p.ixs {
		if x.pat.Rule == ip.Rule && reflect.DeepEqual(x.pat.ConstTests, ip.ConstTests) &&
			reflect.DeepEqual(x.pat.DisjTests, ip.DisjTests) && reflect.DeepEqual(x.pat.IntraTests, ip.IntraTests) {
			return id
		}
	}
	p.ixs = append(p.ixs, ixPlan{pat: ip})
	return len(p.ixs) - 1
}

// planFrom orders the patterns of m other than f, whose indexes are ix.
// Each step takes the lowest pattern an equality join ties to one
// already filled, and otherwise the lowest pattern left, which it scans.
func (p *incPlan) planFrom(m *compile.MetaRule, ix []int, f int) []planStep {
	n := len(m.Patterns)
	filled := make([]bool, n)
	filled[f] = true
	steps := make([]planStep, 0, n-1)
	for len(steps) < n-1 {
		st := planStep{pat: -1, key: -1}
		probeOwner, probeTest := -1, -1
	find:
		for j := 0; j < n; j++ {
			if filled[j] {
				continue
			}
			for ti, jt := range m.Patterns[j].JoinTests {
				if jt.Op == compile.OpEq && filled[jt.OtherPat] {
					st = planStep{pat: j, key: p.ixs[ix[j]].addKey(jt.Ref), probePat: jt.OtherPat, probeRef: jt.OtherRef}
					probeOwner, probeTest = j, ti
					break find
				}
			}
			for k := 0; k < n; k++ {
				if !filled[k] {
					continue
				}
				for ti, jt := range m.Patterns[k].JoinTests {
					if jt.Op == compile.OpEq && jt.OtherPat == j {
						st = planStep{pat: j, key: p.ixs[ix[j]].addKey(jt.OtherRef), probePat: k, probeRef: jt.Ref}
						probeOwner, probeTest = k, ti
						break find
					}
				}
			}
		}
		if st.pat < 0 {
			st.pat = slices.Index(filled, false)
			p.ixs[ix[st.pat]].scanned = true
		}
		j := st.pat
		for k, ip := range m.Patterns {
			for ti, jt := range ip.JoinTests {
				if k == probeOwner && ti == probeTest {
					continue
				}
				if (k == j && filled[jt.OtherPat]) || (jt.OtherPat == j && filled[k]) {
					st.checks = append(st.checks, joinCheck{a: k, aRef: jt.Ref, op: jt.Op, b: jt.OtherPat, bRef: jt.OtherRef})
				}
			}
		}
		filled[j] = true
		steps = append(steps, st)
	}
	return steps
}

// redEntry is one conflict-set instantiation; while it is eligible and
// the redactor is warm, the fields after in are its redaction state.
type redEntry struct {
	in *match.Instantiation
	// seq orders entries by arrival (see the sequence rule above).
	seq uint64
	// count is the number of live matching tuples that redact this
	// instantiation. holds bounds from above the number that hold it and
	// redact another member: a tuple retired without being enumerated
	// (every target left with it) is never taken off, so only zero is
	// exact. Passes update both from several goroutines.
	count, holds atomic.Int32
	// batch marks a member of the batch being passed; gone marks an
	// entry that left the eligible set this cycle.
	batch, gone bool
	// slots are the entry's index positions (ixPlan.base); inline holds
	// them for instantiations of rules in at most len(inline) slots.
	slots  []int32
	inline [4]int32
}

// incState is the live part: the eligible set, its pattern indexes and
// the delta waiting for the next redact pass.
type incState struct {
	// order is the eligible set in instantiation order; spare is the
	// buffer the next order is built in.
	order, spare []*redEntry
	ixs          []liveIndex
	seq          uint64
	// leaving and arriving are the delta admit recorded for redact; surv
	// holds the last survivors, which leave next cycle once fired is set.
	leaving, arriving, surv []*redEntry
	fired                   bool
	batch                   []*redEntry
	workers                 []*incWorker
}

// liveIndex is one index's candidates: hashed per key, and listed in full
// when scanned; n counts them.
type liveIndex struct {
	buckets []map[wm.Value][]*redEntry
	all     []*redEntry
	n       int
}

func newIncState(p *incPlan) *incState {
	l := &incState{ixs: make([]liveIndex, len(p.ixs))}
	for id, x := range p.ixs {
		lp := &l.ixs[id]
		lp.buckets = make([]map[wm.Value][]*redEntry, len(x.keys))
		for k := range lp.buckets {
			lp.buckets[k] = make(map[wm.Value][]*redEntry)
		}
	}
	return l
}

// incremental reports whether the engine maintains redaction
// incrementally (the default) rather than from scratch each cycle.
func (r *redactor) incremental() bool { return r.plan != nil }

// load starts the live state from a whole eligible set, in any order.
func (r *redactor) load(eligible []*redEntry) {
	r.live = newIncState(r.plan)
	r.live.admit(r.plan, nil, eligible)
}

// release drops the live state; the next cycle reloads it.
func (r *redactor) release() { r.live = nil }

// markFired records that the last survivors fired: they leave the
// eligible set at the next admit.
func (r *redactor) markFired() {
	if r.live != nil {
		r.live.fired = true
	}
}

// admit applies one cycle's eligible-set delta to the ordered set,
// leaving the index work to the redact pass: removed entries (which must
// be eligible) leave, added ones arrive with their state reset.
func (l *incState) admit(p *incPlan, removed, added []*redEntry) {
	l.leaving, l.arriving = l.leaving[:0], l.arriving[:0]
	if l.fired {
		l.leaving = append(l.leaving, l.surv...)
		l.fired = false
	}
	clear(l.surv)
	l.surv = l.surv[:0]
	l.leaving = append(l.leaving, removed...)
	for _, n := range l.leaving {
		n.gone = true
	}
	for _, n := range added {
		l.seq++
		n.seq, n.batch, n.gone = l.seq, false, false
		n.count.Store(0)
		n.holds.Store(0)
		if ri := n.in.Rule.Index; ri < len(p.nslots) && p.nslots[ri] > 0 {
			if k := p.nslots[ri]; k <= len(n.inline) {
				n.slots = n.inline[:k]
			} else if len(n.slots) != k {
				n.slots = make([]int32, k)
			}
		}
		l.arriving = append(l.arriving, n)
	}
	if len(l.leaving) == 0 && len(l.arriving) == 0 {
		return
	}
	slices.SortFunc(l.arriving, func(a, b *redEntry) int { return a.in.Compare(b.in) })
	out, add := l.spare[:0], l.arriving
	for _, n := range l.order {
		if n.gone {
			continue
		}
		for len(add) > 0 && add[0].in.Compare(n.in) < 0 {
			out = append(out, add[0])
			add = add[1:]
		}
		out = append(out, n)
	}
	out = append(out, add...)
	clear(l.order)
	l.order, l.spare = out, l.order[:0]
}

// redactLive brings the counts up to date with the delta admit recorded
// and appends the survivors, in instantiation order, to dst. It returns
// them with the rounds (0 or 1) and the number redacted, like run.
func (r *redactor) redactLive(dst []*match.Instantiation) ([]*match.Instantiation, int, int) {
	l := r.live
	l.batch = l.batch[:0]
	for _, n := range l.leaving {
		if len(n.slots) > 0 {
			n.batch = true
			l.batch = append(l.batch, n)
		}
	}
	r.pass(l.batch, -1)
	for _, n := range l.batch {
		l.unindex(r.plan, n)
	}
	clear(l.batch)
	l.batch = l.batch[:0]
	for _, n := range l.arriving {
		if len(n.slots) > 0 && l.index(r.plan, n) {
			n.batch = true
			l.batch = append(l.batch, n)
		}
	}
	r.pass(l.batch, +1)
	for _, n := range l.batch {
		n.batch = false
	}
	clear(l.batch)
	clear(l.leaving)
	clear(l.arriving)
	for _, n := range l.order {
		if n.count.Load() == 0 {
			l.surv = append(l.surv, n)
			dst = append(dst, n.in)
		}
	}
	redacted := len(l.order) - len(l.surv)
	if redacted == 0 {
		return dst, 0, 0
	}
	return dst, 1, redacted
}

// index adds n to the indexes whose alpha tests it passes and reports
// whether it entered any.
func (l *incState) index(p *incPlan, n *redEntry) bool {
	entered := false
	for _, id := range p.ixsOf[n.in.Rule.Index] {
		x := &p.ixs[id]
		if !metaAlphaPasses(x.pat, n.in) {
			n.slots[x.base] = -1
			continue
		}
		entered = true
		lp := &l.ixs[id]
		lp.n++
		n.slots[x.base] = 0
		if x.scanned {
			n.slots[x.base] = int32(len(lp.all))
			lp.all = append(lp.all, n)
		}
		for k, ref := range x.keys {
			v := n.in.Binding(ref)
			b := lp.buckets[k][v]
			n.slots[x.base+1+k] = int32(len(b))
			lp.buckets[k][v] = append(b, n)
		}
	}
	return entered
}

// unindex removes n from every index it entered.
func (l *incState) unindex(p *incPlan, n *redEntry) {
	for _, id := range p.ixsOf[n.in.Rule.Index] {
		x := &p.ixs[id]
		if n.slots[x.base] < 0 {
			continue
		}
		lp := &l.ixs[id]
		lp.n--
		if x.scanned {
			lp.all = dropAt(lp.all, n.slots[x.base], x.base)
		}
		for k, ref := range x.keys {
			v := n.in.Binding(ref)
			slot := x.base + 1 + k
			if b := dropAt(lp.buckets[k][v], n.slots[slot], slot); len(b) == 0 {
				delete(lp.buckets[k], v)
			} else {
				lp.buckets[k][v] = b
			}
		}
	}
}

// dropAt removes position i of list by moving the last entry into it and
// updating that entry's position in the given slot.
func dropAt(list []*redEntry, i int32, slot int) []*redEntry {
	last := len(list) - 1
	if int(i) != last {
		list[i] = list[last]
		list[i].slots[slot] = i
	}
	list[last] = nil
	return list[:last]
}

// stripedWork is the estimated tuple count from which a pass stripes its
// batch across workers; below it, waking a second worker costs more than
// it saves.
const stripedWork = 4096

// pass enumerates, for each batch member, the tuples it holds under the
// sequence rule and adds sign to their targets' counts, striping the
// batch across the engine's workers when there is enough work to pay.
func (r *redactor) pass(batch []*redEntry, sign int32) {
	if len(batch) == 0 {
		return
	}
	l := r.live
	nw := 1
	if r.workers > 1 && r.estimate(batch, sign) >= stripedWork {
		nw = r.workers
	}
	for len(l.workers) < nw {
		l.workers = append(l.workers, newIncWorker(r))
	}
	if nw == 1 {
		l.workers[0].run(batch, 0, 1, sign)
	} else {
		var wg sync.WaitGroup
		for k := 0; k < nw; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				l.workers[k].run(batch, k, nw, sign)
			}(k)
		}
		wg.Wait()
	}
	for _, w := range l.workers[:nw] {
		for mi := range w.prof {
			r.profiles[mi].add(w.prof[mi])
			w.prof[mi] = MetaRuleProfile{}
		}
	}
}

// estimate returns, up to stripedWork, the number of tuples a pass over
// batch is expected to form: per member and pattern it fills, the product
// over the plan's steps of the mean number of candidates a step visits.
func (r *redactor) estimate(batch []*redEntry, sign int32) int {
	total := 0
	for _, y := range batch {
		for _, pr := range r.plan.members[y.in.Rule.Index] {
			mp := &r.plan.metas[pr.meta]
			if r.plan.skips(mp, y, pr.pat, sign) {
				continue
			}
			t := 1
			for _, st := range mp.from[pr.pat] {
				lp := &r.live.ixs[mp.ix[st.pat]]
				c := lp.n
				if st.key >= 0 {
					c /= max(1, len(lp.buckets[st.key]))
				}
				t *= c
			}
			if total += t; total >= stripedWork {
				return total
			}
		}
	}
	return total
}

// skips reports whether a pass of the given sign has nothing to do for y
// at pattern f: y fails the pattern, or y is leaving and every matching
// tuple still holding it redacts only y.
func (p *incPlan) skips(mp *metaPlan, y *redEntry, f int, sign int32) bool {
	return y.slots[p.ixs[mp.ix[f]].base] < 0 || (sign < 0 && (mp.soleTarget == f || y.holds.Load() == 0))
}

// incWorker is one goroutine's enumeration scratch.
type incWorker struct {
	r    *redactor
	ents []*redEntry
	ins  []*match.Instantiation
	env  metaEnv
	prof []MetaRuleProfile

	// The tuple being enumerated: its meta-rule, plan, the batch member
	// it holds and the sign of the pass.
	mp    *metaPlan
	steps []planStep
	y     *redEntry
	sign  int32
}

func newIncWorker(r *redactor) *incWorker {
	n := r.plan.maxPats
	return &incWorker{
		r:    r,
		ents: make([]*redEntry, n),
		ins:  make([]*match.Instantiation, n),
		prof: make([]MetaRuleProfile, len(r.metas)),
	}
}

// run enumerates for the batch members whose position ≡ stripe (mod
// strides).
func (w *incWorker) run(batch []*redEntry, stripe, strides int, sign int32) {
	p := w.r.plan
	w.sign = sign
	for i := stripe; i < len(batch); i += strides {
		y := batch[i]
		w.y = y
		for _, pr := range p.members[y.in.Rule.Index] {
			mp := &p.metas[pr.meta]
			if p.skips(mp, y, pr.pat, sign) {
				continue
			}
			n := len(mp.meta.Patterns)
			w.mp, w.steps = mp, mp.from[pr.pat]
			w.env.tuple = w.ins[:n]
			w.ents[pr.pat], w.ins[pr.pat] = y, y.in
			w.fill(0, &w.prof[pr.meta])
		}
	}
	w.y, w.mp, w.steps = nil, nil, nil
	clear(w.ents)
	clear(w.ins)
}

// fill chooses the tuple member of step s and recurses; past the last
// step it tests the complete tuple.
func (w *incWorker) fill(s int, prof *MetaRuleProfile) {
	if s == len(w.steps) {
		if w.sign < 0 && !slices.ContainsFunc(w.mp.meta.Redacts, func(t int) bool { return !w.ents[t].batch }) {
			return // every target is leaving too: no count to take from
		}
		prof.Tuples++
		if !metaTestsPass(w.mp.meta, &w.env, prof) {
			return
		}
		if w.sign > 0 {
			prof.Kills++
		}
		for _, t := range w.mp.meta.Redacts {
			w.ents[t].count.Add(w.sign)
		}
		for p, h := range w.mp.holder {
			if h {
				w.ents[p].holds.Add(w.sign)
			}
		}
		return
	}
	st := &w.steps[s]
	lp := &w.r.live.ixs[w.mp.ix[st.pat]]
	cands := lp.all
	if st.key >= 0 {
		cands = lp.buckets[st.key][w.ins[st.probePat].Binding(st.probeRef)]
	}
	y := w.y
cand:
	for _, c := range cands {
		if c.batch && c.seq >= y.seq {
			continue // the tuple belongs to a newer batch member (or is y itself)
		}
		for _, prev := range w.steps[:s] {
			if w.ents[prev.pat] == c {
				continue cand // patterns bind distinct instantiations
			}
		}
		w.ents[st.pat], w.ins[st.pat] = c, c.in
		for _, ck := range st.checks {
			if !ck.op.Apply(w.ins[ck.a].Binding(ck.aRef), w.ins[ck.b].Binding(ck.bRef)) {
				continue cand
			}
		}
		w.fill(s+1, prof)
	}
}
