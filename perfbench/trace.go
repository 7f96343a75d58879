package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// span is one timed interval of the traced run. Times are offsets from
// the recorder's epoch. Run groups the spans of one batch run or one
// HTTP request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Run    int64  `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived marks a span whose position was laid out from a duration
	// the server reported (Server-Timing), not observed by the client.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the recorder's memory; spans beyond it are counted and
// dropped, which only thins the written trace, never the metrics.
const maxSpans = 500_000

// recorder keeps spans in memory until the benchmark ends. It is safe
// for concurrent use (the serving workload records from two clients).
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	nextID  int64
	dropped int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the benchmark's clock: the offset from the recorder's epoch.
func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// newID reserves a span id, so a parent's id can be handed to children
// recorded before the parent itself ends.
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a finished span; a zero ID is assigned a fresh one.
func (r *recorder) add(s span) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.nextID++
		s.ID = r.nextID
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return s.ID
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, name string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children count
// once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// probedMatcher wraps one worker's matcher and times its Apply calls.
// Each instance is used by exactly one worker goroutine; the engine reads
// it only after the match phase has joined its workers.
type probedMatcher struct {
	inner          match.Matcher
	calls          int
	busy           time.Duration
	added, removed int
	// lo/hi bound this cycle's Apply call; set again every cycle.
	lo, hi time.Duration
	rec    *recorder
}

func (p *probedMatcher) Apply(d wm.Delta) match.Changes {
	lo := p.rec.now()
	ch := p.inner.Apply(d)
	hi := p.rec.now()
	p.lo, p.hi = lo, hi
	p.calls++
	p.busy += hi - lo
	p.added += len(ch.Added)
	p.removed += len(ch.Removed)
	return ch
}

func (p *probedMatcher) ConflictSet() []*match.Instantiation { return p.inner.ConflictSet() }

func (p *probedMatcher) MemStats() match.MemStats { return p.inner.MemStats() }

// runTrace is the traced run's adapter onto the engine's public hooks: a
// core.Tracer whose callbacks it stamps with the benchmark's own clock,
// and a match.Factory that wraps every worker's matcher. One runTrace
// serves one engine for one run.
type runTrace struct {
	rec      *recorder
	runID    int64
	matchers []*probedMatcher

	stepID int64
	prev   time.Duration // stamp of the previous callback this cycle

	steps                      []time.Duration
	match, redact, fire, apply time.Duration
	eligible, killed, rounds   int
	firings, delta, conflicts  int
	cycles                     int
}

// factory wraps base so every matcher the engine builds is probed.
func (t *runTrace) factory(base match.Factory) match.Factory {
	return func(rules []*compile.Rule) match.Matcher {
		p := &probedMatcher{inner: base(rules), rec: t.rec}
		t.matchers = append(t.matchers, p)
		return p
	}
}

// step runs one Engine.Step inside a "step" span.
func (t *runTrace) step(eng *core.Engine) (bool, error) {
	t.stepID = t.rec.newID()
	start := t.rec.now()
	progress, err := eng.Step()
	end := t.rec.now()
	t.rec.add(span{ID: t.stepID, Parent: t.runID, Name: "step", Run: t.runID, Start: int64(start), End: int64(end)})
	t.steps = append(t.steps, end-start)
	return progress, err
}

func (t *runTrace) phase(name string, lo, hi time.Duration) int64 {
	return t.rec.add(span{Parent: t.stepID, Name: name, Run: t.runID, Start: int64(lo), End: int64(hi)})
}

func (t *runTrace) CycleStart(int) { t.prev = t.rec.now() }

// PhaseEnd ignores the engine's own duration: the match phase is the
// span of this cycle's Apply calls, and each later phase runs from the
// previous callback to this one.
func (t *runTrace) PhaseEnd(p core.Phase, _ time.Duration) {
	now := t.rec.now()
	switch p {
	case core.PhaseMatch:
		lo, hi := now, t.prev
		for _, m := range t.matchers {
			lo, hi = min(lo, m.lo), max(hi, m.hi)
		}
		if hi < lo {
			lo, hi = t.prev, t.prev
		}
		id := t.phase("match", lo, hi)
		for _, m := range t.matchers {
			t.rec.add(span{Parent: id, Name: "match.apply", Run: t.runID, Start: int64(m.lo), End: int64(m.hi)})
		}
		t.match += hi - lo
	case core.PhaseRedact:
		t.phase("redact", t.prev, now)
		t.redact += now - t.prev
	case core.PhaseFire:
		t.phase("fire", t.prev, now)
		t.fire += now - t.prev
	case core.PhaseApply:
		t.phase("apply", t.prev, now)
		t.apply += now - t.prev
	}
	t.prev = now
}

func (t *runTrace) InstantiationsFound(_, eligible int) { t.eligible += eligible }

func (t *runTrace) Redacted(redacted, rounds, _ int) {
	t.killed += redacted
	t.rounds += rounds
}

func (t *runTrace) RuleFired(_ string, count int) { t.firings += count }

func (t *runTrace) Commit(deltaSize, writeConflicts int, _ bool) {
	t.delta += deltaSize
	t.conflicts += writeConflicts
	t.cycles++
}

// memStats sums the wrapped matchers' state sizes.
func (t *runTrace) memStats() match.MemStats {
	var out match.MemStats
	for _, m := range t.matchers {
		s := m.MemStats()
		out.AlphaItems += s.AlphaItems
		out.BetaTokens += s.BetaTokens
		out.ConflictSet += s.ConflictSet
	}
	return out
}

// phases is Σ match+redact+fire+apply wall over the run.
func (t *runTrace) phases() time.Duration { return t.match + t.redact + t.fire + t.apply }

// workerBalance is Σ/max of the workers' match+fire busy time: 1 when
// one worker does everything, the worker count when load is even.
func workerBalance(matchWork, fireWork []time.Duration) float64 {
	var sum, top time.Duration
	for i := range matchWork {
		w := matchWork[i] + fireWork[i]
		sum += w
		top = max(top, w)
	}
	if top == 0 {
		return 1
	}
	return float64(sum) / float64(top)
}

// parseServerTiming reads a Server-Timing header ("name;dur=1.5, …")
// into per-name milliseconds. Entries without a duration are skipped.
func parseServerTiming(h string) (map[string]float64, error) {
	out := make(map[string]float64, 6)
	for _, entry := range strings.Split(h, ",") {
		name, params, _ := strings.Cut(entry, ";")
		name = strings.TrimSpace(name)
		for _, p := range strings.Split(params, ";") {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			d, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("server-timing %q: bad dur %q", name, v)
			}
			out[name] += d
		}
	}
	return out, nil
}
