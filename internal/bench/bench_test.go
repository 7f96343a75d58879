package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestExperimentsRunQuick executes every experiment at quick size and
// sanity-checks the emitted tables.
func TestExperimentsRunQuick(t *testing.T) {
	wantHeader := map[string]string{
		"e1":  "cycle-ratio",
		"e2":  "match-pot",
		"e3":  "split-k",
		"e4":  "matcher",
		"e5":  "redact%",
		"e6":  "over-allocated-orders",
		"e7":  "redact-share",
		"e8":  "semantics",
		"e9":  "strategy",
		"e10": "beta-tokens",
	}
	for _, id := range Order {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Experiments[id](&buf, true); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out := buf.String()
			if !strings.Contains(out, wantHeader[id]) {
				t.Errorf("%s output missing %q:\n%s", id, wantHeader[id], out)
			}
			if lines := strings.Count(out, "\n"); lines < 4 {
				t.Errorf("%s output too short (%d lines):\n%s", id, lines, out)
			}
		})
	}
}

func TestOrderCoversExperiments(t *testing.T) {
	if len(Order) != len(Experiments) {
		t.Fatalf("Order has %d ids, Experiments %d", len(Order), len(Experiments))
	}
	for _, id := range Order {
		if Experiments[id] == nil {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestPotential(t *testing.T) {
	if p := potential(nil); p != 1 {
		t.Errorf("potential(nil) = %v, want 1", p)
	}
	if p := potential([]time.Duration{4, 4, 4, 4}); p != 4 {
		t.Errorf("balanced potential = %v, want 4", p)
	}
	if p := potential([]time.Duration{8, 0, 0, 0}); p != 1 {
		t.Errorf("serial potential = %v, want 1", p)
	}
	if p := potential([]time.Duration{6, 2}); p != (8.0 / 6.0) {
		t.Errorf("skewed potential = %v, want %v", p, 8.0/6.0)
	}
}

// TestMinTimeKeepsFastestRep: kept runs after each new fastest rep, so
// what it captures belongs to the rep whose time minTime returns.
func TestMinTimeKeepsFastestRep(t *testing.T) {
	sleeps := []time.Duration{30 * time.Millisecond, time.Millisecond, 15 * time.Millisecond}
	var rep, kept int
	best, err := minTime(len(sleeps), func() (func() error, error) {
		d := sleeps[rep]
		return func() error { time.Sleep(d); rep++; return nil }, nil
	}, func() { kept = rep - 1 })
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 {
		t.Errorf("kept rep %d, want the fastest, rep 1", kept)
	}
	if best < sleeps[1] || best >= sleeps[2] {
		t.Errorf("best %v, want rep 1's time (slept %v)", best, sleeps[1])
	}
}

// TestJSONRowPhasesWithinWall: a row's phase times come from the rep
// that set its wall time, so they never add up to more than it.
func TestJSONRowPhasesWithinWall(t *testing.T) {
	for _, spec := range suite(true) {
		for _, cfg := range jsonConfigs[:2] {
			r, err := measureRow(spec, cfg, 3)
			if err != nil {
				t.Fatalf("%s: %v", spec.name, err)
			}
			if sum := r.MatchNS + r.RedactNS + r.FireNS + r.ApplyNS; sum > r.WallNS {
				t.Errorf("%s [%s w=%d]: phases add up to %d ns, more than the wall time %d ns",
					spec.name, cfg.matcher, cfg.workers, sum, r.WallNS)
			}
		}
	}
}
