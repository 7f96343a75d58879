package load

import (
	"math/rand"
	"testing"
	"time"
)

func TestWithDefaultsLeavesCallerURLs(t *testing.T) {
	urls := []string{"http://a/", "http://b"}
	cfg := Config{BaseURLs: urls}.withDefaults()
	if urls[0] != "http://a/" || urls[1] != "http://b" {
		t.Fatalf("withDefaults rewrote the caller's BaseURLs: %q", urls)
	}
	if cfg.BaseURLs[0] != "http://a" || cfg.BaseURLs[1] != "http://b" {
		t.Fatalf("trimmed BaseURLs = %q, want [http://a http://b]", cfg.BaseURLs)
	}
	if got := (Config{BaseURL: "http://c/"}).withDefaults().BaseURLs; len(got) != 1 || got[0] != "http://c" {
		t.Fatalf("BaseURL fallback = %q, want [http://c]", got)
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("wal;dur=1.5, run;desc=\"engine\";dur=2,wal;dur=0.5, queue;desc=x, fsync")
	want := map[string]time.Duration{"wal": 2 * time.Millisecond, "run": 2 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, d := range want {
		if got[k] != d {
			t.Errorf("%s = %v, want %v", k, got[k], d)
		}
	}
	if got := parseServerTiming(""); got != nil {
		t.Errorf("empty header parsed to %v, want nil", got)
	}
	if got := parseServerTiming("queue;desc=x, fsync"); got != nil {
		t.Errorf("header without durations parsed to %v, want nil", got)
	}
}

func TestPickFollowsMix(t *testing.T) {
	for _, m := range []Mix{
		{Assert: 3, Batch: 1, Snapshot: 2},
		{Batch: 1, Run: 1, Stream: 2},
	} {
		const draws = 60000
		rng := rand.New(rand.NewSource(1))
		counts := map[string]int{}
		for i := 0; i < draws; i++ {
			counts[pick(m, rng)]++
		}
		weights := map[string]int{
			"assert": m.Assert, "batch": m.Batch, "run": m.Run,
			"snapshot": m.Snapshot, "stream": m.Stream,
		}
		for op, w := range weights {
			share := float64(counts[op]) / draws
			want := float64(w) / float64(m.total())
			if w == 0 && counts[op] != 0 {
				t.Errorf("mix %+v: zero-weight %s drawn %d times", m, op, counts[op])
			}
			if share < want-0.01 || share > want+0.01 {
				t.Errorf("mix %+v: %s share %.3f, want %.3f", m, op, share, want)
			}
		}
	}
}
