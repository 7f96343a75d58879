package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/programs"
)

// Machine-readable benchmark output (`parbench -json`): one BENCH_*.json
// document per invocation, so the performance trajectory across PRs can be
// tracked by diffing documents instead of scraping tables.

// JSONResult is one (workload, configuration) measurement.
type JSONResult struct {
	Workload         string  `json:"workload"`
	Engine           string  `json:"engine"`
	Matcher          string  `json:"matcher"`
	Workers          int     `json:"workers"`
	WallNS           int64   `json:"wall_ns"` // fastest of the repetitions; every other figure is from the same one
	Cycles           int     `json:"cycles"`
	Firings          int     `json:"firings"`
	Redactions       int     `json:"redactions"`
	WriteConflicts   int     `json:"write_conflicts"`
	WMSize           int     `json:"wm_size"`
	MatchNS          int64   `json:"match_ns"`
	RedactNS         int64   `json:"redact_ns"`
	FireNS           int64   `json:"fire_ns"`
	ApplyNS          int64   `json:"apply_ns"`
	PotentialSpeedup float64 `json:"potential_speedup"` // sum/max of worker match time
	// TopRules are the five most-fired rules of the fastest repetition,
	// ordered by firing count — enough to spot a workload whose hot rule
	// set shifted between benchmark documents.
	TopRules []RuleFiring `json:"top_rules,omitempty"`
}

// RuleFiring is one rule's firing count within a result.
type RuleFiring struct {
	Rule  string `json:"rule"`
	Fires int    `json:"fires"`
}

// topRules ranks a RuleFires map and keeps the hottest n.
func topRules(fires map[string]int, n int) []RuleFiring {
	out := make([]RuleFiring, 0, len(fires))
	for rule, c := range fires {
		out = append(out, RuleFiring{Rule: rule, Fires: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fires != out[j].Fires {
			return out[i].Fires > out[j].Fires
		}
		return out[i].Rule < out[j].Rule
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// JSONDoc is the whole document.
type JSONDoc struct {
	Schema      string       `json:"schema"` // "parulel-bench/v1"
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	NumCPU      int          `json:"num_cpu"`
	Quick       bool         `json:"quick"`
	Results     []JSONResult `json:"results"`
}

// jsonConfig is one engine configuration of the document.
type jsonConfig struct {
	matcher string
	factory match.Factory
	workers int
}

// jsonConfigs are the engine configurations measured per workload: the
// worker-scaling axis on RETE plus a TREAT point, mirroring E2/E4.
var jsonConfigs = []jsonConfig{
	{"rete", rete.New, 1},
	{"rete", rete.New, 2},
	{"rete", rete.New, 4},
	{"treat", treat.New, 4},
}

// RunJSON measures the standard workload suite and returns the document.
func RunJSON(quick bool) (*JSONDoc, error) {
	doc := &JSONDoc{
		Schema:      "parulel-bench/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Quick:       quick,
	}
	for _, spec := range suite(quick) {
		for _, cfg := range jsonConfigs {
			row, err := measureRow(spec, cfg, reps(quick))
			if err != nil {
				return nil, fmt.Errorf("%s [%s w=%d]: %w", spec.name, cfg.matcher, cfg.workers, err)
			}
			doc.Results = append(doc.Results, row)
		}
	}
	return doc, nil
}

// measureRow runs one workload under one configuration reps times and
// reports the fastest rep. Every figure of the row comes from that rep,
// so its phases add up to no more than its wall time.
func measureRow(spec workloadSpec, cfg jsonConfig, reps int) (JSONResult, error) {
	// cur is the rep being timed; best the fastest so far.
	var cur, best struct {
		e   *core.Engine
		res core.Result
	}
	wall, err := minTime(reps, func() (func() error, error) {
		prog, err := programs.Load(spec.prog)
		if err != nil {
			return nil, err
		}
		e := core.New(prog, core.Options{
			Workers:   cfg.workers,
			Matcher:   cfg.factory,
			MaxCycles: 1 << 20,
		})
		if err := spec.load(e); err != nil {
			return nil, err
		}
		cur.e = e
		return func() error {
			var err error
			cur.res, err = e.Run()
			return err
		}, nil
	}, func() { best = cur })
	if err != nil {
		return JSONResult{}, err
	}
	m, r, f, a := best.res.Stats.Totals()
	matchWork, _ := best.e.WorkerWork()
	return JSONResult{
		Workload:         spec.name,
		Engine:           "parulel",
		Matcher:          cfg.matcher,
		Workers:          cfg.workers,
		WallNS:           wall.Nanoseconds(),
		Cycles:           best.res.Cycles,
		Firings:          best.res.Firings,
		Redactions:       best.res.Redactions,
		WriteConflicts:   best.res.WriteConflicts,
		WMSize:           best.e.Memory().Len(),
		MatchNS:          m.Nanoseconds(),
		RedactNS:         r.Nanoseconds(),
		FireNS:           f.Nanoseconds(),
		ApplyNS:          a.Nanoseconds(),
		PotentialSpeedup: potential(matchWork),
		TopRules:         topRules(best.e.RuleFires(), 5),
	}, nil
}

// WriteJSON renders the document, indented for diff-friendliness.
func WriteJSON(w io.Writer, doc *JSONDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
