package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"parulel/internal/audit"
	"parulel/internal/compile"
	"parulel/internal/lang"
	"parulel/internal/programs"
	"parulel/internal/server"
	"parulel/internal/wal"
)

// The alloc-serve traffic: serveClients closed-loop clients, each owning
// sessionsPerClient alexsys sessions that it uses in turn.
const (
	serveClients      = 2
	sessionsPerClient = 2
	seedPools         = 60
	seedOrders        = 40
	iterPools         = 4
	iterOrders        = 4
	readEvery         = 4
	serveSetupReps    = 5
	// maxSlice bounds the slices the timed window is split into. Central
	// values are medians over slices, so a few seconds of interference
	// from outside the process (CPU steal, a neighbour's disk traffic)
	// move them far less than they move a whole-window figure.
	maxSlice = 2 * time.Second
	// residentLimit bounds each session's working memory. Every iteration
	// retracts what the run allocated, so resident state stays near the
	// seed size; growth past this means state leaks across iterations.
	residentLimit = 500
)

// serveSession is one session's client-side state.
type serveSession struct {
	id                  string
	rng                 *rand.Rand
	nextPool, nextOrder int64
	expectWM            int // Σ asserted − Σ retracted, reconciled against every reply
	maxWM               int
}

// serveEnv is one booted server with its seeded sessions.
type serveEnv struct {
	dir      string
	srv      *server.Server
	ts       *httptest.Server
	client   *http.Client
	sessions []*serveSession
}

// opSample is one attempted HTTP operation.
type opSample struct {
	kind   string // write, run or read
	lat    time.Duration
	done   time.Duration // completion, from the start of the timed window
	out    outcome
	traced bool
	timing map[string]float64 // Server-Timing, trace mode only
}

// reply is a completed HTTP exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
	lat    time.Duration
	start  time.Duration // recorder clock, trace mode only
}

func (e *serveEnv) do(rec *recorder, method, path string, body any) (reply, error) {
	var buf io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return reply{}, err
		}
		buf = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, buf)
	if err != nil {
		return reply{}, err
	}
	var r reply
	if rec != nil {
		r.start = rec.now()
	}
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return r, err
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(t0)
	r.status, r.header = resp.StatusCode, resp.Header
	return r, err
}

// facts generates new pools and orders. Pool amounts are drawn from
// [10,109] as in workload.Alexsys. Each order's window (width 10–49) is
// drawn to contain one of this batch's new pools, so every order that
// arrives can be filled by something that arrives with it: resident
// state stays stationary over a run instead of drifting with the seed's
// random walk of unmatchable leftovers.
func (s *serveSession) facts(pools, orders int) []map[string]any {
	out := make([]map[string]any, 0, pools+orders)
	amounts := make([]int, pools)
	for i := range amounts {
		amounts[i] = 10 + s.rng.Intn(100)
		out = append(out, map[string]any{"template": "pool", "fields": map[string]any{
			"id": s.nextPool, "amount": amounts[i], "status": "free"}})
		s.nextPool++
	}
	for i := 0; i < orders; i++ {
		width := 10 + s.rng.Intn(40)
		lo := amounts[i%pools] - s.rng.Intn(width+1)
		out = append(out, map[string]any{"template": "order", "fields": map[string]any{
			"id": s.nextOrder, "lo": lo, "hi": lo + width, "filled": "no"}})
		s.nextOrder++
	}
	return out
}

type countReply struct {
	Count  int `json:"count"`
	WMSize int `json:"wm_size"`
}

type runReply struct {
	Quiescent bool `json:"quiescent"`
	WMSize    int  `json:"wm_size"`
}

// bootServe starts a server on a fresh data directory and creates and
// seeds every session: the serving workload's set-up.
func bootServe(work string, seed int64) (*serveEnv, error) {
	base := filepath.Join(work, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DataDir: dir, Fsync: wal.PolicyGroup})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &serveEnv{
		dir: dir,
		srv: srv,
		ts:  httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients, DisableCompression: true}},
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < serveClients*sessionsPerClient; i++ {
		r, err := e.do(nil, "POST", "/api/v1/sessions", map[string]any{"program": programs.Alexsys, "workers": 1})
		if err != nil || r.status != http.StatusCreated {
			e.close()
			return nil, fmt.Errorf("create session: status %d: %v %s", r.status, err, r.body)
		}
		var info struct{ ID string }
		if err := json.Unmarshal(r.body, &info); err != nil {
			e.close()
			return nil, err
		}
		s := &serveSession{id: info.ID, rng: rand.New(rand.NewSource(rng.Int63()))}
		e.sessions = append(e.sessions, s)
		if err := e.assert(nil, s, seedPools, seedOrders, nil); err != nil {
			e.close()
			return nil, fmt.Errorf("seed session: %w", err)
		}
		if err := e.run(nil, s, nil); err != nil {
			e.close()
			return nil, fmt.Errorf("seed run: %w", err)
		}
	}
	return e, nil
}

// close stops the server and its listener; it leaves the data directory
// for the audit.
func (e *serveEnv) close() error {
	e.ts.Close()
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return e.srv.Close(ctx)
}

// sampler records one attempted operation; an error from it fails the
// operation like a non-2xx reply or a failed body check does.
type sampler func(kind string, r reply, err error) error

func (e *serveEnv) assert(rec *recorder, s *serveSession, pools, orders int, sample sampler) error {
	facts := s.facts(pools, orders)
	r, err := e.do(rec, "POST", "/api/v1/sessions/"+s.id+"/facts", map[string]any{"facts": facts})
	if err := check(sample, "write", r, err); err != nil {
		return err
	}
	var c countReply
	if err := json.Unmarshal(r.body, &c); err != nil {
		return err
	}
	if c.Count != len(facts) {
		return fmt.Errorf("session %s: asserted %d facts, server counted %d", s.id, len(facts), c.Count)
	}
	s.expectWM += c.Count
	return s.reconcile(c.WMSize)
}

func (e *serveEnv) retract(rec *recorder, s *serveSession, tmpl, attr, val string, sample sampler) error {
	body := map[string]any{"template": tmpl, "fields": map[string]any{attr: val}}
	r, err := e.do(rec, "POST", "/api/v1/sessions/"+s.id+"/retract", body)
	if err := check(sample, "write", r, err); err != nil {
		return err
	}
	var c countReply
	if err := json.Unmarshal(r.body, &c); err != nil {
		return err
	}
	s.expectWM -= c.Count
	return s.reconcile(c.WMSize)
}

func (e *serveEnv) run(rec *recorder, s *serveSession, sample sampler) error {
	r, err := e.do(rec, "POST", "/api/v1/sessions/"+s.id+"/run", map[string]any{})
	if err := check(sample, "run", r, err); err != nil {
		return err
	}
	var rr runReply
	if err := json.Unmarshal(r.body, &rr); err != nil {
		return err
	}
	if !rr.Quiescent {
		return fmt.Errorf("session %s: run did not reach quiescence", s.id)
	}
	return s.reconcile(rr.WMSize)
}

func (e *serveEnv) read(rec *recorder, s *serveSession, sample sampler) error {
	r, err := e.do(rec, "GET", "/api/v1/sessions/"+s.id+"/wm?template=order&limit=50", nil)
	if err := check(sample, "read", r, err); err != nil {
		return err
	}
	var w struct {
		Total int `json:"total"`
		Facts []struct {
			Template string `json:"template"`
		} `json:"facts"`
	}
	if err := json.Unmarshal(r.body, &w); err != nil {
		return err
	}
	if len(w.Facts) != min(w.Total, 50) {
		return fmt.Errorf("session %s: read %d of %d orders with limit 50", s.id, len(w.Facts), w.Total)
	}
	for _, f := range w.Facts {
		if f.Template != "order" {
			return fmt.Errorf("session %s: read a %q fact for template order", s.id, f.Template)
		}
	}
	return nil
}

// reconcile holds the server's working-memory size to the client's
// running count of asserts minus retracts (alexsys has no initial facts
// and its runs only modify).
func (s *serveSession) reconcile(wmSize int) error {
	s.maxWM = max(s.maxWM, wmSize)
	if wmSize != s.expectWM {
		return fmt.Errorf("session %s: server holds %d facts, asserts minus retracts is %d", s.id, wmSize, s.expectWM)
	}
	if wmSize > residentLimit {
		return fmt.Errorf("session %s: %d resident facts exceed the bound of %d", s.id, wmSize, residentLimit)
	}
	return nil
}

func check(sample sampler, kind string, r reply, err error) error {
	if sample != nil {
		if serr := sample(kind, r, err); serr != nil {
			return serr
		}
	}
	if err != nil {
		return err
	}
	if classify(r.status, nil) != outcomeOK {
		return fmt.Errorf("%s: status %d: %s", kind, r.status, bytes.TrimSpace(r.body))
	}
	return nil
}

// metricsDoc is the part of /metrics the benchmark differences.
type metricsDoc struct {
	Engine struct {
		Cycles   uint64 `json:"cycles"`
		Fired    uint64 `json:"fired"`
		Redacted uint64 `json:"redacted"`
		Phases   map[string]struct {
			TotalNS int64 `json:"total_ns"`
		} `json:"phases"`
	} `json:"engine"`
	Durability struct {
		WALRecords        uint64 `json:"wal_records"`
		WALBytes          uint64 `json:"wal_bytes"`
		Fsyncs            uint64 `json:"fsyncs"`
		Checkpoints       uint64 `json:"checkpoints"`
		CheckpointTotalNS int64  `json:"checkpoint_total_ns"`
	} `json:"durability"`
}

func (e *serveEnv) scrape() (metricsDoc, error) {
	var d metricsDoc
	r, err := e.do(nil, "GET", "/metrics", nil)
	if err != nil {
		return d, err
	}
	if r.status != http.StatusOK {
		return d, fmt.Errorf("/metrics: status %d", r.status)
	}
	return d, json.Unmarshal(r.body, &d)
}

// serveLayers holds alloc-serve's traced-run numbers.
type serveLayers struct {
	stage         map[string][]float64 // Server-Timing ms per stage, over requests reporting it
	httpOther     []float64            // ms per request: latency − Σ stages
	runSum        float64              // Σ Server-Timing "run" over run requests, ms
	queueSum      float64              // Σ Server-Timing "queue" over run requests, ms
	walInRunSum   float64              // Σ Server-Timing "wal" over run requests, ms
	runs, ops     int
	before, after metricsDoc
	residentMax   int
	iterations    int
	allocBytes    uint64
	gcCycles      uint32
	gcPause       time.Duration
	heapGrowth    float64 // MiB of live heap gained over the window
}

func (l *serveLayers) fill(out map[string]float64) {
	p := func(stage string, q float64) float64 { return percentile(l.stage[stage], q) }
	out["server.session_wait_p50_ms"] = p("session", 50)
	out["server.session_wait_p99_ms"] = p("session", 99)
	out["server.queue_wait_p50_ms"] = p("queue", 50)
	out["server.queue_wait_p99_ms"] = p("queue", 99)
	out["server.run_p50_ms"] = p("run", 50)
	out["server.run_p99_ms"] = p("run", 99)
	out["server.http_other_ms"] = median(l.httpOther)
	out["wal.append_p50_ms"] = p("wal", 50)
	out["wal.append_p99_ms"] = p("wal", 99)
	out["wal.fsync_p50_ms"] = p("fsync", 50)
	out["wal.fsync_p99_ms"] = p("fsync", 99)
	a, b := l.after.Durability, l.before.Durability
	out["wal.fsyncs"] = float64(a.Fsyncs - b.Fsyncs)
	if n := a.Fsyncs - b.Fsyncs; n > 0 {
		out["wal.appends_per_fsync"] = float64(a.WALRecords-b.WALRecords) / float64(n)
	}
	if l.ops > 0 {
		out["wal.bytes_per_op"] = float64(a.WALBytes-b.WALBytes) / float64(l.ops)
	}
	out["checkpoint.count"] = float64(a.Checkpoints - b.Checkpoints)
	out["checkpoint.ms_total"] = float64(a.CheckpointTotalNS-b.CheckpointTotalNS) / 1e6
	out["wm.resident_facts"] = float64(l.residentMax)
	if l.runs > 0 {
		runs := float64(l.runs)
		ea, eb := l.after.Engine, l.before.Engine
		var phases float64
		for _, ph := range []string{"match", "redact", "fire", "apply"} {
			v := float64(ea.Phases[ph].TotalNS-eb.Phases[ph].TotalNS) / 1e6 / runs
			out[ph+".ms"] = v
			phases += v
		}
		out["engine.cycles"] = float64(ea.Cycles-eb.Cycles) / runs
		out["fire.firings"] = float64(ea.Fired-eb.Fired) / runs
		out["redact.killed"] = float64(ea.Redacted-eb.Redacted) / runs
		out["run.wall_ms"] = l.runSum / runs
		out["server.run_queue_ms"] = l.queueSum / runs
		out["server.run_wal_ms"] = l.walInRunSum / runs
		out["engine.other_ms"] = (l.runSum-l.queueSum-l.walInRunSum)/runs - phases
	}
	if l.iterations > 0 {
		it := float64(l.iterations)
		out["runtime.alloc_mb"] = float64(l.allocBytes) / (1 << 20) / it
		out["runtime.gc_cycles"] = float64(l.gcCycles) / it
		out["runtime.gc_pause_ms"] = ms(l.gcPause) / it
		out["runtime.heap_growth_mb_per_kiter"] = l.heapGrowth / it * 1000
	}
}

// runServe measures alloc-serve for cfg.seconds.
func runServe(cfg config) (*measurements, error) {
	m := &measurements{}
	env, err := setupServe(cfg, m)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		m.rec = rec
	}
	// The live heap is taken after set-up: each session's
	// core.Result.Stats.Cycles gains an entry per cycle for the session's
	// life, so the heap at the end of the window would track how many runs
	// the host's speed allowed. Its growth per iteration is reported in
	// the traced run as runtime.heap_growth_mb_per_kiter.
	m.liveHeapMB = liveHeapMB()
	layers := &serveLayers{stage: map[string][]float64{}}
	if layers.before, err = env.scrape(); err != nil {
		env.close()
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	if cfg.trace {
		runtime.ReadMemStats(&ms0)
	}
	w := env.drive(cfg, rec)
	if cfg.trace {
		runtime.ReadMemStats(&ms1)
	}
	if layers.after, err = env.scrape(); err != nil {
		env.close()
		return nil, err
	}
	if cfg.trace {
		layers.heapGrowth = liveHeapMB() - m.liveHeapMB
	}

	m.absorb(w, layers, cfg.trace)
	layers.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	layers.gcCycles = ms1.NumGC - ms0.NumGC
	layers.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	for _, s := range env.sessions {
		layers.residentMax = max(layers.residentMax, s.maxWM)
	}
	m.serve = layers
	for _, err := range env.finish() {
		m.fail(err)
	}
	return m, nil
}

// setupServe boots the server and seeds its sessions serveSetupReps
// times, keeping the last one.
func setupServe(cfg config, m *measurements) (*serveEnv, error) {
	src, err := programs.Source(programs.Alexsys)
	if err != nil {
		return nil, err
	}
	var env *serveEnv
	for i := 0; i < serveSetupReps; i++ {
		if env != nil {
			err := env.close()
			os.RemoveAll(env.dir)
			if err != nil {
				return nil, err
			}
		}
		// The server parses and compiles the program itself when the
		// sessions are created; these calls time the same two functions.
		t0 := time.Now()
		ast, err := lang.Parse(src)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := compile.Compile(ast); err != nil {
			return nil, err
		}
		t2 := time.Now()
		env, err = bootServe(cfg.work, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.parse = append(m.parse, ms(t1.Sub(t0)))
		m.compile = append(m.compile, ms(t2.Sub(t1)))
		m.setup = append(m.setup, time.Since(t2).Seconds())
	}
	return env, nil
}

// clientOut is what one client collected over the timed window.
type clientOut struct {
	samples    []opSample
	iterations int
	errs       []error
}

// window is the timed window's raw result.
type window struct {
	outs  []clientOut
	len   time.Duration
	slice time.Duration
	marks []time.Duration // process CPU time at every slice boundary
}

// drive runs the closed-loop clients for cfg.seconds. In a traced run
// every other pass over a client's sessions records spans.
func (e *serveEnv) drive(cfg config, rec *recorder) window {
	w := window{outs: make([]clientOut, serveClients), slice: sliceFor(cfg.seconds)}
	start := time.Now()
	stopCPU := make(chan struct{})
	cpuMarks := make(chan []time.Duration)
	go sampleCPU(w.slice, stopCPU, cpuMarks)
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(out *clientOut, mine []*serveSession) {
			defer wg.Done()
			for it := 0; time.Now().Before(deadline); it++ {
				traced := cfg.trace && (it/sessionsPerClient)%2 == 1
				sample := func(kind string, r reply, err error) error {
					o := opSample{kind: kind, lat: r.lat, done: time.Since(start), out: classify(r.status, err), traced: traced}
					if cfg.trace && err == nil {
						t, perr := parseServerTiming(r.header.Get("Server-Timing"))
						if perr != nil {
							return perr
						}
						o.timing = t
						if traced {
							recordRequest(rec, kind, r, t)
						}
					}
					out.samples = append(out.samples, o)
					return nil
				}
				var irec *recorder
				if traced {
					irec = rec
				}
				out.errs = append(out.errs, e.iterate(it, mine[it%sessionsPerClient], irec, sample)...)
				out.iterations++
			}
		}(&w.outs[c], e.sessions[c*sessionsPerClient:(c+1)*sessionsPerClient])
	}
	wg.Wait()
	w.len = time.Since(start)
	close(stopCPU)
	w.marks = <-cpuMarks
	return w
}

// iterate runs one iteration of the traffic mix against s.
func (e *serveEnv) iterate(it int, s *serveSession, rec *recorder, sample sampler) []error {
	steps := []func() error{
		func() error { return e.assert(rec, s, iterPools, iterOrders, sample) },
		func() error { return e.run(rec, s, sample) },
		func() error { return e.retract(rec, s, "pool", "status", "sold", sample) },
		func() error { return e.retract(rec, s, "order", "filled", "yes", sample) },
	}
	if it%readEvery == readEvery-1 {
		steps = append(steps, func() error { return e.read(rec, s, sample) })
	}
	var errs []error
	for _, step := range steps {
		if err := step(); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// absorb folds the window's samples into the measurements and, where the
// Server-Timing header was read, into the layer numbers.
func (m *measurements) absorb(w window, layers *serveLayers, trace bool) {
	failedBy := map[outcome]int{}
	slices := newServeSlices(w.slice, w.marks)
	for _, o := range w.outs {
		layers.iterations += o.iterations
		for _, err := range o.errs {
			m.fail(err)
		}
		for _, s := range o.samples {
			m.attempted++
			if s.out != outcomeOK {
				failedBy[s.out]++
				continue
			}
			m.ops++
			slices.add(s)
			lat := ms(s.lat)
			switch {
			case trace && s.kind == "run" && s.traced:
				m.tracedRun = append(m.tracedRun, s.lat.Seconds())
			case trace && s.kind == "run":
				m.untracedRun = append(m.untracedRun, s.lat.Seconds())
			case s.kind == "run":
				m.run = append(m.run, lat)
			case s.kind == "write":
				m.write = append(m.write, lat)
			case s.kind == "read":
				m.read = append(m.read, lat)
			}
			if s.timing == nil {
				continue
			}
			for name, d := range s.timing {
				layers.stage[name] = append(layers.stage[name], d)
			}
			layers.httpOther = append(layers.httpOther, lat-topLevel(s.timing))
			if s.kind == "run" {
				layers.runs++
				layers.runSum += s.timing["run"]
				layers.queueSum += s.timing["queue"]
				layers.walInRunSum += s.timing["wal"]
			}
		}
	}
	layers.ops = m.ops
	for o, n := range failedBy {
		m.note("%d operations failed as %v", n, o)
	}
	m.sliced = slices.medians()
	m.note("%d clients × %d sessions, %d iterations in %.2f s, fsync=group, session workers=1; "+
		"run_s, cpu_s, ops_per_s and the p50s are medians over %d slices of %v",
		serveClients, sessionsPerClient, layers.iterations, w.len.Seconds(), len(slices.s), w.slice)
}

// finish checks every session's final size as the server reports it,
// closes the server and audits its data directory.
func (e *serveEnv) finish() []error {
	var errs []error
	for _, s := range e.sessions {
		r, err := e.do(nil, "GET", "/api/v1/sessions/"+s.id, nil)
		var info struct {
			WMSize int `json:"wm_size"`
		}
		if err == nil {
			err = json.Unmarshal(r.body, &info)
		}
		if err == nil {
			err = s.reconcile(info.WMSize)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("final session info: %w", err))
		}
	}
	if err := e.close(); err != nil {
		errs = append(errs, fmt.Errorf("server close: %w", err))
	}
	if err := auditDir(e.dir); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// auditDir runs the offline WAL and ledger audit over the closed
// server's data directory; any error-level finding fails the run.
func auditDir(dir string) error {
	reports, err := audit.VerifyDataDir(dir)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	var errs []error
	for _, r := range reports {
		for _, f := range r.Findings {
			if f.Level == audit.Error {
				errs = append(errs, fmt.Errorf("audit %s: %s: %s", r.Session, f.Code, f.Detail))
			}
		}
	}
	return errors.Join(errs...)
}

// topLevel is the part of a request's latency the server accounts for:
// the session wait plus the run, or the WAL append for a mutation. The
// other stages nest: queue wait and the run's own WAL append inside run,
// fsync inside the append it paid for.
func topLevel(timing map[string]float64) float64 {
	if run, ok := timing["run"]; ok {
		return timing["session"] + run
	}
	return timing["session"] + timing["wal"]
}

// recordRequest records one traced request: the client-observed span and,
// laid out inside it, the stages the server reported. Server-Timing gives
// durations only, so positions follow the order the server runs them.
func recordRequest(rec *recorder, kind string, r reply, timing map[string]float64) {
	id := rec.newID()
	start := int64(r.start)
	rec.add(span{ID: id, Name: "http." + kind, Run: id, Start: start, End: start + int64(r.lat)})
	dur := func(stage string) int64 { return int64(timing[stage] * float64(time.Millisecond)) }
	stage := func(parent int64, name string, lo, hi int64) int64 {
		return rec.add(span{Parent: parent, Name: "server." + name, Run: id, Start: lo, End: hi, Derived: true})
	}
	at := start
	if _, ok := timing["session"]; ok {
		stage(id, "session", at, at+dur("session"))
		at += dur("session")
	}
	walParent := id
	walEnd := at + dur("wal")
	if _, ok := timing["run"]; ok {
		runEnd := at + dur("run")
		walParent = stage(id, "run", at, runEnd)
		if _, ok := timing["queue"]; ok {
			stage(walParent, "queue", at, at+dur("queue"))
		}
		walEnd = runEnd // a run appends its record as it finishes
	}
	if _, ok := timing["wal"]; ok {
		wal := stage(walParent, "wal", walEnd-dur("wal"), walEnd)
		if _, ok := timing["fsync"]; ok {
			stage(wal, "fsync", walEnd-dur("fsync"), walEnd)
		}
	}
}

// sliceFor splits a window of the given seconds into ten slices, each at
// most maxSlice long.
func sliceFor(seconds int) time.Duration {
	return min(maxSlice, time.Duration(seconds)*time.Second/10)
}

// sampleCPU records the process CPU time at the start and at every
// slice tick until stop closes, then sends the marks.
func sampleCPU(slice time.Duration, stop <-chan struct{}, out chan<- []time.Duration) {
	marks := []time.Duration{cpuTime()}
	t := time.NewTicker(slice)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			marks = append(marks, cpuTime())
		case <-stop:
			out <- marks
			return
		}
	}
}

// serveSlices buckets the completed operations of the timed window by
// the slice they completed in. Only whole slices, each bounded by two
// CPU marks, are kept.
type serveSlices struct {
	len time.Duration
	s   []sliceOps
}

type sliceOps struct {
	cpu              time.Duration
	ops, runs        int
	run, write, read []float64
}

func newServeSlices(slice time.Duration, marks []time.Duration) *serveSlices {
	ss := &serveSlices{len: slice}
	for i := 1; i < len(marks); i++ {
		ss.s = append(ss.s, sliceOps{cpu: marks[i] - marks[i-1]})
	}
	return ss
}

func (ss *serveSlices) add(o opSample) {
	i := int(o.done / ss.len)
	if i >= len(ss.s) {
		return
	}
	sl := &ss.s[i]
	sl.ops++
	switch o.kind {
	case "run":
		sl.runs++
		sl.run = append(sl.run, o.lat.Seconds())
	case "write":
		sl.write = append(sl.write, ms(o.lat))
	case "read":
		sl.read = append(sl.read, ms(o.lat))
	}
}

// medians returns the end-to-end values alloc-serve reports as medians
// over slices.
func (ss *serveSlices) medians() map[string]float64 {
	var run, cpu, ops, write, read []float64
	for _, sl := range ss.s {
		if sl.runs == 0 {
			continue
		}
		run = append(run, median(sl.run))
		cpu = append(cpu, sl.cpu.Seconds()/float64(sl.runs))
		ops = append(ops, float64(sl.ops)/ss.len.Seconds())
		write = append(write, median(sl.write))
		read = append(read, median(sl.read))
	}
	return map[string]float64{
		"run_s":        median(run),
		"cpu_s":        median(cpu),
		"ops_per_s":    median(ops),
		"write_p50_ms": median(write),
		"read_p50_ms":  median(read),
	}
}
