// Command perfbench is the repository's benchmark. It runs an in-process
// fpd (server.New behind httptest.NewServer, real loopback HTTP), drives
// it with closed-loop clients for a fixed time, checks every answer, and
// prints the end-to-end metrics of one workload — or, with --trace 1, the
// per-layer metrics of a traced run — as the last line of its output.
//
//	perfbench --workload fleet --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/benchmeta"
	"repro/internal/server"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where the traced run writes its spans
	sizes    sizes
	reps     int // set-up repetitions; setup_s is their median
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "ingest, place-large or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.outDir = filepath.Join(".bench_build", "spans")
	cfg.sizes = fullSizes
	// Set-up repetitions: place-large uploads 15 MB per set-up, ingest's
	// set-up is the shortest and needs the most.
	cfg.reps = map[string]int{"ingest": 7, "place-large": 3}[cfg.workload]
	if cfg.reps == 0 {
		cfg.reps = 5
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// endToEnd and perLayer name the metrics of the last output line, as
// BENCHMARK.json lists them; the record line before it carries the rest.
var (
	endToEnd = []string{"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "filters_per_s", "peak_rss_mb"}
	perLayer = []string{
		"graph.parse_ms", "graph.parse_mb_per_s",
		"flow.model_ms", "flow.plan_ms", "flow.engine_ms",
		"flow.forward_ms", "flow.suffix_ms", "flow.suffix_over_forward", "flow.forward_medges_per_s", "flow.forward_bytes",
		"flow.round_ms.p1", "flow.round_ms.pN", "flow.round_speedup",
		"core.place_ms", "core.round_ms", "core.gain_evals", "core.passes_forward", "core.passes_suffix", "core.batch_ms",
		"sched.task_us", "sched.cpu_util",
		"server.handler_ms.upload", "server.handler_ms.place", "server.handler_ms.job", "server.handler_ms.evaluate",
		"server.handler_ms.batch", "server.handler_ms.patch", "server.handler_ms.delete",
		"server.queue_wait_ms", "server.run_ms", "server.decode_ms", "server.encode_ms", "server.cache_hit_ratio", "server.client_ms",
		"dyn.apply_ms", "flow.splice_ms", "flow.spliced_ratio",
		"obs.scrape_ms", "trace.overhead_ratio",
	}
)

// env is one running server under test.
type env struct {
	srv *server.Server
	ts  *httptest.Server
	on  atomic.Bool // tracing switch of the handler wrapper
}

func startEnv(tr *tracer) *env {
	e := &env{srv: server.New(server.Config{MaxGraphs: 64})}
	if tr == nil {
		e.ts = httptest.NewServer(e.srv)
	} else {
		e.ts = httptest.NewServer(tracedHandler(e.srv, tr, &e.on))
	}
	return e
}

func (e *env) close() {
	e.ts.Close()
	e.srv.Close()
}

// report is everything a run measured. The last line printed is the
// summary the benchmark contract asks for; the line before it carries
// the full record: host, seed, inputs, per-kind outcomes and sample
// counts.
type report struct {
	Host      benchmeta.Host        `json:"host"`
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Inputs    map[string]any        `json:"inputs"`
	Kinds     map[string]*tally     `json:"ops"`
	Known     map[string]*tally     `json:"known_defects,omitempty"`
	Checks    int                   `json:"checks_recomputed"`
	Samples   map[string]int        `json:"samples"`
	KindMS    map[string][3]float64 `json:"op_ms_by_kind"` // p50, p90, p99
	Errors    []string              `json:"errors,omitempty"`
	SpansFile string                `json:"spans_file,omitempty"`
	Metrics   metrics               `json:"metrics"`
	Extra     metrics               `json:"extra_metrics,omitempty"`
	Computed  metrics               `json:"computed,omitempty"`
	attempted int
	failed    int
}

type summary struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (r *report) print(f *os.File) error {
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(r); err != nil {
		return err
	}
	names := endToEnd
	if r.Trace {
		names = perLayer
	}
	last := summary{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics{}}
	for _, name := range names {
		m, ok := r.Metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		last.Metrics[name] = m
	}
	if err := enc.Encode(last); err != nil {
		return err
	}
	return w.Flush()
}

// phase is one timed closed-loop interval.
type phase struct {
	rec     *recorder
	opsPerS float64
	peakRSS float64 // MB
	cpuUtil float64 // process CPU ÷ (wall × CPUs)
}

// add folds another phase of equal length into p.
func (p *phase) add(o phase) {
	p.rec.merge(o.rec)
	p.opsPerS += o.opsPerS / 2
	p.cpuUtil += o.cpuUtil / 2
	p.peakRSS = max(p.peakRSS, o.peakRSS)
}

func run(cfg config) (*report, error) {
	procs := runtime.NumCPU()
	in, err := generate(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, err
	}
	w := newWorkload(cfg.workload, in, cfg.seed, procs, cfg.sizes)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up: a fresh server plus the resident uploads, several times;
	// the last server is the one measured.
	all := newRecorder()
	var setups []float64
	var e *env
	for range cfg.reps {
		if e != nil {
			e.close()
		}
		start := time.Now()
		e = startEnv(tr)
		c := newClient(e.ts.URL, e.srv, nil)
		err := w.setup(c)
		setups = append(setups, time.Since(start).Seconds())
		c.close()
		all.uploadMS = append(all.uploadMS, c.rec.uploadMS...)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer e.close()
	// Return the discarded set-up servers' memory before timing, so
	// peak_rss_mb measures the server under test, not set-up garbage.
	debug.FreeOSMemory()

	ops := make([]opFunc, w.clients())
	pauses := make([]func(*client) (bool, error), w.clients())
	for i := range ops {
		ops[i], pauses[i] = w.ops(i), w.pause(i)
	}
	rep := &report{Host: benchmeta.Current(), Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Inputs: w.stamp(), Metrics: metrics{}, Samples: map[string]int{}}
	rep.Inputs["setup_reps"] = cfg.reps

	var timed phase
	if !cfg.trace {
		timed = loop(e, ops, pauses, cfg.seconds, nil)
	} else {
		// Untraced and traced quarters alternate over the same op
		// sequences, so warm-up falls on both sides of the overhead ratio.
		var plain phase
		timed.rec, plain.rec = newRecorder(), newRecorder()
		m0 := e.srv.Metrics()
		var hits, misses int64
		for q := range 4 {
			traced := q%2 == 1
			var t *tracer
			if traced {
				t = tr
			}
			e.on.Store(traced)
			hits0, misses0 := m0.CacheHits.Load(), m0.CacheMisses.Load()
			ph := loop(e, ops, pauses, cfg.seconds/4, t)
			if traced {
				timed.add(ph)
				hits, misses = hits+m0.CacheHits.Load()-hits0, misses+m0.CacheMisses.Load()-misses0
			} else {
				plain.add(ph)
			}
		}
		all.merge(plain.rec)
		traceMetrics(tr.snapshot(), timed, rep.Metrics)
		hits0, misses0 := m0.CacheHits.Load(), m0.CacheMisses.Load()
		c := newClient(e.ts.URL, e.srv, tr)
		if err := probeRoutes(c, cfg.seed); err != nil {
			return nil, err
		}
		c.close()
		hits, misses = hits+m0.CacheHits.Load()-hits0, misses+m0.CacheMisses.Load()-misses0
		all.merge(c.rec)
		handlerMetrics(tr.snapshot(), rep.Metrics)
		e.on.Store(false)
		rep.Computed = metrics{}
		if err := probeLayers(tr, w, procs, cfg.seed, rep.Metrics, rep.Computed); err != nil {
			return nil, err
		}
		job := timed.rec.lastJob
		if job == nil {
			job = plain.rec.lastJob
		}
		probeCodec(tr, w.layerGraph(), job, rep.Metrics)
		rep.Metrics.set("server.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
		rep.Metrics.set("trace.overhead_ratio", timed.opsPerS/plain.opsPerS, "ratio")
		rep.Metrics.set("sched.cpu_util", timed.cpuUtil, "ratio")
		rep.SpansFile = filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(rep.SpansFile, tr.snapshot()); err != nil {
			return nil, err
		}
	}
	all.merge(timed.rec)

	// Recompute the sampled answers in process.
	failedChecks, checkErrs := verify(all.checks)
	for kind, n := range failedChecks {
		all.kinds[kind].Failed += n
	}
	rep.Checks = len(all.checks)
	rep.Kinds, rep.Known = all.kinds, all.known
	rep.Errors = append(all.errs, checkErrs...)
	rep.attempted, rep.failed = all.totals()
	if rep.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %gs", cfg.seconds)
	}

	ext := rep.Metrics
	if cfg.trace {
		ext = metrics{}
		rep.Extra = ext
	}
	ext.set("setup_s", median(setups), "s")
	ext.set("ops_per_s", timed.opsPerS, "1/s")
	ext.set("op_ms_p50", median(timed.rec.opMS), "ms")
	ext.set("op_ms_p90", percentile(timed.rec.opMS, 90), "ms")
	ext.set("op_ms_p99", percentile(timed.rec.opMS, 99), "ms")
	ext.set("upload_ms_p50", median(all.uploadMS), "ms")
	ext.set("place_ms_p50", median(timed.rec.placeMS), "ms")
	ext.set("filters_per_s", timed.rec.sumK/timed.rec.placeSec, "1/s")
	ext.set("peak_rss_mb", timed.peakRSS, "MB")
	ext.set("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")
	rep.KindMS = map[string][3]float64{}
	for kind, xs := range timed.rec.kindMS {
		rep.KindMS[kind] = [3]float64{median(xs), percentile(xs, 90), percentile(xs, 99)}
		rep.Samples["ops."+kind] = len(xs)
	}
	rep.Samples["ops"] = len(timed.rec.opMS)
	rep.Samples["uploads"] = len(all.uploadMS)
	rep.Samples["placements"] = len(timed.rec.placeMS)
	rep.Samples["setups"] = len(setups)
	return rep, nil
}

// loop runs every client's op sequence for the given seconds and merges
// their measurements. Pauses extend their client's deadline, so the
// measured window holds only ops.
func loop(e *env, ops []opFunc, pauses []func(*client) (bool, error), seconds float64, tr *tracer) phase {
	stop := make(chan struct{})
	rssDone := make(chan float64)
	go sampleRSS(stop, rssDone)
	cpu0 := cpuSeconds()
	start := time.Now()
	recs := make([]*recorder, len(ops))
	rates := make([]float64, len(ops))
	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(e.ts.URL, e.srv, tr)
			defer c.close()
			begin := time.Now()
			deadline := begin.Add(time.Duration(seconds * float64(time.Second)))
			var paused time.Duration
			n := 0
			for time.Now().Before(deadline) {
				if p := pauses[i]; p != nil {
					t := time.Now()
					did, err := p(c)
					if did {
						d := time.Since(t)
						paused += d
						deadline = deadline.Add(d)
						if err != nil {
							c.rec.count("pause", false, err)
						}
					}
				}
				c.op = tr.newID()
				t := time.Now()
				kind, known, err := ops[i](c)
				end := time.Now()
				tr.add(c.op, 0, c.op, "op."+kind, t, end)
				c.rec.count(kind, known, err)
				c.rec.opMS = append(c.rec.opMS, ms(end.Sub(t)))
				c.rec.kindMS[kind] = append(c.rec.kindMS[kind], ms(end.Sub(t)))
				n++
			}
			rates[i] = float64(n) / (time.Since(begin) - paused).Seconds()
			recs[i] = c.rec
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuSeconds() - cpu0
	close(stop)
	ph := phase{rec: newRecorder(), peakRSS: <-rssDone,
		cpuUtil: cpu / (wall.Seconds() * float64(runtime.NumCPU()))}
	for i, r := range recs {
		ph.rec.merge(r)
		ph.opsPerS += rates[i]
	}
	return ph
}

// traceMetrics derives the per-layer metrics of the traced loop: the
// client's own share of each request (its span's self time, the part no
// handler span covers) and the job engine's queue wait and run time.
func traceMetrics(spans []span, ph phase, out metrics) {
	self := selfTimes(spans)
	var clientSelf []float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "http.") {
			clientSelf = append(clientSelf, float64(self[s.ID])/1e6)
		}
	}
	out.set("server.client_ms", median(clientSelf), "ms")
	out.set("server.queue_wait_ms", median(ph.rec.queueMS), "ms")
	out.set("server.run_ms", median(ph.rec.runMS), "ms")
}

// handlerMetrics reports the median handler time per route kind over the
// traced loop and the route probe.
func handlerMetrics(spans []span, out metrics) {
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e6)
	}
	for _, kind := range []string{"upload", "place", "job", "evaluate", "batch", "patch", "delete"} {
		out.set("server.handler_ms."+kind, median(byName["server."+kind]), "ms")
	}
	out.set("obs.scrape_ms", median(byName["server.scrape"]), "ms")
}

// sampleRSS reports the peak resident set seen until stop closes.
func sampleRSS(stop <-chan struct{}, done chan<- float64) {
	peak := 0.0
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		peak = max(peak, rssMB())
		select {
		case <-stop:
			done <- max(peak, rssMB())
			return
		case <-tick.C:
		}
	}
}

// rssMB reads the process's resident set size from /proc/self/status.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
