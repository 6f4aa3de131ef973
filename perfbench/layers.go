package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dyn"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/server"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// repeat times fn at least minReps times and until minTime has passed
// (never more than maxReps), recording a span per call, and returns the
// median in milliseconds.
func repeat(tr *tracer, name string, minReps, maxReps int, minTime time.Duration, fn func()) float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < maxReps && (len(xs) < minReps || time.Since(start) < minTime) {
		xs = append(xs, ms(tr.time(name, 0, fn)))
	}
	return median(xs)
}

// probeLayers times the calls into each module's public functions on the
// workload's layer graph, from outside the server, into out; figures
// derived from CSR sizes rather than measured go to computed. Heavy calls
// repeat fewer times on large graphs.
func probeLayers(tr *tracer, w workload, procs int, seed int64, out, computed metrics) error {
	lg := w.layerGraph()
	heavy := 3
	if lg.g.M() < 200_000 {
		heavy = 7
	}
	rng := rand.New(rand.NewSource(seed))

	// graph: edge-list parse.
	parse := repeat(tr, "graph.parse", heavy, heavy, 0, func() {
		if _, err := graph.ReadEdgeList(strings.NewReader(lg.text)); err != nil {
			panic(err) // the harness generated this text and parsed it once already
		}
	})
	out.set("graph.parse_ms", parse, "ms")
	out.set("graph.parse_mb_per_s", float64(len(lg.text))/1e6/(parse/1e3), "MB/s")

	// flow: model, plan, engine invariants.
	var m *flow.Model
	newModel := func() {
		var err error
		if m, err = flow.NewModel(lg.g, nil); err != nil {
			panic(err)
		}
	}
	out.set("flow.model_ms", repeat(tr, "flow.model", heavy, heavy, 0, newModel), "ms")
	var plans []float64
	for range heavy {
		newModel()
		plans = append(plans, ms(tr.time("flow.plan", 0, func() { m.Plan() })))
	}
	out.set("flow.plan_ms", median(plans), "ms")
	var ev *flow.FloatEngine
	out.set("flow.engine_ms", repeat(tr, "flow.engine", heavy, heavy, 0, func() { ev = flow.NewFloat(m) }), "ms")

	// flow kernels under a 10-filter mask.
	n, edges := m.N(), m.Plan().M()
	mask := flow.MaskOf(n, pick(rng, n, min(10, n)))
	fwd := repeat(tr, "flow.forward", 10, 400, 300*time.Millisecond, func() { ev.Phi(mask) })
	suf := repeat(tr, "flow.suffix", 10, 400, 300*time.Millisecond, func() { ev.Suffix(mask) })
	out.set("flow.forward_ms", fwd, "ms")
	out.set("flow.suffix_ms", suf, "ms")
	out.set("flow.suffix_over_forward", suf/fwd, "ratio")
	out.set("flow.forward_medges_per_s", float64(edges)/1e6/(fwd/1e3), "Medge/s")
	// Computed, not measured: the bytes one unweighted pass moves over the
	// plan CSR. Forward: inOff and inAdj (4 B each), the emit gather (8 B
	// per edge), rec and emit writes (8 B each per node), source and
	// filter masks (1 B each per node). Suffix: outOff and outAdj (4 B
	// each), the suf and mask gathers (9 B per edge), the suf write (8 B
	// per node).
	out.set("flow.forward_bytes", float64(22*n+12*edges+4), "B")
	computed.set("flow.forward_bytes", float64(22*n+12*edges+4), "B")
	computed.set("flow.suffix_bytes", float64(12*n+13*edges+4), "B")
	computed.set("flow.edges_per_pass", float64(edges), "count")
	computed.set("flow.nodes_per_pass", float64(n), "count")

	// flow greedy round: serial vs level-parallel argmax.
	p1 := repeat(tr, "flow.round.p1", 10, 400, 300*time.Millisecond, func() { ev.ArgmaxImpact(mask, mask) })
	pN := repeat(tr, "flow.round.pN", 10, 400, 300*time.Millisecond, func() { ev.ArgmaxImpactP(mask, mask, procs) })
	out.set("flow.round_ms.p1", p1, "ms")
	out.set("flow.round_ms.pN", pN, "ms")
	out.set("flow.round_speedup", p1/pN, "ratio")

	// core: one greedy-all placement, then a gang of them.
	const k = 10
	var res core.Result
	var err error
	place := repeat(tr, "core.place", heavy, heavy, 0, func() {
		res, err = core.Place(context.Background(), flow.NewFloat(m), k, core.Options{Strategy: core.StrategyGreedyAll, Parallelism: procs})
	})
	if err != nil {
		return fmt.Errorf("core.Place: %w", err)
	}
	out.set("core.place_ms", place, "ms")
	out.set("core.round_ms", place/float64(max(res.Stats.Iterations, 1)), "ms")
	out.set("core.gain_evals", float64(res.Stats.GainEvaluations), "count")
	out.set("core.passes_forward", float64(res.Passes.Forward), "count")
	out.set("core.passes_suffix", float64(res.Passes.Suffix), "count")
	var evs []flow.Evaluator
	for _, b := range w.batchGraphs() {
		bm, err := flow.NewModel(b.g, nil)
		if err != nil {
			return err
		}
		evs = append(evs, flow.NewFloat(bm))
	}
	out.set("core.batch_ms", repeat(tr, "core.batch", 3, 3, 0, func() {
		_, err = core.PlaceBatch(context.Background(), evs, k, core.Options{Strategy: core.StrategyGreedyAll})
	}), "ms")
	if err != nil {
		return fmt.Errorf("core.PlaceBatch: %w", err)
	}

	// sched: dispatch cost of an empty task.
	const tasks = 1000
	task := repeat(tr, "sched.batch", 20, 20, 0, func() {
		b := sched.Default().NewBatch()
		for range tasks {
			b.Go(func() {})
		}
		b.Wait()
	})
	out.set("sched.task_us", task*1e3/tasks, "us")

	return probeDyn(tr, lg, m, rng, out)
}

// probeDyn applies small DAG-preserving batches to a dynamic copy of the
// layer graph and repairs its plan after each.
func probeDyn(tr *tracer, lg *body, m *flow.Model, rng *rand.Rand, out metrics) error {
	d, err := dyn.FromDigraph(lg.g, m.Sources())
	if err != nil {
		return err
	}
	sp := flow.NewSplicer(d, m.Plan(), flow.SpliceOptions{})
	taken := map[[2]int]bool{}
	var added [][2]int
	var applyMS, spliceMS []float64
	spliced := 0
	const batches = 20
	for range batches {
		var b dyn.Batch
		for range 2 {
			e := lg.dagEdge(rng, taken)
			taken[e] = true
			b.Add = append(b.Add, e)
		}
		if len(added) >= 4 {
			b.Remove = added[:2]
			added = added[2:]
			for _, e := range b.Remove {
				delete(taken, e)
			}
		}
		added = append(added, b.Add...)
		var res dyn.ApplyResult
		applyMS = append(applyMS, ms(tr.time("dyn.apply", 0, func() { res, err = d.Apply(b) })))
		if err != nil {
			return fmt.Errorf("dyn.Apply: %w", err)
		}
		var st flow.SpliceStats
		spliceMS = append(spliceMS, ms(tr.time("flow.splice", 0, func() { _, st = sp.Apply(res.DirtyFwd, res.DirtyBwd, res.NodesAdded) })))
		if st.Spliced {
			spliced++
		}
	}
	out.set("dyn.apply_ms", median(applyMS), "ms")
	out.set("flow.splice_ms", median(spliceMS), "ms")
	out.set("flow.spliced_ratio", float64(spliced)/batches, "ratio")
	return nil
}

// probeCodec times the server's request decode and response encode on
// the workload's own payloads.
func probeCodec(tr *tracer, lg *body, job *server.JobInfo, out metrics) {
	up := lg.uploadJSON("")
	out.set("server.decode_ms", repeat(tr, "server.decode", 5, 200, 200*time.Millisecond, func() {
		var gs server.GraphSpec
		dec := json.NewDecoder(bytes.NewReader(up))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&gs); err != nil {
			panic(err)
		}
	}), "ms")
	out.set("server.encode_ms", repeat(tr, "server.encode", 50, 5000, 100*time.Millisecond, func() {
		if _, err := json.Marshal(job); err != nil {
			panic(err)
		}
	}), "ms")
}

// probeRoutes sends every route kind the workloads use against a small
// graph, so each server.handler_ms.<kind> has samples on every workload.
func probeRoutes(c *client, seed int64) error {
	g, _ := gen.QuoteLike(seed)
	b, err := newBody("probe-quote", g)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range 10 {
		c.op = c.tr.newID()
		start := time.Now()
		err := probeRoutesOnce(c, b, rng, i)
		c.tr.add(c.op, 0, c.op, "op.probe", start, time.Now())
		c.rec.count("probe", false, err)
	}
	return nil
}

func probeRoutesOnce(c *client, b *body, rng *rand.Rand, i int) error {
	id, err := upload(c, b, fmt.Sprintf("probe %d", i))
	if err != nil {
		return err
	}
	const k = 3
	spec := server.PlaceSpec{Algorithm: "gall", K: k}
	first, err := c.placeAndFetch(id, spec)
	if err == nil {
		err = checkResult(first, b.g.N(), k, true)
	}
	if err != nil {
		return err
	}
	if hit, _, err := c.place(id, spec); err != nil || hit == nil || !hit.Cached {
		return fmt.Errorf("repeat placement: want a cached 200, got %v (err %v)", hit, err)
	}
	if _, _, err := c.place(id, server.PlaceSpec{Algorithm: "gmax", K: k}); err != nil {
		return err
	}
	if ev, err := c.evaluate(id, first.Filters); err != nil {
		return err
	} else if err := checkResult(ev, b.g.N(), k, false); err != nil {
		return err
	}
	batch, _ := json.Marshal(server.BatchPlaceSpec{Graphs: []string{id}, Spec: spec})
	if err := c.call("batch", http.MethodPost, "/v1/placements:batch", batch, http.StatusOK, nil); err != nil {
		return err
	}
	patch, _ := json.Marshal(server.PatchSpec{Add: [][2]int{b.dagEdge(rng, nil)}, Maintain: true, K: k})
	var pr server.PatchResult
	if err := c.call("patch", http.MethodPatch, "/v1/graphs/"+id+"/edges", patch, http.StatusOK, &pr); err != nil {
		return err
	}
	if pr.Job == nil {
		return fmt.Errorf("no maintain job: %s", pr.JobError)
	}
	if _, err := c.awaitJob(pr.Job.ID); err != nil {
		return err
	}
	if err := c.scrape(); err != nil {
		return err
	}
	return c.call("delete", http.MethodDelete, "/v1/graphs/"+id, nil, http.StatusNoContent, nil)
}
