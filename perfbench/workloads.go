package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"time"

	"repro/internal/flow"
	"repro/internal/server"
)

// opFunc runs one benchmark operation on c and reports its kind, whether
// it targets a known defect, and its failure, if any.
type opFunc func(c *client) (kind string, known bool, err error)

// workload is one traffic mix against one server.
type workload interface {
	// clients is the number of closed-loop clients.
	clients() int
	// setup uploads and warms the resident graphs through c; it runs
	// once per set-up repetition, each time against a fresh server.
	setup(c *client) error
	// ops returns client i's operation sequence. It is called once per
	// run, so the sequence continues across the phases of a traced run.
	ops(i int) opFunc
	// pause, when non-nil, runs before an op outside the timed window and
	// reports whether it did anything.
	pause(i int) func(c *client) (bool, error)
	// layerGraph is the graph the per-layer probes run on, and
	// batchGraphs the graphs of the core.PlaceBatch probe.
	layerGraph() *body
	batchGraphs() []*body
	stamp() map[string]any
}

func newWorkload(name string, in *inputs, seed int64, procs int, sz sizes) workload {
	switch name {
	case "ingest":
		return &ingestWL{in: in, seed: seed}
	case "place-large":
		return &largeWL{in: in, seed: seed, procs: procs, kLo: sz.largeKLo, kHi: sz.largeKHi}
	}
	return &fleetWL{in: in, seed: seed}
}

func clientRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
}

// upload registers b and checks the registered size.
func upload(c *client, b *body, tag string) (string, error) {
	start := time.Now()
	var gi server.GraphInfo
	err := c.call("upload", http.MethodPost, "/v1/graphs", b.uploadJSON(tag), http.StatusCreated, &gi)
	c.rec.uploadMS = append(c.rec.uploadMS, ms(time.Since(start)))
	if err != nil {
		return "", err
	}
	if gi.Nodes != b.g.N() || gi.Edges != b.g.M() {
		return "", fmt.Errorf("uploaded %s: server has %d nodes/%d edges, want %d/%d", b.name, gi.Nodes, gi.Edges, b.g.N(), b.g.M())
	}
	return gi.ID, nil
}

// warm runs a k=1 placement so the graph's lazy plan and engine state
// are built before timing.
func warm(c *client, id string, b *body, procs int) error {
	res, err := c.placeAndFetch(id, server.PlaceSpec{Algorithm: "gall", K: 1, Parallelism: procs})
	if err == nil {
		err = checkResult(res, b.g.N(), 1, false)
	}
	return err
}

// timedPlace runs one gall placement to its result and records its
// latency and budget.
func timedPlace(c *client, id string, spec server.PlaceSpec) (*server.PlaceResult, error) {
	start := time.Now()
	res, err := c.placeAndFetch(id, spec)
	c.rec.placeMS = append(c.rec.placeMS, ms(time.Since(start)))
	c.rec.placeSec += time.Since(start).Seconds()
	c.rec.sumK += float64(spec.K)
	return res, err
}

// ---- ingest ----

// ingestWL uploads a distinct body per op, places on it and deletes it.
type ingestWL struct {
	in   *inputs
	seed int64
}

const ingestK = 10

func (w *ingestWL) clients() int { return 2 }

// setup keeps the pool's largest body resident: a set-up of about 0.1 s
// reads steadier than one of a few milliseconds.
func (w *ingestWL) setup(c *client) error {
	b := w.in.pool[0]
	for _, p := range w.in.pool {
		if len(p.text) > len(b.text) {
			b = p
		}
	}
	id, err := upload(c, b, "resident")
	if err != nil {
		return err
	}
	return warm(c, id, b, 0)
}

func (w *ingestWL) pause(int) func(*client) (bool, error) { return nil }

func (w *ingestWL) ops(i int) opFunc {
	rng := clientRNG(w.seed, i)
	pool := w.in.pool
	var order []int
	n := 0
	return func(c *client) (string, bool, error) {
		if n%len(pool) == 0 {
			order = rng.Perm(len(pool)) // each pass visits the whole pool
		}
		bi := order[n%len(pool)]
		b := pool[bi]
		n++
		id, err := upload(c, b, fmt.Sprintf("client %d op %d", i, n))
		if err != nil {
			return "ingest", false, err
		}
		res, perr := timedPlace(c, id, server.PlaceSpec{Algorithm: "gall", K: ingestK})
		if perr == nil {
			perr = checkResult(res, b.g.N(), ingestK, true)
		}
		if perr == nil && n%8 == 0 {
			c.rec.checks = append(c.rec.checks, check{kind: "ingest", key: b.name, algo: "gall", k: ingestK, got: *res,
				build: func() (*flow.Model, error) { return flow.NewModel(b.g, nil) }})
		}
		err = c.call("delete", http.MethodDelete, "/v1/graphs/"+id, nil, http.StatusNoContent, nil)
		return "ingest", false, errors.Join(perr, err)
	}
}

func (w *ingestWL) layerGraph() *body    { return w.in.pool[len(w.in.pool)/2-1] }
func (w *ingestWL) batchGraphs() []*body { return w.in.pool[:min(8, len(w.in.pool))] }

func (w *ingestWL) stamp() map[string]any {
	return map[string]any{"clients": 2, "loop": "closed", "k": ingestK,
		"op": "upload distinct body, gall k=10 (P=1), fetch job, delete", "pool": stampOf(w.in.pool...)}
}

// ---- place-large ----

// largeWL places on one large resident graph with a k that never
// repeats on a graph id.
type largeWL struct {
	in       *inputs
	seed     int64
	procs    int
	kLo, kHi int
	id       string
}

func (w *largeWL) clients() int { return 1 }

func (w *largeWL) setup(c *client) error {
	id, err := upload(c, w.in.large, "")
	if err != nil {
		return err
	}
	w.id = id
	return warm(c, id, w.in.large, w.procs)
}

// ks pairs k with kLo+kHi−k in a seeded order, so every prefix of whole
// pairs has the same mean budget.
func (w *largeWL) ks() []int {
	lo, hi := w.kLo, w.kHi
	rng := clientRNG(w.seed, 0)
	var out []int
	for _, j := range rng.Perm((hi - lo + 1) / 2) {
		out = append(out, lo+j, hi-j)
	}
	if (hi-lo)%2 == 0 {
		out = append(out, (lo+hi)/2)
	}
	return out
}

func (w *largeWL) ops(int) opFunc {
	ks := w.ks()
	n := 0
	return func(c *client) (string, bool, error) {
		k := ks[n%len(ks)]
		n++
		res, err := timedPlace(c, w.id, server.PlaceSpec{Algorithm: "gall", K: k, Parallelism: w.procs})
		if err == nil {
			err = checkResult(res, w.in.large.g.N(), k, true)
		}
		if err == nil && n%8 == 0 {
			b := w.in.large
			c.rec.checks = append(c.rec.checks, check{kind: "place", key: b.name, algo: "gall", k: k, got: *res,
				build: func() (*flow.Model, error) { return flow.NewModel(b.g, nil) }})
		}
		return "place", false, err
	}
}

// pause re-uploads the graph under a fresh id once every k has been
// used, so no (graph, k) pair repeats however many ops a run completes.
func (w *largeWL) pause(int) func(*client) (bool, error) {
	n, per := 0, len(w.ks())
	return func(c *client) (bool, error) {
		n++
		if n == 1 || (n-1)%per != 0 {
			return false, nil
		}
		old := w.id
		if err := w.setup(c); err != nil {
			return true, err
		}
		return true, c.call("delete", http.MethodDelete, "/v1/graphs/"+old, nil, http.StatusNoContent, nil)
	}
}

func (w *largeWL) layerGraph() *body { return w.in.large }
func (w *largeWL) batchGraphs() []*body {
	out := make([]*body, 8)
	for i := range out {
		out[i] = w.in.large
	}
	return out
}

func (w *largeWL) stamp() map[string]any {
	return map[string]any{"clients": 1, "loop": "closed", "parallelism": w.procs, "k_mix": w.ks(),
		"op": "gall at parallelism=nproc with a non-repeating k, fetch job", "graph": stampOf(w.in.large)}
}

// ---- fleet ----

// fleetWL mixes cheap requests over many small resident graphs; each
// client owns the graphs with its parity, so its op sequence is
// deterministic.
type fleetWL struct {
	in        *inputs
	seed      int64
	ids       []string
	diamondID string
}

// fleetSlots is the repeating op schedule of each client; the last slot
// is a scrape on client 0 and a diamond-chain op on client 1.
var fleetSlots = []string{"gall", "evaluate", "gall", "gmax", "gall", "gl", "evaluate", "gall", "patch", "gall",
	"evaluate", "gall", "gmax", "gall", "batch", "gall", "evaluate", "gall", "gl", "special"}

const (
	fleetBatch    = 8
	fleetMaintain = 4
)

func (w *fleetWL) clients() int { return 2 }

func (w *fleetWL) setup(c *client) error {
	w.ids = w.ids[:0]
	for _, b := range w.in.fleet {
		id, err := upload(c, b, "")
		if err != nil {
			return err
		}
		if err := warm(c, id, b, 0); err != nil {
			return err
		}
		w.ids = append(w.ids, id)
	}
	id, err := upload(c, w.in.diamond, "")
	w.diamondID = id
	return err
}

func (w *fleetWL) pause(int) func(*client) (bool, error) { return nil }

// owned is one client's view of a resident graph: the edges its PATCHes
// added, in order, and the number of PATCHes so far.
type owned struct {
	idx     int
	added   [][2]int
	taken   map[[2]int]bool
	version int
}

func (o *owned) model(b *body) (string, func() (*flow.Model, error)) {
	added := append([][2]int(nil), o.added...)
	return fmt.Sprintf("fleet-%d-v%d", o.idx, o.version), func() (*flow.Model, error) { return modelOf(b.g, added) }
}

func (w *fleetWL) ops(i int) opFunc {
	rng := clientRNG(w.seed, i)
	var mine []*owned
	for gi := range w.in.fleet {
		if gi%2 == i {
			mine = append(mine, &owned{idx: gi, taken: map[[2]int]bool{}})
		}
	}
	n, counts := 0, map[string]int{}
	kOf := func() int { return 2 + 2*rng.Intn(3) }
	return func(c *client) (string, bool, error) {
		kind := fleetSlots[n%len(fleetSlots)]
		n++
		counts[kind]++
		o := mine[rng.Intn(len(mine))]
		b := w.in.fleet[o.idx]
		id := w.ids[o.idx]
		sample := func(algo string, k int, filters []int, res *server.PlaceResult, every int) {
			if counts[kind]%every == 0 {
				key, build := o.model(b)
				c.rec.checks = append(c.rec.checks, check{kind: kind, key: key, build: build, algo: algo, k: k, filters: filters, got: *res})
			}
		}
		switch kind {
		case "gall":
			k := kOf()
			res, err := timedPlace(c, id, server.PlaceSpec{Algorithm: "gall", K: k})
			if err == nil {
				err = checkResult(res, b.g.N(), k, false)
			}
			if err == nil {
				sample("gall", k, nil, res, 64)
			}
			return kind, false, err
		case "gmax", "gl":
			k := 2 + rng.Intn(7)
			res, job, err := c.place(id, server.PlaceSpec{Algorithm: kind, K: k})
			if err == nil && job != nil {
				err = fmt.Errorf("%s answered 202, want 200", kind)
			}
			if err == nil {
				err = checkResult(res, b.g.N(), k, false)
			}
			if err == nil {
				sample(kind, k, nil, res, 32)
			}
			return kind, false, err
		case "evaluate":
			filters := pick(rng, b.g.N(), 3)
			res, err := c.evaluate(id, filters)
			if err == nil {
				err = checkResult(res, b.g.N(), 3, false)
			}
			if err == nil {
				sample("evaluate", 3, filters, res, 64)
			}
			return kind, false, err
		case "patch":
			return kind, false, w.patch(c, rng, o, b, id)
		case "batch":
			return kind, false, w.batch(c, rng, mine, kOf(), counts[kind]%64 == 0)
		}
		if i == 0 {
			return "scrape", false, c.scrape()
		}
		return w.diamondOp(c, rng, counts[kind])
	}
}

// patch adds two DAG-preserving edges, removes the two oldest added ones
// once four are outstanding, and waits for the auto-maintain job.
func (w *fleetWL) patch(c *client, rng *rand.Rand, o *owned, b *body, id string) error {
	spec := server.PatchSpec{Maintain: true, K: fleetMaintain}
	for range 2 {
		// Drawn edges stay taken even if the PATCH fails, so later draws
		// never depend on the outcome.
		e := b.dagEdge(rng, o.taken)
		o.taken[e] = true
		spec.Add = append(spec.Add, e)
	}
	if len(o.added) >= 4 {
		spec.Remove = o.added[:2:2]
	}
	reqBody, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var pr server.PatchResult
	if err := c.call("patch", http.MethodPatch, "/v1/graphs/"+id+"/edges", reqBody, http.StatusOK, &pr); err != nil {
		return err
	}
	// The batch committed; mirror it.
	o.added = append(o.added[len(spec.Remove):], spec.Add...)
	for _, e := range spec.Remove {
		delete(o.taken, e)
	}
	o.version++
	if want := b.g.M() + len(o.added); pr.Graph.Edges != want {
		return fmt.Errorf("patched graph has %d edges, want %d", pr.Graph.Edges, want)
	}
	if pr.Job == nil {
		return fmt.Errorf("no maintain job: %s", pr.JobError)
	}
	info, err := c.awaitJob(pr.Job.ID)
	if err != nil {
		return err
	}
	return checkResult(info.Result, b.g.N(), fleetMaintain, false)
}

// batch places on fleetBatch of the client's graphs as one gang.
func (w *fleetWL) batch(c *client, rng *rand.Rand, mine []*owned, k int, sample bool) error {
	picked := rng.Perm(len(mine))[:min(fleetBatch, len(mine))]
	req := server.BatchPlaceSpec{Spec: server.PlaceSpec{Algorithm: "gall", K: k}}
	byID := map[string]*owned{}
	for _, p := range picked {
		id := w.ids[mine[p].idx]
		req.Graphs = append(req.Graphs, id)
		byID[id] = mine[p]
	}
	reqBody, err := json.Marshal(req)
	if err != nil {
		return err
	}
	// A fully cached batch answers 200 inline; otherwise 202 with a job.
	status, data, err := c.send("batch", http.MethodPost, "/v1/placements:batch", reqBody)
	if err != nil {
		return err
	}
	var items []server.BatchItem
	switch status {
	case http.StatusOK:
		var br server.BatchResult
		if err := decode(data, &br); err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		items = br.Graphs
	case http.StatusAccepted:
		var job server.JobInfo
		if err := decode(data, &job); err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		info, err := c.awaitJob(job.ID)
		if err != nil {
			return err
		}
		items = info.Batch
	default:
		return fmt.Errorf("batch: status %d: %.200s", status, data)
	}
	if len(items) != len(req.Graphs) {
		return fmt.Errorf("batch returned %d items for %d graphs", len(items), len(req.Graphs))
	}
	for _, it := range items {
		o := byID[it.GraphID]
		if o == nil || it.State != server.JobDone {
			return fmt.Errorf("batch item %s: state %s %s", it.GraphID, it.State, it.Error)
		}
		b := w.in.fleet[o.idx]
		if err := checkResult(it.Result, b.g.N(), k, false); err != nil {
			return fmt.Errorf("batch item %s: %w", it.GraphID, err)
		}
		if sample {
			key, build := o.model(b)
			c.rec.checks = append(c.rec.checks, check{kind: "batch", key: key, build: build, algo: "gall", k: k, got: *it.Result})
		}
	}
	return nil
}

// diamondOp evaluates or places on the diamond chain, whose path counts
// overflow float64; both currently answer 200 with an empty body.
func (w *fleetWL) diamondOp(c *client, rng *rand.Rand, n int) (string, bool, error) {
	b := w.in.diamond
	if n%2 == 1 {
		filters := pick(rng, b.g.N(), 3)
		res, err := c.evaluate(w.diamondID, filters)
		if err == nil {
			err = checkResult(res, b.g.N(), 3, false)
		}
		return "diamond.evaluate", true, err
	}
	res, err := c.placeAndFetch(w.diamondID, server.PlaceSpec{Algorithm: "gall", K: 2})
	if err == nil {
		err = checkResult(res, b.g.N(), 2, false)
	}
	return "diamond.gall", true, err
}

func (w *fleetWL) layerGraph() *body {
	big := w.in.fleet[0]
	for _, b := range w.in.fleet {
		if b.g.M() > big.g.M() {
			big = b
		}
	}
	return big
}

func (w *fleetWL) batchGraphs() []*body { return w.in.fleet[:min(fleetBatch, len(w.in.fleet))] }

func (w *fleetWL) stamp() map[string]any {
	return map[string]any{"clients": 2, "loop": "closed", "schedule": fleetSlots,
		"special_slot": "client 0: prometheus scrape; client 1: diamond-chain evaluate/gall (known overflow defect)",
		"gall_k":       []int{2, 4, 6}, "batch_graphs": fleetBatch, "maintain_k": fleetMaintain,
		"graphs": stampOf(w.in.fleet...), "diamond": stampOf(w.in.diamond)}
}

// pick draws k distinct nodes of [0, n).
func pick(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		v := rng.Intn(n)
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}
