package server

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/obs"
)

// PlaceSpec is the POST /v1/graphs/{id}/place request body.
type PlaceSpec struct {
	Algorithm string `json:"algorithm"`
	// K is the filter budget, 1 ≤ k ≤ n (ignored by prop1, which places
	// at every merge node).
	K int `json:"k,omitempty"`
	// Engine selects the arithmetic: "float" (default) or "big".
	Engine string `json:"engine,omitempty"`
	// Sources overrides the graph's registered sources for this request.
	Sources []int `json:"sources,omitempty"`
	// Seed feeds the randomized baselines (randk/randi/randw).
	Seed int64 `json:"seed,omitempty"`
	// Parallelism bounds the worker goroutines evaluating marginal gains
	// for this placement; 0 means serial, values above the server's
	// MaxParallelism are clamped. Results are bit-for-bit independent of
	// the setting, so it does not participate in the result-cache key.
	Parallelism int `json:"parallelism,omitempty"`
}

// PlaceResult is the placement outcome, returned inline for synchronous
// algorithms and through the job API for asynchronous ones.
type PlaceResult struct {
	GraphID   string   `json:"graph_id"`
	Algorithm string   `json:"algorithm"`
	K         int      `json:"k"`
	Filters   []int    `json:"filters"`
	Labels    []string `json:"labels,omitempty"`
	PhiEmpty  float64  `json:"phi_empty"`
	PhiA      float64  `json:"phi_filtered"`
	F         float64  `json:"f"`
	FR        float64  `json:"fr"`
	Cached    bool     `json:"cached"`
	// Parallelism is the worker count the placement actually used.
	Parallelism int `json:"parallelism,omitempty"`
	// Oracle counts the objective-function work the algorithm spent
	// (omitted for strategies that do no marginal-gain evaluation).
	Oracle *core.OracleStats `json:"oracle,omitempty"`
	// Passes counts the topological passes the placement executed — the
	// engine-level cost behind the oracle calls. Unlike Oracle it is an
	// execution measurement and may vary across parallelism settings
	// (parallel CELF runs speculative evaluations), so it never enters
	// cache keys or determinism comparisons.
	Passes *core.PassStats `json:"passes,omitempty"`
	// Maintain is set by the auto-maintain job kind: what the maintenance
	// pass did to the previous placement.
	Maintain *MaintainInfo `json:"maintain,omitempty"`
}

// algoSpec describes one placement algorithm: which core.Place strategy
// runs it, whether it is expensive enough to route through the async job
// engine, and which request fields (seed, k) actually matter for its
// result.
type algoSpec struct {
	async      bool
	randomized bool
	kless      bool // ignores the budget (prop1 places at every merge node)
	strategy   core.Strategy
}

var algos = map[string]algoSpec{
	"gall":  {async: true, strategy: core.StrategyGreedyAll},
	"celf":  {async: true, strategy: core.StrategyCELF},
	"gmax":  {strategy: core.StrategyGreedyMax},
	"g1":    {strategy: core.StrategyGreedy1},
	"gl":    {strategy: core.StrategyGreedyL},
	"randk": {randomized: true, strategy: core.StrategyRandK},
	"randi": {randomized: true, strategy: core.StrategyRandI},
	"randw": {randomized: true, strategy: core.StrategyRandW},
	"prop1": {kless: true, strategy: core.StrategyProp1},
}

// Algorithms lists the accepted algorithm names, asynchronous ones first.
func Algorithms() []string {
	names := make([]string, 0, len(algos))
	for name := range algos {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ai, aj := algos[names[i]].async, algos[names[j]].async
		if ai != aj {
			return ai
		}
		return names[i] < names[j]
	})
	return names
}

// validate normalizes the spec in place against a model and returns the
// algorithm table entry. k must satisfy 1 ≤ k ≤ n and parallelism is
// clamped to [0, maxParallelism]. Normalization canonicalizes the cache
// key: the default engine becomes explicit and the seed is dropped for
// deterministic algorithms, so requests differing only in irrelevant
// fields share a cache slot.
func (sp *PlaceSpec) validate(m *flow.Model, maxParallelism int) (algoSpec, error) {
	spec, ok := algos[sp.Algorithm]
	if !ok {
		return algoSpec{}, fmt.Errorf("unknown algorithm %q (have %s)",
			sp.Algorithm, strings.Join(Algorithms(), ", "))
	}
	if spec.kless {
		sp.K = 0 // the budget is ignored; one cache slot for all k
	} else if n := m.N(); sp.K < 1 || sp.K > n {
		return algoSpec{}, fmt.Errorf("k = %d outside [1, %d]", sp.K, n)
	}
	switch sp.Engine {
	case "":
		sp.Engine = "float"
	case "float", "big":
	default:
		return algoSpec{}, fmt.Errorf("unknown engine %q (have float, big)", sp.Engine)
	}
	if !spec.randomized {
		sp.Seed = 0 // deterministic algorithms: one cache slot for all seeds
	}
	// Parallelism shares core's validation, so a bad value produces the
	// same error through HTTP, the CLI and direct core callers.
	if err := (core.Options{Strategy: spec.strategy, Parallelism: sp.Parallelism}).Validate(); err != nil {
		return algoSpec{}, err
	}
	if sp.Parallelism > maxParallelism {
		sp.Parallelism = maxParallelism
	}
	return spec, nil
}

// newEvaluator builds a fresh evaluator for the model. Engines reuse
// scratch buffers internally, so one is built per request/job rather than
// shared.
func (sp *PlaceSpec) newEvaluator(m *flow.Model) flow.Evaluator {
	if sp.Engine == "big" {
		return flow.NewBig(m)
	}
	return flow.NewFloat(m)
}

// cacheKey identifies a placement result: same graph, graph version,
// sources, algorithm, budget, engine and seed ⇒ same result. version is
// the graph's patch count, so a job still in flight when a PATCH commits
// writes its result under the superseded version and can never be served
// for the mutated graph — invalidateGraph reclaims the memory, the
// version keeps the correctness. Parallelism is deliberately absent:
// placements are bit-for-bit identical at every setting, so concurrent
// requests differing only in parallelism dedup onto one job.
func (sp *PlaceSpec) cacheKey(graphID string, version int64, sources []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|v%d|%s|%d|%s|%d|", graphID, version, sp.Algorithm, sp.K, sp.Engine, sp.Seed)
	for _, s := range sources {
		fmt.Fprintf(&b, "%d,", s)
	}
	return b.String()
}

// execute runs the placement through core.Place and evaluates the paper's
// report quantities for the chosen filter set. It is the one place a
// placement's oracle work is charged: to metrics (optional; also the
// per-job worker gauge) and to the tenant tc (optional), from the Result
// Place returns on success, error and cancellation alike, so the
// server-wide and per-tenant ledgers always agree. A Result with no
// Strategy means Place refused to start, and nothing is charged. A trace
// carried by ctx (async jobs attach one) records the evaluator build and
// the per-stage placement timing.
func (sp *PlaceSpec) execute(ctx context.Context, spec algoSpec, m *flow.Model, graphID string, metrics *Metrics, tc *obs.TenantCounters) (*PlaceResult, error) {
	tr := obs.TraceFrom(ctx)
	bsp := tr.Begin("build-evaluator")
	ev := sp.newEvaluator(m)
	bsp.End()
	if metrics != nil {
		metrics.PlaceWorkersBusy.Add(int64(max(sp.Parallelism, 1)))
		defer metrics.PlaceWorkersBusy.Add(-int64(max(sp.Parallelism, 1)))
	}
	pres, err := core.Place(ctx, ev, sp.K, core.Options{
		Strategy:    spec.strategy,
		Parallelism: sp.Parallelism,
		Seed:        sp.Seed,
		Trace:       tr,
		Tenant:      tc.Name(),
	})
	if pres.Strategy != "" {
		evals := int64(pres.Stats.GainEvaluations)
		tc.AddPlacement(evals, pres.Passes.Forward, pres.Passes.Suffix)
		if metrics != nil {
			metrics.OracleEvaluations.Add(evals)
		}
	}
	if err != nil {
		return nil, err
	}
	filters := pres.Filters
	if filters == nil {
		filters = []int{} // serialize as [], not null
	}
	k := sp.K
	if spec.kless {
		k = len(filters) // report the budget actually used
	}
	mask := flow.MaskOf(m.N(), filters)
	res := &PlaceResult{
		GraphID:     graphID,
		Algorithm:   sp.Algorithm,
		K:           k,
		Filters:     filters,
		PhiEmpty:    ev.Phi(nil),
		PhiA:        ev.Phi(mask),
		F:           ev.F(mask),
		FR:          flow.FR(ev, mask),
		Parallelism: pres.Parallelism,
	}
	if pres.Stats != (core.OracleStats{}) {
		st := pres.Stats
		res.Oracle = &st
	}
	if pres.Passes != (core.PassStats{}) {
		ps := pres.Passes
		res.Passes = &ps
	}
	if g := m.Graph(); g.HasLabels() {
		res.Labels = make([]string, len(filters))
		for i, v := range filters {
			res.Labels[i] = g.Label(v)
		}
	}
	return res, nil
}
