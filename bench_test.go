package fp_test

// One benchmark per figure of the paper's evaluation section (see
// DESIGN.md's per-experiment index), plus per-algorithm and per-engine
// micro-benchmarks. Macro benchmarks execute the same experiment drivers
// cmd/fpexp exposes, at full dataset scale; the printable reports that
// regenerate the paper's series are produced by `go run ./cmd/fpexp`.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	fp "repro"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := fp.RunExperiment(id, fp.ExperimentOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkFig1Toy regenerates Figure 1's copy accounting.
func BenchmarkFig1Toy(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2Greedy1Failure regenerates the Figure 2 counterexample.
func BenchmarkFig2Greedy1Failure(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3GreedyAllSuboptimal regenerates the Figure 3 example.
func BenchmarkFig3GreedyAllSuboptimal(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4SyntheticCDF regenerates the synthetic in-degree CDFs.
func BenchmarkFig4SyntheticCDF(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5aSyntheticFR regenerates FR-vs-k on the sparse layered
// graph (25-run averaged baselines, k = 0..50).
func BenchmarkFig5aSyntheticFR(b *testing.B) { runExperiment(b, "fig5a") }

// BenchmarkFig5bSyntheticFR regenerates FR-vs-k on the dense layered graph.
func BenchmarkFig5bSyntheticFR(b *testing.B) { runExperiment(b, "fig5b") }

// BenchmarkFig6QuoteCDF regenerates the G_Phrase in-degree CDF.
func BenchmarkFig6QuoteCDF(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7QuoteFR regenerates FR-vs-k on the Quote stand-in.
func BenchmarkFig7QuoteFR(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8TwitterFR regenerates FR-vs-k on the ~90K-node Twitter
// stand-in.
func BenchmarkFig8TwitterFR(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9CitationFR regenerates FR-vs-k on the APS-citation stand-in.
func BenchmarkFig9CitationFR(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10BottleneckMotif regenerates the Figure-10 motif analysis.
func BenchmarkFig10BottleneckMotif(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11RunningTimes times the four deterministic algorithms at
// k = 10 on the full Twitter stand-in (the per-algorithm breakdown is in
// the BenchmarkAlgo* group below).
func BenchmarkFig11RunningTimes(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkProp1Unbounded regenerates the Proposition-1 experiment.
func BenchmarkProp1Unbounded(b *testing.B) { runExperiment(b, "prop1") }

// BenchmarkAblationCELF compares Greedy_All implementations.
func BenchmarkAblationCELF(b *testing.B) { runExperiment(b, "abl-celf") }

// BenchmarkAblationEngines compares big.Int and float64 engines.
func BenchmarkAblationEngines(b *testing.B) { runExperiment(b, "abl-engine") }

// BenchmarkAblationProbabilistic runs the probabilistic-propagation
// extension.
func BenchmarkAblationProbabilistic(b *testing.B) { runExperiment(b, "abl-prob") }

// BenchmarkAblationBetweenness compares betweenness-centrality placement
// against the filter-placement algorithms (paper §2's argument).
func BenchmarkAblationBetweenness(b *testing.B) { runExperiment(b, "abl-between") }

// BenchmarkAblationLeakyFilters runs the lossy-filter generalization
// (paper footnote 1).
func BenchmarkAblationLeakyFilters(b *testing.B) { runExperiment(b, "abl-leaky") }

// BenchmarkAblationMultiItem runs the multi-item/multirate extension
// (paper §3, §6).
func BenchmarkAblationMultiItem(b *testing.B) { runExperiment(b, "abl-multi") }

// BenchmarkAblationMonteCarlo compares the analytic probabilistic engine
// against Monte-Carlo ground truth.
func BenchmarkAblationMonteCarlo(b *testing.B) { runExperiment(b, "abl-mc") }

// BenchmarkAblationTreeOptimality measures greedy-vs-DP quality on random
// communication trees.
func BenchmarkAblationTreeOptimality(b *testing.B) { runExperiment(b, "abl-tree") }

// BenchmarkAblationDominators runs the dominator-choke-point analysis of
// the Figure-10 structure.
func BenchmarkAblationDominators(b *testing.B) { runExperiment(b, "abl-dom") }

// BenchmarkAblationAcyclic validates the equivalence of the paper's
// junction-signature Acyclic with the exact construction.
func BenchmarkAblationAcyclic(b *testing.B) { runExperiment(b, "abl-acyclic") }

// --- Figure 11 per-algorithm breakdown (placement only, k = 10, full
// Twitter stand-in). The paper reports G_1 ≪ G_Max ≈ G_L ≪ G_ALL.

type twitterFixture struct {
	ev fp.Evaluator
}

var twitterFix *twitterFixture

func twitter(b *testing.B) *twitterFixture {
	b.Helper()
	if twitterFix == nil {
		g, root := fp.TwitterLike(1, 1)
		m, err := fp.NewModel(g, []int{root})
		if err != nil {
			b.Fatal(err)
		}
		twitterFix = &twitterFixture{ev: fp.NewFloat(m)}
	}
	return twitterFix
}

func BenchmarkAlgoGreedyAll(b *testing.B) {
	fx := twitter(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(placeFilters(b, fx.ev, 10, fp.StrategyGreedyAll)) == 0 {
			b.Fatal("no filters placed")
		}
	}
}

func BenchmarkAlgoGreedyMax(b *testing.B) {
	fx := twitter(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(placeFilters(b, fx.ev, 10, fp.StrategyGreedyMax)) == 0 {
			b.Fatal("no filters placed")
		}
	}
}

func BenchmarkAlgoGreedy1(b *testing.B) {
	fx := twitter(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(placeFilters(b, fx.ev, 10, fp.StrategyGreedy1)) == 0 {
			b.Fatal("no filters placed")
		}
	}
}

func BenchmarkAlgoGreedyL(b *testing.B) {
	fx := twitter(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(placeFilters(b, fx.ev, 10, fp.StrategyGreedyL)) == 0 {
			b.Fatal("no filters placed")
		}
	}
}

// --- Engine micro-benchmarks on the paper's layered synthetic graph.

func layeredModel(b *testing.B, x float64) *fp.Model {
	b.Helper()
	g, src := fp.Layered(10, 100, x, 4, 1)
	m, err := fp.NewModel(g, []int{src})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkPhiFloat(b *testing.B) {
	ev := fp.NewFloat(layeredModel(b, 1))
	filters := fp.MaskOf(ev.Model().N(), placeFilters(b, ev, 10, fp.StrategyGreedyAll))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.Phi(filters)
	}
}

func BenchmarkPhiBig(b *testing.B) {
	ev := fp.NewBig(layeredModel(b, 1))
	filters := fp.MaskOf(ev.Model().N(), placeFilters(b, ev, 10, fp.StrategyGreedyAll))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.Phi(filters)
	}
}

func BenchmarkImpactsFloat(b *testing.B) {
	ev := fp.NewFloat(layeredModel(b, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.Impacts(nil)
	}
}

func BenchmarkImpactsBig(b *testing.B) {
	ev := fp.NewBig(layeredModel(b, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.Impacts(nil)
	}
}

// --- Substrate micro-benchmarks.

func BenchmarkGenerateQuoteLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _ := fp.QuoteLike(int64(i + 1))
		if g.N() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkGenerateTwitterLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _ := fp.TwitterLike(1, int64(i+1))
		if g.N() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkGenerateCitationLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _ := fp.CitationLike(int64(i + 1))
		if g.N() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkAcyclicBuild(b *testing.B) {
	// A dense cyclic digraph exercising the incremental cycle detector.
	bld := fp.NewBuilder(2000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12000; i++ {
		u, v := rng.Intn(2000), rng.Intn(2000)
		if u != v {
			bld.AddEdge(u, v)
		}
	}
	g := bld.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dag, _, err := fp.Acyclic(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !dag.IsDAG() {
			b.Fatal("cyclic output")
		}
	}
}

func BenchmarkTreeDP(b *testing.B) {
	g, src := fp.RandomCTree(500, 0.3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fp.TreeDP(g, src, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Dynamic-graph maintenance (internal/dyn). One iteration = apply one
// mutation batch to a ~10K-node churned Twitter-style graph and refresh a
// k = 10 placement, either incrementally (Maintainer) or from scratch
// (snapshot → NewModel → NewFloat → GreedyAll). BENCH_dyn.json records the
// baseline; the acceptance target is maintain ≥ 5× faster at 1% churn with
// F(A) within 1% of from-scratch (quality asserted by
// dyn.TestMaintainQualityUnderChurn).

const dynBenchK = 10

// dynChurnFixture pre-generates a long mutation stream so benchmark
// iterations never run dry: when the stream is exhausted the overlay is
// rebuilt from the pristine graph (off the clock) and the stream replays.
type dynChurnFixture struct {
	g      *fp.Graph
	root   int
	stream []fp.Mutation
	warm   bool // build a Maintainer; the recompute baseline runs without one
	d      *fp.DynamicGraph
	mt     *fp.Maintainer
	next   int
}

func newDynChurnFixture(b *testing.B, churn float64, warm bool) *dynChurnFixture {
	b.Helper()
	g, root := fp.TwitterLike(0.1, 1) // ≈10K nodes, Twitter shape
	fx := &dynChurnFixture{g: g, root: root, warm: warm, stream: fp.TwitterChurn(g, 128, churn, 2)}
	fx.reset(b)
	return fx
}

func (fx *dynChurnFixture) reset(b *testing.B) {
	b.Helper()
	d, err := fp.NewDynamic(fx.g, []int{fx.root})
	if err != nil {
		b.Fatal(err)
	}
	fx.d, fx.mt, fx.next = d, nil, 0
	if !fx.warm {
		return
	}
	mt, err := fp.NewMaintainer(d, fp.MaintainOptions{K: dynBenchK}, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mt.Maintain(context.Background()); err != nil {
		b.Fatal(err)
	}
	fx.mt = mt
}

// batch returns the next mutation batch, replaying from a fresh overlay
// when the stream is exhausted.
func (fx *dynChurnFixture) batch(b *testing.B) fp.MutationBatch {
	b.Helper()
	if fx.next == len(fx.stream) {
		b.StopTimer()
		fx.reset(b)
		b.StartTimer()
	}
	mu := fx.stream[fx.next]
	fx.next++
	return fp.MutationBatch{Add: mu.Add, Remove: mu.Remove}
}

func BenchmarkMaintainVsRecompute(b *testing.B) {
	for _, churn := range []float64{0.002, 0.01, 0.05} {
		name := fmt.Sprintf("churn=%g", churn)
		b.Run(name+"/maintain", func(b *testing.B) {
			fx := newDynChurnFixture(b, churn, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fx.mt.Apply(fx.batch(b)); err != nil {
					b.Fatal(err)
				}
				rep, err := fx.mt.Maintain(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if rep.FAfter <= 0 {
					b.Fatal("maintenance lost the objective")
				}
			}
		})
		b.Run(name+"/recompute", func(b *testing.B) {
			fx := newDynChurnFixture(b, churn, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fx.d.Apply(fx.batch(b)); err != nil {
					b.Fatal(err)
				}
				m, err := fp.NewModel(fx.d.Snapshot(), []int{fx.root})
				if err != nil {
					b.Fatal(err)
				}
				if len(placeFilters(b, fp.NewFloat(m), dynBenchK, fp.StrategyGreedyAll)) == 0 {
					b.Fatal("no filters placed")
				}
			}
		})
	}
}

// --- Parallel placement (core.Place). One iteration = a full k = 20
// greedy-all placement on the ~90K-node Twitter stand-in at the given
// worker count; every P returns bit-identical filters, so the sub-bench
// ratio is pure parallel-speedup signal. BENCH_parallel.json records the
// scaling curve measured on the CI-class host (near-linear scaling needs
// physical cores; a single-CPU container reports ~1×). The CELF group
// measures the cloned-evaluator sharding of lazy re-evaluation instead of
// the level-parallel passes.

const parallelBenchK = 20

func placeParallel(b *testing.B, strategy fp.PlaceStrategy, procs int) {
	fx := twitter(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fp.Place(context.Background(), fx.ev, parallelBenchK,
			fp.PlaceOptions{Strategy: strategy, Parallelism: procs})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Filters) == 0 {
			b.Fatal("no filters placed")
		}
	}
}

func BenchmarkPlaceParallel(b *testing.B) {
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("greedy-all/procs=%d", procs), func(b *testing.B) {
			placeParallel(b, fp.StrategyGreedyAll, procs)
		})
	}
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("celf/procs=%d", procs), func(b *testing.B) {
			placeParallel(b, fp.StrategyCELF, procs)
		})
	}
}

// --- Batched multi-graph placement (core.PlaceBatch). One iteration =
// placing k filters on a whole fleet of small layered graphs, either
// graph-by-graph (the pre-batch service pattern: one job per graph
// through the queue) or as one gang on the process-wide scheduler.
// Results are bit-identical between the two (core.TestPlaceBatchBitIdentical),
// so the ratio is pure scheduling signal. BENCH_batch.json records the
// measured curve; on a single-CPU host the gang ratio is ~1× by
// construction — the win is multi-core interleaving.

const (
	batchBenchGraphs = 32
	batchBenchK      = 8
)

type fleetFixture struct {
	evs []fp.Evaluator
}

var fleetFix *fleetFixture

func fleet(b *testing.B) *fleetFixture {
	if fleetFix == nil {
		evs := make([]fp.Evaluator, batchBenchGraphs)
		for i := range evs {
			g, src := fp.Layered(8, 60, 1, 4, int64(i+1))
			m, err := fp.NewModel(g, []int{src})
			if err != nil {
				b.Fatal(err)
			}
			evs[i] = fp.NewFloat(m)
		}
		fleetFix = &fleetFixture{evs: evs}
	}
	return fleetFix
}

func BenchmarkPlaceBatch(b *testing.B) {
	for _, procs := range []int{1, 4} {
		opts := fp.PlaceOptions{Strategy: fp.StrategyGreedyAll, Parallelism: procs}
		b.Run(fmt.Sprintf("sequential/procs=%d", procs), func(b *testing.B) {
			fx := fleet(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ev := range fx.evs {
					res, err := fp.Place(context.Background(), ev, batchBenchK, opts)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Filters) == 0 {
						b.Fatal("no filters placed")
					}
				}
			}
		})
		b.Run(fmt.Sprintf("gang/procs=%d", procs), func(b *testing.B) {
			fx := fleet(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := fp.PlaceBatch(context.Background(), fx.evs, batchBenchK, opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if len(res.Filters) == 0 {
						b.Fatal("no filters placed")
					}
				}
			}
		})
	}
}
