package server

import (
	"reflect"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// Metrics holds the daemon's own counters and gauges. Each field is one
// series, declared by its tags and nowhere else: metric is the key (JSON
// /metrics and stats-history key, fpd_<key> in Prometheus), with ",gauge"
// for a gauge (counter otherwise), and help is the HELP text. Handlers,
// workers and the registry update the fields with plain atomic adds;
// register reads the tags once, at startup.
type Metrics struct {
	RequestsTotal        atomic.Int64 `metric:"requests_total" help:"HTTP requests served."`
	RequestErrors        atomic.Int64 `metric:"request_errors" help:"Requests answered with a 4xx or 5xx error, including unencodable responses."`
	GraphsCreated        atomic.Int64 `metric:"graphs_created" help:"Graphs registered by upload or generator."`
	GraphsEvicted        atomic.Int64 `metric:"graphs_evicted" help:"Graphs evicted from the registry by its LRU bound."`
	GraphsDeleted        atomic.Int64 `metric:"graphs_deleted" help:"Graphs deleted by request."`
	GraphsPatched        atomic.Int64 `metric:"graphs_patched" help:"Edge-mutation batches applied to graphs."`
	EdgesAdded           atomic.Int64 `metric:"edges_added" help:"Edges added by PATCH batches."`
	EdgesRemoved         atomic.Int64 `metric:"edges_removed" help:"Edges removed by PATCH batches."`
	SyncPlacements       atomic.Int64 `metric:"sync_placements" help:"Placements computed synchronously in the request."`
	Evaluations          atomic.Int64 `metric:"evaluations" help:"Filter-set evaluations served."`
	JobsSubmitted        atomic.Int64 `metric:"jobs_submitted" help:"Async jobs accepted."`
	JobsDeduped          atomic.Int64 `metric:"jobs_deduped" help:"Job submissions answered by an identical job already in flight."`
	JobsRunning          atomic.Int64 `metric:"jobs_running,gauge" help:"Async jobs running now."`
	JobsCompleted        atomic.Int64 `metric:"jobs_completed" help:"Async jobs that finished successfully."`
	JobsFailed           atomic.Int64 `metric:"jobs_failed" help:"Async jobs that finished in error."`
	JobsCanceled         atomic.Int64 `metric:"jobs_canceled" help:"Async jobs canceled."`
	JobsRejected         atomic.Int64 `metric:"jobs_rejected" help:"Job submissions rejected because the queue was full."`
	JobsDeferred         atomic.Int64 `metric:"jobs_deferred" help:"Gang jobs parked in the admission wait queue instead of the worker queue."`
	FlightsJoined        atomic.Int64 `metric:"flights_joined" help:"Placements that joined an identical in-flight computation instead of running their own."`
	MaintainJobs         atomic.Int64 `metric:"maintain_jobs" help:"Auto-maintain recomputations submitted by PATCH."`
	CacheHits            atomic.Int64 `metric:"cache_hits" help:"Placement requests answered from the result cache."`
	CacheMisses          atomic.Int64 `metric:"cache_misses" help:"Placement requests the result cache could not answer."`
	CacheInvalidations   atomic.Int64 `metric:"cache_invalidations" help:"Cached placements dropped by graph mutations."`
	PlaceWorkersBusy     atomic.Int64 `metric:"place_workers_busy,gauge" help:"Goroutines reserved by running placements (each contributes its parallelism)."`
	OracleEvaluations    atomic.Int64 `metric:"oracle_evaluations" help:"Marginal-gain oracle evaluations spent across all placements."`
	BatchesSubmitted     atomic.Int64 `metric:"batches_submitted" help:"Gang-submitted batch placement jobs."`
	BatchGraphsInflight  atomic.Int64 `metric:"batch_graphs_inflight,gauge" help:"Batch sub-placements executing on the shared scheduler now."`
	EventsPublished      atomic.Int64 `metric:"events_published" help:"Job lifecycle events published to the SSE bus."`
	EventsDropped        atomic.Int64 `metric:"events_dropped" help:"SSE deliveries lost to a full subscriber buffer."`
	PlanSplices          atomic.Int64 `metric:"plan_splices_total" help:"Execution plans repaired incrementally after a PATCH batch."`
	PlanRebuilds         atomic.Int64 `metric:"plan_rebuilds_total" help:"Execution plans rebuilt from scratch after a PATCH batch."`
	ResponseEncodeErrors atomic.Int64 `metric:"response_encode_errors_total" help:"Response bodies (or job-list items) that could not be encoded as JSON."`
}

// register declares every Metrics field on reg.
func (m *Metrics) register(reg *obs.Registry) {
	mv := reflect.ValueOf(m).Elem()
	for i := 0; i < mv.NumField(); i++ {
		f := mv.Type().Field(i)
		key, kind, _ := strings.Cut(f.Tag.Get("metric"), ",")
		if kind == "" {
			kind = "counter"
		}
		c := mv.Field(i).Addr().Interface().(*atomic.Int64)
		reg.Scalar(obs.Desc{Key: key, Help: f.Tag.Get("help"), Kind: kind}, func() float64 { return float64(c.Load()) })
	}
}
