package obs

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTenant is the tenant requests are attributed to when they carry
// no X-FP-Tenant header.
const DefaultTenant = "default"

// OverflowTenant absorbs accounting for tenants beyond an Accountant's
// cardinality cap, so a client inventing tenant names cannot grow the
// label space (and therefore the Prometheus exposition) without bound.
const OverflowTenant = "(overflow)"

// maxTenantNameLen bounds accepted tenant identifiers.
const maxTenantNameLen = 64

// ValidTenant reports whether s is an acceptable tenant identifier:
// 1–64 characters drawn from [A-Za-z0-9._-]. The charset keeps tenant
// names safe as Prometheus label values and log fields without escaping.
func ValidTenant(s string) bool {
	if len(s) == 0 || len(s) > maxTenantNameLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// TenantUsage is a point-in-time copy of one tenant's accumulated
// resource accounting, as served by GET /v1/tenants/{id}/usage. It is also
// the one declaration of the tenant series: every field after Tenant is a
// counter whose json key names both its usage key and the labeled
// Prometheus counter fpd_tenant_<key>_total, and whose help tag is the
// HELP text. Float fields are durations, accumulated in nanoseconds and
// reported in seconds.
type TenantUsage struct {
	Tenant                string  `json:"tenant"`
	Requests              int64   `json:"requests" help:"HTTP requests attributed to the tenant."`
	JobsSubmitted         int64   `json:"jobs_submitted" help:"Async jobs submitted by the tenant."`
	JobsCompleted         int64   `json:"jobs_completed" help:"Tenant jobs that finished successfully."`
	JobsFailed            int64   `json:"jobs_failed" help:"Tenant jobs that finished in error."`
	JobsCanceled          int64   `json:"jobs_canceled" help:"Tenant jobs that were canceled."`
	Placements            int64   `json:"placements" help:"Placements executed on behalf of the tenant."`
	OracleEvaluations     int64   `json:"oracle_evaluations" help:"Marginal-gain oracle evaluations spent for the tenant."`
	ForwardPasses         int64   `json:"forward_passes" help:"Forward topological passes executed for the tenant."`
	SuffixPasses          int64   `json:"suffix_passes" help:"Suffix topological passes executed for the tenant."`
	CacheHits             int64   `json:"cache_hits" help:"Result-cache hits for the tenant's placement requests."`
	CacheMisses           int64   `json:"cache_misses" help:"Result-cache misses for the tenant's placement requests."`
	JobQueueWaitSeconds   float64 `json:"job_queue_wait_seconds" help:"Total time the tenant's jobs spent queued."`
	JobRunSeconds         float64 `json:"job_run_seconds" help:"Total wall time the tenant's jobs spent running."`
	SchedQueueWaitSeconds float64 `json:"sched_queue_wait_seconds" help:"Total scheduler queue wait of the tenant's oracle tasks."`
	SchedTasks            int64   `json:"sched_tasks" help:"Scheduler tasks executed for the tenant."`
	PlanSplices           int64   `json:"plan_splices" help:"Execution plans spliced incrementally for the tenant's PATCH batches."`
	PlanRebuilds          int64   `json:"plan_rebuilds" help:"Execution plans rebuilt from scratch for the tenant's PATCH batches."`
	PlanRepairWork        int64   `json:"plan_repair_work" help:"Abstract plan-repair cost (visits + moves + CSR rows) charged to the tenant."`
}

// Counter slots of a TenantCounters block, in TenantUsage field order
// (after Tenant).
const (
	slotRequests = iota
	slotJobsSubmitted
	slotJobsCompleted
	slotJobsFailed
	slotJobsCanceled
	slotPlacements
	slotOracleEvals
	slotForwardPasses
	slotSuffixPasses
	slotCacheHits
	slotCacheMisses
	slotQueueWait
	slotRunTime
	slotSchedWait
	slotSchedTasks
	slotPlanSplices
	slotPlanRebuilds
	slotPlanRepairWork
	numSlots
)

// tenantDescs and tenantSeconds are the tenant declaration read once from
// TenantUsage's tags: one Desc per slot, and whether the slot holds a
// duration reported in seconds.
var tenantDescs, tenantSeconds = func() ([]Desc, []bool) {
	t := reflect.TypeOf(TenantUsage{})
	if t.NumField()-1 != numSlots {
		panic("obs: TenantUsage fields and TenantCounters slots disagree")
	}
	descs, seconds := make([]Desc, numSlots), make([]bool, numSlots)
	for i := range descs {
		f := t.Field(i + 1)
		descs[i] = Desc{Key: "tenant_" + f.Tag.Get("json") + "_total", Help: f.Tag.Get("help"), Kind: "counter"}
		seconds[i] = f.Type.Kind() == reflect.Float64
	}
	return descs, seconds
}()

// TenantCounters is one tenant's accounting sink: one atomic slot per
// TenantUsage counter, so attribution from hot paths (scheduler workers,
// placement completion, cache lookups) is a handful of uncontended atomic
// adds. All methods are nil-safe — threading a nil *TenantCounters through
// a call chain disables accounting for that call at zero cost.
type TenantCounters struct {
	name  string
	slots [numSlots]atomic.Int64
}

// Name returns the tenant identifier the counters accumulate under
// (empty for a nil receiver).
func (c *TenantCounters) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

func (c *TenantCounters) add(slot int, n int64) {
	if c != nil {
		c.slots[slot].Add(n)
	}
}

// AddRequest counts one HTTP request attributed to the tenant.
func (c *TenantCounters) AddRequest() { c.add(slotRequests, 1) }

// AddJobSubmitted counts one job accepted into the engine.
func (c *TenantCounters) AddJobSubmitted() { c.add(slotJobsSubmitted, 1) }

// AddJobOutcome counts a terminal job transition by state name
// ("done", "failed" or "canceled").
func (c *TenantCounters) AddJobOutcome(state string) {
	switch state {
	case "done":
		c.add(slotJobsCompleted, 1)
	case "failed":
		c.add(slotJobsFailed, 1)
	case "canceled":
		c.add(slotJobsCanceled, 1)
	}
}

// AddPlacement attributes one placement's oracle evaluations and
// topological pass counts. Called after core.Place returns — never from
// inside the algorithm — so accounting cannot perturb placement results.
func (c *TenantCounters) AddPlacement(evals, forward, suffix int64) {
	c.add(slotPlacements, 1)
	c.add(slotOracleEvals, evals)
	c.add(slotForwardPasses, forward)
	c.add(slotSuffixPasses, suffix)
}

// AddCacheHit counts one result-cache hit for the tenant.
func (c *TenantCounters) AddCacheHit() { c.add(slotCacheHits, 1) }

// AddCacheMiss counts one result-cache miss for the tenant.
func (c *TenantCounters) AddCacheMiss() { c.add(slotCacheMisses, 1) }

// AddQueueWait accumulates time a tenant's job spent queued before a
// worker picked it up.
func (c *TenantCounters) AddQueueWait(d time.Duration) { c.add(slotQueueWait, max(int64(d), 0)) }

// AddRunTime accumulates a tenant's job execution wall time.
func (c *TenantCounters) AddRunTime(d time.Duration) { c.add(slotRunTime, max(int64(d), 0)) }

// AddSchedWait accumulates scheduler queue wait for one task tagged with
// the tenant.
func (c *TenantCounters) AddSchedWait(d time.Duration) {
	c.add(slotSchedTasks, 1)
	c.add(slotSchedWait, max(int64(d), 0))
}

// AddPlanRepair attributes one execution-plan repair triggered by the
// tenant's PATCH: spliced says whether it stayed on the incremental path,
// work is the splicer's abstract cost (depth visits + moved nodes + CSR
// rows touched, or n+rows for a rebuild).
func (c *TenantCounters) AddPlanRepair(spliced bool, work int64) {
	if spliced {
		c.add(slotPlanSplices, 1)
	} else {
		c.add(slotPlanRebuilds, 1)
	}
	c.add(slotPlanRepairWork, max(work, 0))
}

// value reads one slot in its reported unit.
func (c *TenantCounters) value(slot int) float64 {
	v := c.slots[slot].Load()
	if tenantSeconds[slot] {
		return time.Duration(v).Seconds()
	}
	return float64(v)
}

// Usage snapshots the counters for the /v1/tenants endpoints; scrapes
// read the slots directly instead.
func (c *TenantCounters) Usage() TenantUsage {
	var u TenantUsage
	if c == nil {
		return u
	}
	u.Tenant = c.name
	uv := reflect.ValueOf(&u).Elem()
	for i := range c.slots {
		if f := uv.Field(i + 1); tenantSeconds[i] {
			f.SetFloat(c.value(i))
		} else {
			f.SetInt(c.slots[i].Load())
		}
	}
	return u
}

// Accountant aggregates per-tenant resource usage. Lookup is a
// read-locked map hit returning the tenant's atomic counter block; all
// subsequent accounting on that block is lock-free. Distinct tenants are
// capped — past the cap, new names account under OverflowTenant — so an
// adversarial client cannot grow memory or metric cardinality.
type Accountant struct {
	mu  sync.RWMutex
	m   map[string]*TenantCounters
	max int
}

// DefaultMaxTenants is the Accountant cardinality cap used when the
// caller passes max <= 0.
const DefaultMaxTenants = 64

// NewAccountant returns an accountant tracking at most max distinct
// tenants (DefaultMaxTenants when max <= 0).
func NewAccountant(max int) *Accountant {
	if max <= 0 {
		max = DefaultMaxTenants
	}
	return &Accountant{m: make(map[string]*TenantCounters), max: max}
}

// Tenant returns the counter block for the named tenant, creating it on
// first use. Invalid or empty names fold into DefaultTenant; names past
// the cardinality cap fold into OverflowTenant. Safe for concurrent use;
// nil-safe (returns nil, and nil counters no-op).
func (a *Accountant) Tenant(name string) *TenantCounters {
	if a == nil {
		return nil
	}
	if name == "" {
		name = DefaultTenant
	} else if !ValidTenant(name) && name != OverflowTenant {
		name = DefaultTenant
	}
	a.mu.RLock()
	c, ok := a.m[name]
	a.mu.RUnlock()
	if ok {
		return c
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if c, ok := a.m[name]; ok {
		return c
	}
	if len(a.m) >= a.max && name != OverflowTenant && name != DefaultTenant {
		if c, ok := a.m[OverflowTenant]; ok {
			return c
		}
		c := &TenantCounters{name: OverflowTenant}
		a.m[OverflowTenant] = c
		return c
	}
	c = &TenantCounters{name: name}
	a.m[name] = c
	return c
}

// Lookup returns the counter block for name only if it already exists.
func (a *Accountant) Lookup(name string) (*TenantCounters, bool) {
	if a == nil {
		return nil, false
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	c, ok := a.m[name]
	return c, ok
}

// Len reports how many distinct tenants have been seen.
func (a *Accountant) Len() int {
	if a == nil {
		return 0
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.m)
}

// Snapshot copies every tenant's usage, sorted by tenant name so
// expositions and API responses are deterministic.
func (a *Accountant) Snapshot() []TenantUsage {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	out := make([]TenantUsage, 0, len(a.m))
	for _, c := range a.m {
		out = append(out, c.Usage())
	}
	a.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Register declares the tenant series on r as labeled counters
// tenant_<key>_total{tenant="..."}, all read from one accountant snapshot
// per scrape.
func (a *Accountant) Register(r *Registry) {
	r.Table("tenant", tenantDescs, func() []Row {
		a.mu.RLock()
		defer a.mu.RUnlock()
		rows := make([]Row, 0, len(a.m))
		for name, c := range a.m {
			vals := make([]float64, numSlots)
			for i := range vals {
				vals[i] = c.value(i)
			}
			rows = append(rows, Row{Label: name, Values: vals})
		}
		return rows
	})
}

// String implements fmt.Stringer for debug logging.
func (a *Accountant) String() string {
	return fmt.Sprintf("obs.Accountant(%d tenants)", a.Len())
}
