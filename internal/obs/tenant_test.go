package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestValidTenant(t *testing.T) {
	valid := []string{"a", "default", "team-42", "A.B_c-d", strings.Repeat("x", 64)}
	for _, s := range valid {
		if !ValidTenant(s) {
			t.Errorf("ValidTenant(%q) = false, want true", s)
		}
	}
	invalid := []string{"", " ", "a b", "tenant/1", "é", "a\n", strings.Repeat("x", 65), `x"y`}
	for _, s := range invalid {
		if ValidTenant(s) {
			t.Errorf("ValidTenant(%q) = true, want false", s)
		}
	}
}

func TestTenantCountersNilSafe(t *testing.T) {
	var c *TenantCounters
	// None of these may panic; they must all no-op.
	c.AddRequest()
	c.AddJobSubmitted()
	c.AddJobOutcome("done")
	c.AddPlacement(1, 2, 3)
	c.AddCacheHit()
	c.AddCacheMiss()
	c.AddQueueWait(time.Second)
	c.AddRunTime(time.Second)
	c.AddSchedWait(time.Second)
	c.AddPlanRepair(true, 1)
	if got := c.Name(); got != "" {
		t.Errorf("nil.Name() = %q, want \"\"", got)
	}
	if got := c.Usage(); got != (TenantUsage{}) {
		t.Errorf("nil.Usage() = %+v, want zero", got)
	}
}

func TestTenantCountersUsage(t *testing.T) {
	a := NewAccountant(0)
	c := a.Tenant("acme")
	c.AddRequest()
	c.AddRequest()
	c.AddJobSubmitted()
	c.AddJobOutcome("done")
	c.AddJobOutcome("failed")
	c.AddJobOutcome("canceled")
	c.AddJobOutcome("bogus") // ignored
	c.AddPlacement(100, 7, 3)
	c.AddCacheHit()
	c.AddCacheMiss()
	c.AddQueueWait(1500 * time.Millisecond)
	c.AddRunTime(250 * time.Millisecond)
	c.AddSchedWait(500 * time.Millisecond)
	c.AddSchedWait(0) // counts the task, adds no wait
	c.AddPlanRepair(true, 40)
	c.AddPlanRepair(false, 2)
	c.AddPlanRepair(false, -1) // counts the rebuild, adds no work

	u := c.Usage()
	want := TenantUsage{
		Tenant: "acme", Requests: 2,
		JobsSubmitted: 1, JobsCompleted: 1, JobsFailed: 1, JobsCanceled: 1,
		Placements: 1, OracleEvaluations: 100, ForwardPasses: 7, SuffixPasses: 3,
		CacheHits: 1, CacheMisses: 1,
		JobQueueWaitSeconds: 1.5, JobRunSeconds: 0.25,
		SchedQueueWaitSeconds: 0.5, SchedTasks: 2,
		PlanSplices: 1, PlanRebuilds: 2, PlanRepairWork: 42,
	}
	if u != want {
		t.Errorf("Usage() = %+v\nwant      %+v", u, want)
	}
}

func TestAccountantFolding(t *testing.T) {
	a := NewAccountant(3)
	if got := a.Tenant("").Name(); got != DefaultTenant {
		t.Errorf("empty name folded to %q, want %q", got, DefaultTenant)
	}
	if got := a.Tenant("not a tenant!").Name(); got != DefaultTenant {
		t.Errorf("invalid name folded to %q, want %q", got, DefaultTenant)
	}
	// Same name returns the same counter block.
	if a.Tenant("x") != a.Tenant("x") {
		t.Error("Tenant(\"x\") returned distinct blocks for one name")
	}
	a.Tenant("y") // 3 tenants now: default, x, y — cap reached
	if got := a.Tenant("z").Name(); got != OverflowTenant {
		t.Errorf("past-cap tenant accounted to %q, want %q", got, OverflowTenant)
	}
	// Default always resolves even past the cap.
	if got := a.Tenant("").Name(); got != DefaultTenant {
		t.Errorf("default tenant past cap = %q, want %q", got, DefaultTenant)
	}
	// Pre-cap tenants still resolve to their own blocks.
	if got := a.Tenant("x").Name(); got != "x" {
		t.Errorf("existing tenant past cap = %q, want x", got)
	}
}

func TestAccountantLookupAndSnapshot(t *testing.T) {
	a := NewAccountant(0)
	if _, ok := a.Lookup("ghost"); ok {
		t.Error("Lookup of an unseen tenant reported ok")
	}
	a.Tenant("bbb").AddRequest()
	a.Tenant("aaa").AddRequest()
	a.Tenant("aaa").AddRequest()
	if c, ok := a.Lookup("aaa"); !ok || c.Usage().Requests != 2 {
		t.Errorf("Lookup(aaa) = %v, %v; want 2 requests", c, ok)
	}
	snap := a.Snapshot()
	if len(snap) != 2 || snap[0].Tenant != "aaa" || snap[1].Tenant != "bbb" {
		t.Errorf("Snapshot not sorted by tenant: %+v", snap)
	}
	if a.Len() != 2 {
		t.Errorf("Len() = %d, want 2", a.Len())
	}
}

func TestAccountantNilSafe(t *testing.T) {
	var a *Accountant
	if c := a.Tenant("x"); c != nil {
		t.Errorf("nil.Tenant = %v, want nil", c)
	}
	if _, ok := a.Lookup("x"); ok {
		t.Error("nil.Lookup reported ok")
	}
	if a.Len() != 0 || a.Snapshot() != nil {
		t.Error("nil accountant should report empty")
	}
}

// TestAccountantConcurrent hammers tenant creation and accounting from
// many goroutines; run with -race this proves the read-lock fast path and
// the double-checked create path are sound.
func TestAccountantConcurrent(t *testing.T) {
	a := NewAccountant(8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := a.Tenant(fmt.Sprintf("tenant-%d", i%12))
				c.AddRequest()
				c.AddPlacement(1, 1, 1)
				if i%10 == 0 {
					a.Snapshot()
					a.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, u := range a.Snapshot() {
		total += u.Requests
	}
	if want := int64(16 * 200); total != want {
		t.Errorf("total requests across tenants = %d, want %d (no adds lost)", total, want)
	}
	// Cap of 8 plus the overflow bucket.
	if n := a.Len(); n > 9 {
		t.Errorf("Len() = %d, want ≤ 9 (cap 8 + overflow)", n)
	}
}
