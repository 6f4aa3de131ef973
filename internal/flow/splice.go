package flow

import (
	"slices"

	"repro/internal/sched"
)

// SpliceOptions tunes a Splicer's cost threshold.
type SpliceOptions struct {
	// MaxConeFrac is the fraction of the graph a repair may touch —
	// counted both as incremental depth-sweep visits and as the
	// re-levelled position window — before Apply abandons the splice and
	// rebuilds the plan from scratch (a splice touching most of the graph
	// does strictly more work than a rebuild: it pays the same traversal
	// plus the bookkeeping). 0 means always rebuild; default 0.25.
	MaxConeFrac float64
}

// defaultMaxConeFrac is the Apply fallback threshold when the caller
// leaves SpliceOptions.MaxConeFrac unset.
const defaultMaxConeFrac = 0.25

// spliceBudgetFloor keeps the cone budget meaningful on small graphs,
// where a handful of visits would otherwise exceed frac*n and force a
// rebuild that costs about the same as the splice it replaced.
const spliceBudgetFloor = 64

func (o SpliceOptions) withDefaults() SpliceOptions {
	if o.MaxConeFrac == 0 {
		o.MaxConeFrac = defaultMaxConeFrac
	}
	if o.MaxConeFrac < 0 {
		o.MaxConeFrac = 0
	}
	return o
}

// SpliceStats describes what one Splicer.Apply call did.
type SpliceStats struct {
	// Spliced is true when the plan was repaired incrementally; false
	// when Apply fell back to a full rebuild (Reason says why).
	Spliced bool   `json:"spliced"`
	Reason  string `json:"reason,omitempty"`
	// NodesAdded is the batch's node growth.
	NodesAdded int `json:"nodes_added,omitempty"`
	// DepthVisits counts nodes visited by the incremental depth sweep,
	// Moved the nodes whose level actually changed, Window the plan
	// positions re-written, and RowsRebuilt the CSR rows rebuilt entry by
	// entry (the rest are copied or shared). On a rebuild all four are
	// set to whole-graph figures.
	DepthVisits int `json:"depth_visits"`
	Moved       int `json:"moved"`
	Window      int `json:"window"`
	RowsRebuilt int `json:"rows_rebuilt"`
}

// Work returns the node-visit cost of the repair — the quantity tenant
// accounting charges for plan maintenance.
func (st SpliceStats) Work() int64 {
	return int64(st.DepthVisits) + int64(st.Window) + int64(st.RowsRebuilt)
}

// Splicer incrementally repairs a Plan as its graph mutates, so dynamic
// workloads keep running on the flat plan kernels without paying a full
// O(V+E) buildPlan per mutation batch. Given the Pearce–Kelly dirty cone
// of a committed batch (dyn.ApplyResult's DirtyFwd/DirtyBwd), Apply:
//
//   - repairs the forward-depth labelling inside the affected cone only
//     (an ord-heap sweep, exactly like Incremental.Update);
//   - re-levels just the window of levels that gained or lost members,
//     merging unchanged level runs with the moved nodes to preserve the
//     canonical ascending-id within-level order;
//   - splices the position-indexed CSR: structurally changed rows are
//     rebuilt from the view, rows referencing repositioned nodes are
//     re-mapped, and everything else is block-copied with a constant
//     position shift for the tail;
//   - recomputes chunk tables for the window and shares or shifts the
//     rest.
//
// The result is a FRESH Plan — in-flight evaluations over the old plan
// stay valid — that is array-for-array identical to buildPlan run from
// scratch on the mutated graph (the within-level order is canonical, so
// the spliced and rebuilt plans agree exactly; splice_test pins this).
// Both plans share one scratch arena, so the pooled buffers stay warm
// across mutations and grow in place when AddNodes extends the graph.
//
// A Splicer supports only deterministic (unweighted) plans — the only
// kind a dynamic overlay serves. It is not safe for concurrent use;
// callers serialize Apply with plan consumers they hand the result to
// (the server does this under the per-graph mutation lock).
type Splicer struct {
	view DynDigraph
	plan *Plan
	opts SpliceOptions

	// depth is the maintained forward depth of every node — the splice
	// counterpart of Incremental's rec/emit state.
	depth []int32
	inQ   []bool // ord-heap membership scratch

	// Row-classification scratch, cleared after every Apply.
	inStruct, outStruct []bool
	inDirty, outDirty   []bool

	// Reusable per-call buffers.
	movedV, movedOld []int32
	rowBuf           []int32
	ordBuf           []int
	listBuf          []int32 // nodes whose dirty marks need clearing

	splices, rebuilds int64
	last              SpliceStats
}

// NewSplicer builds a splicer over the mutable view. When adopt is
// non-nil, unweighted and sized to the view's current node count, it
// becomes the starting plan (the registry hands over the model's already
// built plan this way, skipping a redundant build); otherwise the
// starting plan is built from the view.
func NewSplicer(view DynDigraph, adopt *Plan, opts SpliceOptions) *Splicer {
	s := &Splicer{view: view, opts: opts.withDefaults()}
	if adopt != nil && !adopt.weighted && adopt.n == view.N() {
		s.plan = adopt
		s.grow(adopt.n)
		for l := 0; l < adopt.numLevels(); l++ {
			lo, hi := adopt.level(l)
			for i := lo; i < hi; i++ {
				s.depth[adopt.perm[i]] = int32(l)
			}
		}
		return s
	}
	s.plan = s.rebuildPlan()
	return s
}

// Plan returns the current plan. It is immutable; Apply swaps in a new
// one rather than mutating it.
func (s *Splicer) Plan() *Plan { return s.plan }

// Counters returns the cumulative number of incremental splices and full
// rebuilds performed.
func (s *Splicer) Counters() (splices, rebuilds int64) {
	return s.splices, s.rebuilds
}

// Last returns the stats of the most recent Apply or Rebuild.
func (s *Splicer) Last() SpliceStats { return s.last }

// Rebuild forces a from-scratch plan build against the view's current
// state — the resync path when the view mutated without Apply being told
// (dyn.Maintainer uses it for missed batches).
func (s *Splicer) Rebuild() *Plan {
	p := s.fullRebuild("forced")
	return p
}

// grow extends the per-node state to n entries.
func (s *Splicer) grow(n int) {
	for len(s.depth) < n {
		s.depth = append(s.depth, 0)
		s.inQ = append(s.inQ, false)
		s.inStruct = append(s.inStruct, false)
		s.outStruct = append(s.outStruct, false)
		s.inDirty = append(s.inDirty, false)
		s.outDirty = append(s.outDirty, false)
	}
}

// fullRebuild rebuilds the plan from the view, refreshing the maintained
// depths, and records the stats/counters for a non-spliced repair.
func (s *Splicer) fullRebuild(reason string) *Plan {
	p := s.rebuildPlan()
	n := p.n
	s.plan = p
	s.rebuilds++
	s.last = SpliceStats{
		Reason:      reason,
		DepthVisits: n,
		Moved:       n,
		Window:      n,
		RowsRebuilt: n,
	}
	return p
}

// Apply repairs the plan after a committed mutation batch. dirtyFwd must
// hold the heads and dirtyBwd the tails of every added or removed edge
// (dyn.ApplyResult supplies exactly these), and nodesAdded the batch's
// node growth; the view must already reflect the batch. It returns the
// repaired plan — a fresh immutable Plan sharing the old plan's scratch
// arena — plus what the repair did. When the affected cone exceeds
// SpliceOptions.MaxConeFrac of the graph, it falls back to a full
// rebuild (identical result, linear cost).
func (s *Splicer) Apply(dirtyFwd, dirtyBwd []int, nodesAdded int) (*Plan, SpliceStats) {
	p := s.plan
	n := s.view.N()
	oldN := p.n
	if oldN+nodesAdded != n {
		// The view moved without us; resync.
		return s.fullRebuild("desync"), s.last
	}
	s.grow(n)
	budget := int(s.opts.MaxConeFrac * float64(n))
	if budget < spliceBudgetFloor {
		budget = spliceBudgetFloor
	}
	if s.opts.MaxConeFrac <= 0 {
		budget = -1 // always rebuild
	}

	// ---- 1. Incremental depth repair over the dirty cone. Seeds are the
	// heads of changed edges plus every new node; the ascending-ord heap
	// guarantees a node is recomputed only after all its in-neighbors
	// have settled, exactly like Incremental.Update's forward sweep.
	st := SpliceStats{NodesAdded: nodesAdded}
	movedV, movedOld := s.movedV[:0], s.movedOld[:0]
	var h ordHeap
	h.less = func(a, b int) bool { return s.view.OrdOf(a) < s.view.OrdOf(b) }
	for v := oldN; v < n; v++ {
		s.depth[v] = -1 // "no old level": any computed depth counts as a move
		h.pushOnce(v, s.inQ)
	}
	for _, v := range dirtyFwd {
		h.pushOnce(v, s.inQ)
	}
	minL, maxL := int32(1)<<30, int32(-1)
	for h.len() > 0 {
		v := h.pop()
		s.inQ[v] = false
		st.DepthVisits++
		if budget >= 0 && st.DepthVisits > budget {
			for _, w := range h.a {
				s.inQ[w] = false
			}
			s.movedV, s.movedOld = movedV, movedOld
			return s.fullRebuild("cone-budget"), s.last
		}
		var d int32
		for _, q := range s.view.In(v) {
			if dq := s.depth[q] + 1; dq > d {
				d = dq
			}
		}
		old := s.depth[v]
		if d == old {
			continue
		}
		s.depth[v] = d
		movedV = append(movedV, int32(v))
		movedOld = append(movedOld, old)
		if old >= 0 {
			minL = min(minL, old)
			maxL = max(maxL, old)
		}
		minL = min(minL, d)
		maxL = max(maxL, d)
		for _, c := range s.view.Out(v) {
			h.pushOnce(c, s.inQ)
		}
	}
	if budget < 0 {
		s.movedV, s.movedOld = movedV, movedOld
		return s.fullRebuild("cone-budget"), s.last
	}
	s.movedV, s.movedOld = movedV, movedOld
	st.Moved = len(movedV)

	np := &Plan{n: n, chunkHint: p.chunkHint}

	// ---- 2. Re-level the affected window [minL, maxL]: the only levels
	// whose membership can have changed. Everything before the window
	// keeps its positions; everything after shifts uniformly by the node
	// growth (new nodes always land inside the window by construction).
	oldLevels := p.numLevels()
	var winStart, oldWinEnd, newWinEnd int
	delta := nodesAdded
	if st.Moved == 0 {
		// Pure CSR repair: the level structure is untouched (edge churn
		// that changes no depth), so perm/pos/levels/chunks are shared
		// with the old plan outright.
		if delta != 0 {
			// Unreachable: a new node always registers as moved.
			return s.fullRebuild("desync"), s.last
		}
		winStart, oldWinEnd, newWinEnd = oldN, oldN, oldN
		np.perm, np.pos, np.levelOff, np.levelChunks = p.perm, p.pos, p.levelOff, p.levelChunks
		np.identity = p.identity
	} else {
		loL, hiL := int(minL), int(maxL)
		oldWinEndLevel := min(hiL+1, oldLevels)
		winStart = int(p.levelOff[min(loL, oldLevels)])
		oldWinEnd = int(p.levelOff[oldWinEndLevel])
		newWinEnd = n - (oldN - oldWinEnd)
		if newWinEnd-winStart > budget {
			return s.fullRebuild("window-budget"), s.last
		}

		// Window level sizes: old sizes, minus moved-out, plus moved-in.
		nw := hiL - loL + 1
		sz := make([]int32, nw)
		for l := loL; l <= hiL && l < oldLevels; l++ {
			sz[l-loL] = p.levelOff[l+1] - p.levelOff[l]
		}
		for i, v := range movedV {
			if movedOld[i] >= 0 {
				sz[int(movedOld[i])-loL]--
			}
			sz[int(s.depth[v])-loL]++
		}

		// New level count. Exact longest-path depths keep interior levels
		// dense (a node at depth d>0 always has an in-neighbor at d-1), so
		// empty levels can only appear at the very top of the window when
		// it reaches the old deepest level — trim them.
		newLevels := oldLevels
		if oldWinEndLevel == oldLevels {
			top := nw - 1
			for top >= 0 && sz[top] == 0 {
				top--
			}
			newLevels = loL + top + 1
		}

		np.levelOff = make([]int32, newLevels+1)
		copy(np.levelOff, p.levelOff[:min(loL, newLevels)+1])
		run := int32(winStart)
		for l := loL; l < newLevels; l++ {
			np.levelOff[l] = run
			if l-loL < nw {
				run += sz[l-loL]
			} else {
				run += p.levelOff[l+1] - p.levelOff[l]
			}
		}
		np.levelOff[newLevels] = int32(n)

		// Positions: head block-copied, tail shifted by delta, window
		// levels rebuilt by merging each level's surviving run (already in
		// ascending id order) with its sorted moved-in nodes.
		np.perm = make([]int32, n)
		np.pos = make([]int32, n)
		copy(np.perm[:winStart], p.perm[:winStart])
		copy(np.pos, p.pos[:oldN])
		copy(np.perm[newWinEnd:], p.perm[oldWinEnd:])
		if delta != 0 {
			for i := newWinEnd; i < n; i++ {
				np.pos[np.perm[i]] = int32(i)
			}
		}
		slices.SortFunc(movedV, func(a, b int32) int {
			if c := int(s.depth[a]) - int(s.depth[b]); c != 0 {
				return c
			}
			return int(a - b)
		})
		mi := 0
		out := int32(winStart)
		for l := loL; l <= hiL && l < newLevels; l++ {
			oj, ojEnd := int32(0), int32(0)
			if l < oldLevels {
				oj, ojEnd = p.levelOff[l], p.levelOff[l+1]
			}
			l32 := int32(l)
			for {
				// Advance past old members that moved out of this level.
				for oj < ojEnd && s.depth[p.perm[oj]] != l32 {
					oj++
				}
				hasOld := oj < ojEnd
				hasNew := mi < len(movedV) && s.depth[movedV[mi]] == l32
				var v int32
				switch {
				case hasOld && (!hasNew || p.perm[oj] < movedV[mi]):
					v = p.perm[oj]
					oj++
				case hasNew:
					v = movedV[mi]
					mi++
				default:
					v = -1
				}
				if v < 0 {
					break
				}
				np.perm[out] = v
				np.pos[v] = out
				out++
			}
		}
		if int(out) != newWinEnd || mi != len(movedV) {
			// A window inconsistency means the dirty cone we were given
			// was incomplete; a rebuild is always sound.
			return s.fullRebuild("desync"), s.last
		}
		np.checkIdentity()
	}
	st.Window = newWinEnd - winStart

	// ---- 3. Classify CSR rows. Structural rows (edge set changed):
	// in-rows of dirty heads, out-rows of dirty tails, both rows of new
	// nodes — rebuilt from the view. Value-dirty rows (edge set intact
	// but a referenced neighbor's position changed): neighbors of every
	// window node whose position moved — re-mapped id-wise. Everything
	// else: block-copied, with tail references shifted by delta.
	listBuf := s.listBuf[:0]
	mark := func(marks []bool, v int32) {
		if !marks[v] {
			marks[v] = true
			listBuf = append(listBuf, v)
		}
	}
	for _, v := range dirtyFwd {
		s.inStruct[v] = true
	}
	for _, v := range dirtyBwd {
		s.outStruct[v] = true
	}
	for v := oldN; v < n; v++ {
		s.inStruct[v], s.outStruct[v] = true, true
	}
	for i := winStart; i < newWinEnd; i++ {
		v := int(np.perm[i])
		if v < oldN && int(p.pos[v]) == i {
			continue
		}
		for _, c := range s.view.Out(v) {
			mark(s.inDirty, int32(c))
		}
		for _, q := range s.view.In(v) {
			mark(s.outDirty, int32(q))
		}
	}

	// Capacity hint for the new CSR. The edge-count delta comes entirely
	// from structural in-rows; mild over-counting (a new node that is
	// also a dirty head) only pads the allocation.
	mNew := len(p.inAdj)
	for _, v := range dirtyFwd {
		mNew += len(s.view.In(v)) - s.oldInDeg(v, oldN)
	}
	for v := oldN; v < n; v++ {
		mNew += len(s.view.In(v))
	}
	if mNew < 0 {
		mNew = 0
	}

	oldTail := int32(oldWinEnd)
	d32 := int32(delta)
	np.inOff, np.inAdj = s.spliceCSR(np, p.inOff, p.inAdj, s.inStruct, s.inDirty, s.view.In, mNew, oldTail, d32, winStart, newWinEnd, &st)
	np.outOff, np.outAdj = s.spliceCSR(np, p.outOff, p.outAdj, s.outStruct, s.outDirty, s.view.Out, mNew, oldTail, d32, winStart, newWinEnd, &st)

	// Clear the classification marks for the next Apply.
	for _, v := range dirtyFwd {
		s.inStruct[v] = false
	}
	for _, v := range dirtyBwd {
		s.outStruct[v] = false
	}
	for v := oldN; v < n; v++ {
		s.inStruct[v], s.outStruct[v] = false, false
	}
	for _, v := range listBuf {
		s.inDirty[v], s.outDirty[v] = false, false
	}
	s.listBuf = listBuf[:0]

	// ---- 4. Chunk tables: shared before the window, recomputed inside
	// it, shifted by delta after it. falseMask is shared when the node
	// count is unchanged.
	if st.Moved > 0 {
		newLevels := np.numLevels()
		np.levelChunks = make([][]int32, newLevels)
		for l := 0; l < newLevels; l++ {
			lo, hi := np.level(l)
			switch {
			case hi <= winStart:
				np.levelChunks[l] = p.levelChunks[l]
			case lo >= newWinEnd && delta == 0:
				np.levelChunks[l] = p.levelChunks[l]
			case lo >= newWinEnd:
				if old := p.levelChunks[l]; old != nil {
					nb := make([]int32, len(old))
					for i, b := range old {
						nb[i] = b + d32
					}
					np.levelChunks[l] = nb
				}
			default:
				np.levelChunks[l] = np.chunksFor(lo, hi)
			}
		}
	}
	if n == oldN {
		np.falseMask = p.falseMask
	} else {
		np.falseMask = make([]bool, n)
	}
	np.arena = p.arena

	st.Spliced = true
	s.plan = np
	s.splices++
	s.last = st
	return np, st
}

// oldInDeg returns v's in-degree in the old plan (0 for new nodes).
func (s *Splicer) oldInDeg(v, oldN int) int {
	if v >= oldN {
		return 0
	}
	i := s.plan.pos[v]
	return int(s.plan.inOff[i+1] - s.plan.inOff[i])
}

// spliceCSR assembles one side's position-indexed CSR for the new plan.
// Structural rows are rebuilt from the view with the ascending-original-id
// order restored by sorting; dirty rows keep their edge set but re-map
// every entry through the node's new position; clean rows are copied with
// references at or past the old tail shifted by delta. Outside the
// re-level window a clean row's new position equals its old one, so
// consecutive clean rows are flushed as one block copy of the old
// adjacency span instead of row-by-row appends — on a big graph with a
// small dirty cone that bulk path is nearly the entire CSR.
func (s *Splicer) spliceCSR(np *Plan, oldOff, oldAdj []int32, structMark, dirtyMark []bool,
	view func(int) []int, mCap int, oldTail, delta int32, winStart, newWinEnd int, st *SpliceStats) ([]int32, []int32) {
	p := s.plan
	n := np.n
	off := make([]int32, n+1)
	adj := make([]int32, 0, mCap)

	emitRow := func(i, v int) {
		off[i] = int32(len(adj))
		switch {
		case structMark[v]:
			st.RowsRebuilt++
			row := s.rowBuf[:0]
			for _, q := range view(v) {
				row = append(row, int32(q))
			}
			slices.Sort(row)
			s.rowBuf = row
			for _, q := range row {
				adj = append(adj, np.pos[q])
			}
		case dirtyMark[v]:
			st.RowsRebuilt++
			op := p.pos[v]
			for _, e := range oldAdj[oldOff[op]:oldOff[op+1]] {
				adj = append(adj, np.pos[p.perm[e]])
			}
		default:
			op := p.pos[v]
			row := oldAdj[oldOff[op]:oldOff[op+1]]
			if delta == 0 {
				adj = append(adj, row...)
			} else {
				for _, e := range row {
					if e >= oldTail {
						e += delta
					}
					adj = append(adj, e)
				}
			}
		}
	}

	// bulkTo emits positions [lo, hi) where every clean row's old position
	// equals its new one: marked rows flush individually, clean runs copy
	// as one span with a constant offset shift.
	bulkTo := func(lo, hi int) {
		runStart := lo
		flush := func(end int) {
			if runStart >= end {
				return
			}
			o0, o1 := oldOff[runStart], oldOff[end]
			base := int32(len(adj)) - o0
			adj = append(adj, oldAdj[o0:o1]...)
			for j := runStart; j < end; j++ {
				off[j] = oldOff[j] + base
			}
		}
		for i := lo; i < hi; i++ {
			v := int(np.perm[i])
			if structMark[v] || dirtyMark[v] {
				flush(i)
				emitRow(i, v)
				runStart = i + 1
			}
		}
		flush(hi)
	}

	if delta == 0 {
		bulkTo(0, winStart)
	} else {
		// Node growth shifts tail positions, and even head rows can
		// reference them (out-edges cross the window), so every copied
		// entry needs the >= oldTail check — no block copies.
		for i := 0; i < winStart; i++ {
			emitRow(i, int(np.perm[i]))
		}
	}
	for i := winStart; i < newWinEnd; i++ {
		emitRow(i, int(np.perm[i]))
	}
	if delta == 0 {
		bulkTo(newWinEnd, n)
	} else {
		for i := newWinEnd; i < n; i++ {
			emitRow(i, int(np.perm[i]))
		}
	}
	off[n] = int32(len(adj))
	return off, adj
}

// rebuildPlan builds a canonical plan from the view's current state —
// the same layout buildPlan produces for a Model over the equivalent
// immutable snapshot, reusing the splicer's maintained depth state and
// the existing plan's scratch arena.
func (s *Splicer) rebuildPlan() *Plan {
	n := s.view.N()
	s.grow(n)
	p := &Plan{n: n}

	if cap(s.ordBuf) < n {
		s.ordBuf = make([]int, n)
	}
	order := s.ordBuf[:n]
	for v := 0; v < n; v++ {
		order[s.view.OrdOf(v)] = v
	}
	maxDepth := int32(-1)
	m := 0
	for _, v := range order {
		var d int32
		in := s.view.In(v)
		m += len(in)
		for _, q := range in {
			if dq := s.depth[q] + 1; dq > d {
				d = dq
			}
		}
		s.depth[v] = d
		if d > maxDepth {
			maxDepth = d
		}
	}

	p.levelOff = make([]int32, maxDepth+2)
	for v := 0; v < n; v++ {
		p.levelOff[s.depth[v]+1]++
	}
	for l := 1; l < len(p.levelOff); l++ {
		p.levelOff[l] += p.levelOff[l-1]
	}
	p.perm = make([]int32, n)
	p.pos = make([]int32, n)
	next := append([]int32(nil), p.levelOff...)
	for v := 0; v < n; v++ {
		i := next[s.depth[v]]
		next[s.depth[v]]++
		p.perm[i] = int32(v)
		p.pos[v] = i
	}
	p.checkIdentity()

	// The view's adjacency order is arbitrary (the overlay swap-deletes),
	// so every row is sorted to restore the canonical ascending-id order.
	p.inOff = make([]int32, n+1)
	p.outOff = make([]int32, n+1)
	p.inAdj = make([]int32, 0, m)
	p.outAdj = make([]int32, 0, m)
	fill := func(off []int32, adj []int32, view func(int) []int) []int32 {
		for i := 0; i < n; i++ {
			v := int(p.perm[i])
			off[i] = int32(len(adj))
			row := s.rowBuf[:0]
			for _, q := range view(v) {
				row = append(row, int32(q))
			}
			slices.Sort(row)
			s.rowBuf = row
			for _, q := range row {
				adj = append(adj, p.pos[q])
			}
		}
		off[n] = int32(len(adj))
		return adj
	}
	p.inAdj = fill(p.inOff, p.inAdj, s.view.In)
	p.outAdj = fill(p.outOff, p.outAdj, s.view.Out)

	p.falseMask = make([]bool, n)
	p.chunkHint = sched.Default().ChunkHint()
	p.levelChunks = make([][]int32, p.numLevels())
	for l := range p.levelChunks {
		lo, hi := p.level(l)
		p.levelChunks[l] = p.chunksFor(lo, hi)
	}
	if s.plan != nil {
		p.arena = s.plan.arena
	} else {
		p.arena = newPlanArena()
	}
	return p
}
