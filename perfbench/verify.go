package main

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/server"
)

// check is one served answer set aside for recomputation after the
// timed phase: the graph state it was served on, the request, and the
// response.
type check struct {
	kind    string // op kind the failure is charged to
	key     string // identifies the graph state; checks sharing a key share a model
	build   func() (*flow.Model, error)
	algo    string // gall, gmax, gl or evaluate
	k       int
	filters []int // evaluate's query
	got     server.PlaceResult
}

var strategies = map[string]core.Strategy{
	"gall": core.StrategyGreedyAll,
	"gmax": core.StrategyGreedyMax,
	"gl":   core.StrategyGreedyL,
}

// verify recomputes every check in process with core.Place and the float
// engine and returns the failures per op kind: filters must be identical
// and every objective value bitwise equal.
func verify(checks []check) (map[string]int, []string) {
	models := map[string]*flow.Model{}
	failed := map[string]int{}
	var errs []string
	for _, ck := range checks {
		if err := verifyOne(ck, models); err != nil {
			failed[ck.kind]++
			if len(errs) < 8 {
				errs = append(errs, fmt.Sprintf("verify %s on %s: %v", ck.algo, ck.key, err))
			}
		}
	}
	return failed, errs
}

func verifyOne(ck check, models map[string]*flow.Model) error {
	m := models[ck.key]
	if m == nil {
		var err error
		if m, err = ck.build(); err != nil {
			return err
		}
		models[ck.key] = m
	}
	ev := flow.NewFloat(m)
	want := server.PlaceResult{Filters: ck.filters}
	if ck.algo != "evaluate" {
		res, err := core.Place(context.Background(), ev, ck.k, core.Options{Strategy: strategies[ck.algo]})
		if err != nil {
			return err
		}
		want.Filters = res.Filters
	}
	mask := flow.MaskOf(m.N(), want.Filters)
	want.PhiEmpty, want.PhiA, want.F, want.FR = ev.Phi(nil), ev.Phi(mask), ev.F(mask), flow.FR(ev, mask)
	if !slices.Equal(ck.got.Filters, want.Filters) {
		return fmt.Errorf("filters %v, in process %v", ck.got.Filters, want.Filters)
	}
	got := []float64{ck.got.PhiEmpty, ck.got.PhiA, ck.got.F, ck.got.FR}
	exp := []float64{want.PhiEmpty, want.PhiA, want.F, want.FR}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(exp[i]) {
			return fmt.Errorf("objective %v, in process %v", got, exp)
		}
	}
	return nil
}

// modelOf builds the model of base with extra edges added, using the
// sources the server derives for the uploaded base graph.
func modelOf(base *graph.Digraph, added [][2]int) (*flow.Model, error) {
	if len(added) == 0 {
		return flow.NewModel(base, nil)
	}
	b := graph.NewBuilder(base.N())
	for u := 0; u < base.N(); u++ {
		for _, v := range base.Out(u) {
			b.AddEdge(u, v)
		}
	}
	b.AddEdges(added)
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return flow.NewModel(g, base.Sources())
}
