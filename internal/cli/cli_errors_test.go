package cli

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// These tests cover the entrypoint error paths the original suite left
// untested, so CLI regressions surface as test failures instead of
// runtime surprises.

func TestFpgenBadFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpgen([]string{"-definitely-not-a-flag"}, &out, &errw); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestFpplaceBadFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpplace([]string{"-definitely-not-a-flag"}, nil, &out, &errw); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestFpplaceGarbageInput(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpplace([]string{"-in", "-"},
		strings.NewReader("0\n"), &out, &errw); err == nil {
		t.Error("malformed edge list accepted")
	}
}

func TestFpplaceWeightedAcyclicRejected(t *testing.T) {
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-weighted", "-acyclic"},
		strings.NewReader("0 1 0.5\n"), &out, &errw)
	if err == nil {
		t.Error("-weighted with -acyclic accepted")
	}
}

func TestFpplaceTreeNeedsSingleSource(t *testing.T) {
	// Two in-degree-0 nodes feeding node 2: the tree DP must refuse.
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-algo", "tree"},
		strings.NewReader("0 2\n1 2\n"), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "exactly one source") {
		t.Errorf("err = %v, want single-source complaint", err)
	}
}

func TestFpplaceTreeOnNonTree(t *testing.T) {
	// Single source but a diamond, not a communication tree.
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-algo", "tree", "-k", "1"},
		strings.NewReader("0 1\n0 2\n1 3\n2 3\n"), &out, &errw)
	if err == nil {
		t.Error("tree DP accepted a non-tree graph")
	}
}

func TestFpplaceDOTUnwritable(t *testing.T) {
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-k", "1", "-dot", filepath.Join("/no/such/dir", "x.dot")},
		strings.NewReader("0 1\n0 2\n1 3\n2 3\n"), &out, &errw)
	if err == nil {
		t.Error("unwritable -dot path accepted")
	}
}

func TestFpplaceAcyclicBadSource(t *testing.T) {
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-acyclic", "-source", "99"},
		strings.NewReader("0 1\n1 0\n"), &out, &errw)
	if err == nil {
		t.Error("out-of-range -source accepted")
	}
}

func TestFpplaceSourceWithInEdges(t *testing.T) {
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-source", "1"},
		strings.NewReader("0 1\n1 2\n"), &out, &errw)
	if err == nil {
		t.Error("source with in-edges accepted")
	}
}

// TestFpplaceRemovedSurfaces: the deleted approximate and multilevel
// placement paths, and their flags, fail instead of silently running
// something else.
func TestFpplaceRemovedSurfaces(t *testing.T) {
	for _, extra := range [][]string{
		{"-algo", "approx"},
		{"-algo", "ml-celf"},
		{"-algo", "glfast"},
		{"-quality", "0.1"},
		{"-coarsen-ratio", "0.5"},
		{"-coarsen-lossless"},
	} {
		var out, errw bytes.Buffer
		args := append([]string{"-in", "-", "-k", "1"}, extra...)
		if err := RunFpplace(args, strings.NewReader("0 1\n0 2\n1 3\n2 3\n"), &out, &errw); err == nil {
			t.Errorf("fpplace %v accepted", extra)
		}
	}
}

func TestFpexpRunErrorMidStream(t *testing.T) {
	// A valid id followed by an invalid one: the error must surface after
	// the first experiment already printed.
	var out, errw bytes.Buffer
	err := RunFpexp([]string{"-exp", "fig2,bogus", "-quick"}, &out, &errw)
	if err == nil {
		t.Error("bogus id in list accepted")
	}
	if !strings.Contains(out.String(), "Greedy_1") {
		t.Error("first experiment did not run before the failure")
	}
}
