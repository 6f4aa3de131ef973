package graph

// RefReadEdgeList exposes the reference parser to the graph_test package,
// whose tests import generators that themselves import graph.
var RefReadEdgeList = refReadEdgeList
