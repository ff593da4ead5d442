package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/simjoin"
	"repro/internal/vector"
)

// The checks below recompute what the program computed, in code of the
// benchmark's own that shares no logic with the program: plain loops
// over the inputs, no index, no MapReduce.

// joinCheckPairs bounds the (item, consumer) pairs checkJoin scores; past
// it, items are sampled with a fixed stride.
const joinCheckPairs = 4 << 20

// joinStride returns the item stride that keeps the all-pairs check
// within joinCheckPairs pairs (1 = every pair).
func joinStride(numItems, numConsumers int) int {
	pairs := numItems * numConsumers
	return max(1, (pairs+joinCheckPairs-1)/joinCheckPairs)
}

// checkJoin scores every consumer against every stride-th item with a
// dense dot product and requires edges to hold exactly the pairs that
// reach sigma, with their similarities. Pairs whose score is within
// rounding of sigma, but not equal to it, may be present or absent.
func checkJoin(items, consumers []vector.Sparse, sigma float64, edges []simjoin.Edge, stride int) error {
	var maxTerm vector.TermID
	for _, d := range items {
		for _, e := range d.Entries() {
			maxTerm = max(maxTerm, e.Term)
		}
	}
	dense := make([]float64, maxTerm+1)
	byItem := make(map[int32][]simjoin.Edge)
	for _, e := range edges {
		if e.Item < 0 || int(e.Item) >= len(items) || e.Consumer < 0 || int(e.Consumer) >= len(consumers) {
			return fmt.Errorf("join edge (%d,%d) out of range", e.Item, e.Consumer)
		}
		byItem[e.Item] = append(byItem[e.Item], e)
	}
	for i := 0; i < len(items); i += stride {
		for _, e := range items[i].Entries() {
			dense[e.Term] = e.Weight
		}
		got := byItem[int32(i)]
		k := 0
		for j, c := range consumers {
			var s float64
			for _, e := range c.Entries() {
				if e.Term <= maxTerm {
					s += e.Weight * dense[e.Term]
				}
			}
			present := k < len(got) && int(got[k].Consumer) == j
			// Only a score that rounding could put on either side of σ
			// leaves the pair's presence open.
			open := s != sigma && near(s, sigma)
			switch {
			case present && !near(got[k].Sim, s):
				return fmt.Errorf("join pair (%d,%d): similarity %g, all-pairs %g", i, j, got[k].Sim, s)
			case present && s < sigma && !open:
				return fmt.Errorf("join pair (%d,%d): similarity %g below σ=%g", i, j, s, sigma)
			case !present && s >= sigma && !open:
				return fmt.Errorf("join misses pair (%d,%d) with similarity %g ≥ σ=%g", i, j, s, sigma)
			}
			if present {
				k++
			}
		}
		if k != len(got) {
			return fmt.Errorf("join edges of item %d are not in ascending consumer order or repeat a consumer", i)
		}
		for _, e := range items[i].Entries() {
			dense[e.Term] = 0
		}
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(1, math.Abs(a), math.Abs(b))
}

// capLimit is the most matched edges node v may have under slack: the
// integral capacity ⌈b(v)⌉ for slack 1, else ⌈slack·b(v)⌉.
func capLimit(g *graph.Bipartite, v graph.NodeID, slack float64) int {
	return int(math.Ceil(slack * g.Capacity(v)))
}

// checkMatching verifies a matching given as edges (item, consumer,
// weight): every edge exists in g with that weight, no pair appears
// twice, the reported value equals the recomputed one, and every node's
// matched degree stays within capLimit(slack).
func checkMatching(g *graph.Bipartite, matched []graph.Edge, value, slack float64) error {
	type pair struct{ u, v graph.NodeID }
	weight := make(map[pair]float64, g.NumEdges())
	for _, e := range g.Edges() {
		weight[pair{e.Item, e.Consumer}] = e.Weight
	}
	seen := make(map[pair]bool, len(matched))
	deg := make(map[graph.NodeID]int)
	var sum float64
	for _, e := range matched {
		p := pair{e.Item, e.Consumer}
		w, ok := weight[p]
		switch {
		case !ok:
			return fmt.Errorf("matched edge (%d,%d) is not in the graph", e.Item, e.Consumer)
		case w != e.Weight:
			return fmt.Errorf("matched edge (%d,%d) has weight %g, graph %g", e.Item, e.Consumer, e.Weight, w)
		case seen[p]:
			return fmt.Errorf("matched edge (%d,%d) appears twice", e.Item, e.Consumer)
		}
		seen[p] = true
		deg[e.Item]++
		deg[e.Consumer]++
		sum += e.Weight
	}
	if !near(sum, value) {
		return fmt.Errorf("reported value %g, recomputed %g", value, sum)
	}
	for v, d := range deg {
		if lim := capLimit(g, v, slack); d > lim {
			return fmt.Errorf("node %d has %d matched edges, limit %d (b=%g, slack %g)", v, d, lim, g.Capacity(v), slack)
		}
	}
	return nil
}

// sequentialGreedy is the centralized greedy b-matching: edges by weight
// descending, ties on (item, consumer), each taken while both endpoints
// have residual capacity ⌈b⌉. It returns the taken edges sorted by
// (item, consumer).
func sequentialGreedy(g *graph.Bipartite) []graph.Edge {
	edges := slices.Clone(g.Edges())
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		switch {
		case a.Weight != b.Weight:
			if a.Weight > b.Weight {
				return -1
			}
			return 1
		case a.Item != b.Item:
			return int(a.Item - b.Item)
		}
		return int(a.Consumer - b.Consumer)
	})
	residual := make([]int, g.NumNodes())
	for v := range residual {
		residual[v] = capLimit(g, graph.NodeID(v), 1)
	}
	var out []graph.Edge
	for _, e := range edges {
		if residual[e.Item] > 0 && residual[e.Consumer] > 0 {
			residual[e.Item]--
			residual[e.Consumer]--
			out = append(out, e)
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(edges []graph.Edge) {
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		if a.Item != b.Item {
			return int(a.Item - b.Item)
		}
		return int(a.Consumer - b.Consumer)
	})
}

// checkGreedy requires matched to be exactly the sequential greedy
// matching of g.
func checkGreedy(g *graph.Bipartite, matched []graph.Edge) error {
	want := sequentialGreedy(g)
	got := slices.Clone(matched)
	sortPairs(got)
	if len(got) != len(want) {
		return fmt.Errorf("%d matched edges, sequential greedy %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("edge %d is (%d,%d), sequential greedy (%d,%d)",
				i, got[i].Item, got[i].Consumer, want[i].Item, want[i].Consumer)
		}
	}
	return nil
}

// checkCover verifies the stack certificate's weak cover of every edge
// between nodes of positive capacity, y_u/⌈b(u)⌉ + y_v/⌈b(v)⌉ ≥
// w/(3+2ε), and returns the bound (3+2ε)·Σy it certifies on the optimum.
func checkCover(g *graph.Bipartite, y []float64, eps float64) (float64, error) {
	if len(y) != g.NumNodes() {
		return 0, fmt.Errorf("certificate has %d duals for %d nodes", len(y), g.NumNodes())
	}
	for i, e := range g.Edges() {
		bu, bv := float64(capLimit(g, e.Item, 1)), float64(capLimit(g, e.Consumer, 1))
		if bu == 0 || bv == 0 {
			continue
		}
		need := e.Weight / (3 + 2*eps)
		if cover := y[e.Item]/bu + y[e.Consumer]/bv; cover < need && !near(cover, need) {
			return 0, fmt.Errorf("edge %d (%d,%d) not weakly covered: %g < %g", i, e.Item, e.Consumer, cover, need)
		}
	}
	var sum float64
	for _, v := range y {
		sum += v
	}
	return (3 + 2*eps) * sum, nil
}
