package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	socialmatch "repro"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/simjoin"
)

// smallGraph is a synthetic graph small enough for tests, with
// fractional capacities.
func smallGraph(t *testing.T) *graph.Bipartite {
	t.Helper()
	return dataset.Synthetic(dataset.SyntheticConfig{
		NumItems: 300, NumConsumers: 60, MeanDegree: 5,
		DegreeAlpha: 1.4, WeightScale: 1, CapacityAlpha: 1.2, CapacityMax: 10, Seed: 7,
	})
}

func match(t *testing.T, g *graph.Bipartite, a socialmatch.Algorithm) *socialmatch.Result {
	t.Helper()
	res, err := socialmatch.Match(context.Background(), g, socialmatch.Options{
		Algorithm: a, Eps: eps, Seed: algoSeed, Mappers: 2, Reducers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCheckMatchingAcceptsProgramOutput(t *testing.T) {
	g := smallGraph(t)
	for _, a := range algorithms {
		res := match(t, g, a)
		slack := 1.0
		if a == socialmatch.StackMRAlgorithm {
			slack = 1 + eps
		}
		if err := checkMatching(g, res.Matching.Edges(), res.Matching.Value(), slack); err != nil {
			t.Errorf("%s: %v", a, err)
		}
	}
}

func TestCheckMatchingRejectsCorruptOutput(t *testing.T) {
	g := smallGraph(t)
	res := match(t, g, socialmatch.GreedyMRAlgorithm)
	edges, value := res.Matching.Edges(), res.Matching.Value()

	// The first node with spare capacity on an unmatched edge, to add
	// edges past a node's capacity.
	deg := map[graph.NodeID]int{}
	for _, e := range edges {
		deg[e.Consumer]++
	}
	var over []graph.Edge
	for _, e := range g.Edges() {
		if !slices.Contains(edges, e) && e.Consumer == edges[0].Consumer {
			over = append(over, e)
		}
	}
	need := capLimit(g, edges[0].Consumer, 1) - deg[edges[0].Consumer] + 1
	if len(over) < need {
		t.Fatalf("test graph: consumer %d has too few unmatched edges", edges[0].Consumer)
	}
	overEdges := append(slices.Clone(edges), over[:need]...)
	overValue := value
	for _, e := range over[:need] {
		overValue += e.Weight
	}

	foreign := edges[0]
	foreign.Weight += 1
	cases := []struct {
		name  string
		edges []graph.Edge
		value float64
		want  string
	}{
		{"duplicated edge", append(slices.Clone(edges), edges[0]), value + edges[0].Weight, "appears twice"},
		{"over-capacity node", overEdges, overValue, "matched edges, limit"},
		{"wrong weight", append([]graph.Edge{foreign}, edges[1:]...), value + 1, "has weight"},
		{"edge not in graph", append(slices.Clone(edges), graph.Edge{Item: 0, Consumer: 0, Weight: 1}), value + 1, "not in the graph"},
		{"wrong value", edges, value + 0.5, "recomputed"},
	}
	for _, c := range cases {
		err := checkMatching(g, c.edges, c.value, 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestCheckGreedy(t *testing.T) {
	g := smallGraph(t)
	edges := match(t, g, socialmatch.GreedyMRAlgorithm).Matching.Edges()
	if err := checkGreedy(g, edges); err != nil {
		t.Fatalf("GreedyMR vs sequential greedy: %v", err)
	}
	// Swap one matched edge for an unmatched one.
	for _, e := range g.Edges() {
		if !slices.Contains(edges, e) {
			bad := append([]graph.Edge{e}, edges[1:]...)
			if err := checkGreedy(g, bad); err == nil {
				t.Fatal("a matching that is not the greedy one passed")
			}
			return
		}
	}
	t.Fatal("test graph: every edge is matched")
}

func TestCheckCover(t *testing.T) {
	g := smallGraph(t)
	for _, a := range []socialmatch.Algorithm{socialmatch.StackMRAlgorithm, socialmatch.StackMRStrictAlgorithm} {
		res := match(t, g, a)
		bound, err := checkCover(g, res.Certificate.Y, eps)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if greedy := match(t, g, socialmatch.GreedyMRAlgorithm).Matching.Value(); greedy > bound {
			t.Errorf("%s: feasible GreedyMR value %g above certified bound %g", a, greedy, bound)
		}
		// Zero the duals of one edge's endpoints: it is no longer covered.
		y := slices.Clone(res.Certificate.Y)
		e := g.Edge(0)
		y[e.Item], y[e.Consumer] = 0, 0
		if _, err := checkCover(g, y, eps); err == nil || !strings.Contains(err.Error(), "not weakly covered") {
			t.Errorf("%s: uncovered edge: got %v", a, err)
		}
	}
}

func TestCheckJoin(t *testing.T) {
	cfg := dataset.FlickrSmallConfig()
	cfg.NumItems, cfg.NumConsumers = 400, 80
	c := dataset.Flickr("flickr-test", cfg)
	const sigma = 4
	jr, err := simjoin.Join(context.Background(), c.Items, c.Consumers, sigma, simjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jr.Edges) < 2 {
		t.Fatalf("test corpus: only %d join edges", len(jr.Edges))
	}
	for _, stride := range []int{1, 3} {
		if err := checkJoin(c.Items, c.Consumers, sigma, jr.Edges, stride); err != nil {
			t.Errorf("stride %d: %v", stride, err)
		}
	}

	missing := slices.Delete(slices.Clone(jr.Edges), 0, 1)
	wrongSim := slices.Clone(jr.Edges)
	wrongSim[0].Sim += 0.5
	cases := map[string][]simjoin.Edge{"missing join pair": missing, "wrong similarity": wrongSim}
	for name, edges := range cases {
		if err := checkJoin(c.Items, c.Consumers, sigma, edges, 1); err == nil {
			t.Errorf("%s passed", name)
		}
	}
	// A pair below σ: add the lowest-scoring pair of item 0.
	var low simjoin.Edge
	found := false
	for j, u := range c.Consumers {
		if s := c.Items[0].Dot(u); s > 0 && s < sigma {
			low, found = simjoin.Edge{Item: 0, Consumer: int32(j), Sim: s}, true
			break
		}
	}
	if found {
		extra := append([]simjoin.Edge{low}, jr.Edges...)
		slices.SortFunc(extra, func(a, b simjoin.Edge) int {
			if a.Item != b.Item {
				return int(a.Item - b.Item)
			}
			return int(a.Consumer - b.Consumer)
		})
		if err := checkJoin(c.Items, c.Consumers, sigma, extra, 1); err == nil {
			t.Error("pair below σ passed")
		}
	}
}

// TestDigestFollowsSeed pins the inputs to the seed: the same seed gives
// the same digest, another seed another.
func TestDigestFollowsSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and joins every workload's full inputs")
	}
	for i := range workloads {
		w := &workloads[i]
		d := func(seed int64) string {
			e := &env{w: w, in: w.generate(seed), spillDir: t.TempDir()}
			if e.in.graph != nil {
				return digest(nil, e.in.graph)
			}
			jr, err := simjoin.Join(context.Background(), e.in.corpus.Items, e.in.corpus.Consumers, w.sigma,
				simjoin.Options{MR: e.joinConfig(socialmatch.ShuffleMemory)})
			if err != nil {
				t.Fatal(err)
			}
			g := simjoin.ToGraph(jr.Edges, e.in.corpus.NumItems(), e.in.corpus.NumConsumers())
			if err := e.in.corpus.ApplyCapacities(g, w.alpha); err != nil {
				t.Fatal(err)
			}
			return digest(e.in.corpus, g)
		}
		a, b, c := d(1), d(1), d(2)
		if a != b {
			t.Errorf("%s: seed 1 gave %s, then %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both gave %s", w.name, a)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "pass", start: 0, end: 10, parent: -1},
		{name: "a", start: 1, end: 3, parent: 0},
		{name: "a", start: 2, end: 5, parent: 0},  // overlaps the first child
		{name: "b", start: 8, end: 12, parent: 0}, // runs past the parent
		{name: "c", start: 1, end: 2, parent: 1},
	}}
	got := map[string]layerTime{}
	for _, lt := range tr.selfTimes() {
		got[lt.name] = lt
	}
	want := map[string][2]float64{"pass": {10, 4}, "a": {5, 4}, "b": {4, 4}, "c": {1, 1}}
	for name, w := range want {
		if g := got[name]; g.total != w[0] || g.self != w[1] {
			t.Errorf("%s: total %g self %g, want %g %g", name, g.total, g.self, w[0], w[1])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	if !slices.Equal(spec.EndToEnd, endToEndDefs()) {
		t.Errorf("end_to_end differs from endToEndDefs:\n%v\n%v", spec.EndToEnd, endToEndDefs())
	}
	if !slices.Equal(spec.PerLayer, perLayerDefs()) {
		t.Errorf("per_layer differs from perLayerDefs")
	}
}
