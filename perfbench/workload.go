package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	socialmatch "repro"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/vector"
)

// algorithms are the three MapReduce matchings every workload runs, in
// the order each pass runs them.
var algorithms = []socialmatch.Algorithm{
	socialmatch.GreedyMRAlgorithm,
	socialmatch.StackMRAlgorithm,
	socialmatch.StackMRStrictAlgorithm,
}

// Parameters shared by every workload. The algorithm seed is fixed so
// that only the workload seed (the -seed flag) changes the inputs.
const (
	eps       = 1.0
	algoSeed  = 1
	mappers   = 2
	reducers  = 2
	distNodes = 2
)

// workload is one pinned input make-up and the backend its matchings
// run on. The generator configuration and seed are fixed per workload;
// the benchmark's -seed draws a relabeling of that instance (see
// generate).
type workload struct {
	name    string
	backend socialmatch.ShuffleKind
	// corpus builds a tag/term corpus for the join; nil for workloads
	// that generate their graph directly.
	corpus func() *dataset.Corpus
	// graph builds a graph with capacities set, for workloads without a
	// join.
	graph func() *graph.Bipartite
	sigma float64 // join threshold σ
	alpha float64 // consumer capacity multiplier α
	// spillBudget caps the records the spill backend buffers per job.
	spillBudget int
}

// The workload sizes were chosen so that one pass takes a few seconds on
// two cores: long enough to time steadily, short enough for several
// timed passes per run. Each stresses a different layer; see README.md.
var workloads = []workload{
	{
		// Dense graph: few consumers, each with hundreds of candidate
		// items. GreedyMR's ~55 rounds over long adjacency lists dominate.
		name:    "flickr-memory",
		backend: socialmatch.ShuffleMemory,
		corpus:  func() *dataset.Corpus { return dataset.Flickr("flickr-small", dataset.FlickrSmallConfig()) },
		sigma:   4,
		alpha:   1,
	},
	{
		// tf·idf corpus whose join candidates overflow the spill budget in
		// one shuffle; the matchings then run many small spill-backend
		// shuffles.
		name:    "answers-spill",
		backend: socialmatch.ShuffleSpill,
		corpus: func() *dataset.Corpus {
			cfg := dataset.AnswersScaledConfig()
			cfg.NumItems, cfg.NumConsumers = 6000, 1500
			return dataset.Answers("yahoo-answers", cfg)
		},
		sigma:       0.2,
		alpha:       1,
		spillBudget: 1 << 18,
	},
	{
		// Power-law edge graph with many low-degree nodes: per-node work
		// (StackMR's RNG, key hashing) and the dist codec/transport
		// dominate; no join runs.
		name:    "synthetic-dist",
		backend: socialmatch.ShuffleDist,
		graph: func() *graph.Bipartite {
			return dataset.Synthetic(dataset.SyntheticConfig{
				NumItems: 30000, NumConsumers: 3000, MeanDegree: 10,
				DegreeAlpha: 1.4, WeightScale: 1, CapacityAlpha: 1.2, CapacityMax: 200,
				Seed: 1,
			})
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs are the generated inputs of one run: a corpus for the join, or
// a ready graph.
type inputs struct {
	corpus *dataset.Corpus
	graph  *graph.Bipartite
}

// generate builds the workload's fixed instance and relabels it with a
// permutation drawn from seed: a corpus gets new term ids, a graph new
// edge ids. Each seed thus gives other inputs (other join index keys and
// partitions, prefix tie orders, edge ids on the wire) of one fixed
// make-up, on which the matchings' rounds and values repeat exactly.
// Fresh generator draws would not do: the generators' heavy-tailed
// activity and capacity draws move the matching value of these sizes by
// up to 4.6x from one generator seed to the next. New node ids, or a new
// order of a node's edges, would not do either: they give StackMR other
// per-node random streams and GreedyMR other tie orders, which move
// rounds, and the times with them, by 10-20%.
func (w *workload) generate(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	if w.corpus != nil {
		return inputs{corpus: relabelTerms(w.corpus(), rng)}
	}
	return inputs{graph: relabelEdges(w.graph(), rng)}
}

func relabelTerms(c *dataset.Corpus, rng *rand.Rand) *dataset.Corpus {
	var vocab vector.TermID
	for _, docs := range [][]vector.Sparse{c.Items, c.Consumers} {
		for _, d := range docs {
			for _, e := range d.Entries() {
				vocab = max(vocab, e.Term+1)
			}
		}
	}
	terms := rng.Perm(int(vocab))
	relabel := func(docs []vector.Sparse) {
		for i, d := range docs {
			es := make([]vector.Entry, d.Len())
			for k, e := range d.Entries() {
				es[k] = vector.Entry{Term: vector.TermID(terms[e.Term]), Weight: e.Weight}
			}
			docs[i] = vector.FromEntries(es)
		}
	}
	relabel(c.Items)
	relabel(c.Consumers)
	return c
}

// relabelEdges returns g with its edges in a random order that keeps
// every node's incident edges in their original relative order: a random
// topological order of the per-node edge chains, drawn by repeatedly
// taking a random edge that is next at both of its endpoints.
func relabelEdges(g *graph.Bipartite, rng *rand.Rand) *graph.Bipartite {
	out := graph.NewBipartite(g.NumItems(), g.NumConsumers())
	head := make([]int, g.NumNodes()) // per node, its next edge to place
	next := func(v graph.NodeID) int32 {
		if inc := g.IncidentEdges(v); head[v] < len(inc) {
			return inc[head[v]]
		}
		return -1
	}
	var ready []int32
	for v := 0; v < g.NumItems(); v++ {
		if e := next(graph.NodeID(v)); e >= 0 && next(g.Edge(int(e)).Consumer) == e {
			ready = append(ready, e)
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		out.SetCapacity(graph.NodeID(v), g.Capacity(graph.NodeID(v)))
	}
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		e := g.Edge(int(ready[i]))
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		out.AddEdge(e.Item, e.Consumer, e.Weight)
		head[e.Item]++
		head[e.Consumer]++
		// An edge becomes ready when the later of its two endpoints
		// reaches it, which happens once.
		for _, u := range []graph.NodeID{e.Item, e.Consumer} {
			if f := next(u); f >= 0 {
				fe := g.Edge(int(f))
				if next(fe.Item) == f && next(fe.Consumer) == f {
					ready = append(ready, f)
				}
			}
		}
	}
	if out.NumEdges() != g.NumEdges() {
		panic("relabelEdges: lost edges")
	}
	return out
}

// digest identifies a run's inputs: for a corpus an FNV-64a hash over
// every vector's terms and weights; for the graph the matchings consume
// its part sizes, edge count and a hash over every edge (item, consumer,
// weight bits) and every capacity, in id order.
func digest(c *dataset.Corpus, g *graph.Bipartite) string {
	h := fnv.New64a()
	var buf [16]byte
	out := ""
	if c != nil {
		for _, docs := range [][]vector.Sparse{c.Items, c.Consumers} {
			for _, d := range docs {
				for _, e := range d.Entries() {
					binary.LittleEndian.PutUint32(buf[0:], uint32(e.Term))
					binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(e.Weight))
					h.Write(buf[:12])
				}
				h.Write([]byte{0xff})
			}
		}
		out = fmt.Sprintf("corpus hash=%016x ", h.Sum64())
		h.Reset()
	}
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(buf[0:], uint32(e.Item))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.Consumer))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(e.Weight))
		h.Write(buf[:])
	}
	for v := 0; v < g.NumNodes(); v++ {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(g.Capacity(graph.NodeID(v))))
		h.Write(buf[:8])
	}
	return out + fmt.Sprintf("graph |T|=%d |C|=%d |E|=%d hash=%016x",
		g.NumItems(), g.NumConsumers(), g.NumEdges(), h.Sum64())
}
