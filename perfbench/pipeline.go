package main

import (
	"context"
	"fmt"
	"slices"

	socialmatch "repro"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/simjoin"
)

// env is what every pass of one run shares: the workload, its generated
// inputs and the backend configuration.
type env struct {
	w        *workload
	in       inputs
	spillDir string
	cluster  *socialmatch.DistCluster
}

// matchOptions returns the Match options of algorithm a on backend kind.
// Parallelism is pinned, never taken from the machine.
func (e *env) matchOptions(a socialmatch.Algorithm, kind socialmatch.ShuffleKind) socialmatch.Options {
	o := socialmatch.Options{
		Algorithm: a, Eps: eps, Seed: algoSeed,
		Mappers: mappers, Reducers: reducers, Shuffle: kind,
	}
	switch kind {
	case socialmatch.ShuffleSpill:
		o.ShuffleMemoryBudget = e.w.spillBudget
		o.ShuffleTempDir = e.spillDir
	case socialmatch.ShuffleDist:
		o.Dist = e.cluster
	}
	return o
}

// joinConfig is the MapReduce configuration of the join's two jobs on
// backend kind (the join never runs on dist in this benchmark).
func (e *env) joinConfig(kind socialmatch.ShuffleKind) mapreduce.Config {
	return mapreduce.Config{
		Mappers: mappers, Reducers: reducers,
		Shuffle: mapreduce.ShuffleConfig{
			Backend: kind, MemoryBudget: e.w.spillBudget, TempDir: e.spillDir,
		},
	}
}

// matchRun is one algorithm's Match call within a pass.
type matchRun struct {
	algo socialmatch.Algorithm
	res  *socialmatch.Result
	time lap
	err  error
}

// pass is the outcome of one run of the whole pipeline.
type pass struct {
	join     *simjoin.Result // nil when the workload has no join
	joinTime lap
	capTime  lap
	graph    *graph.Bipartite
	matches  []matchRun
	total    lap
	err      error // a join or capacity failure; the matchings did not run
}

// runPass runs join, capacities and the three matchings on the
// workload's own backend, recording a span around each layer call when
// tr is not nil.
func runPass(ctx context.Context, e *env, tr *tracer) *pass {
	p := &pass{}
	start := startWatch()
	root := tr.begin("pass", -1)
	defer func() {
		p.total = start.stop()
		tr.end(root)
	}()
	if c := e.in.corpus; c != nil {
		sp := tr.begin("simjoin.Join", root)
		sw := startWatch()
		p.join, p.err = simjoin.Join(ctx, c.Items, c.Consumers, e.w.sigma, simjoin.Options{MR: e.joinConfig(e.w.backend)})
		p.joinTime = sw.stop()
		tr.end(sp)
		if p.err != nil {
			p.err = fmt.Errorf("join: %w", p.err)
			return p
		}
		tr.engineSpans(sp, "simjoin", []mapreduce.Stats{p.join.Shuffle})

		sp = tr.begin("capacity.assign", root)
		sw = startWatch()
		p.graph = simjoin.ToGraph(p.join.Edges, c.NumItems(), c.NumConsumers())
		p.err = c.ApplyCapacities(p.graph, e.w.alpha)
		p.capTime = sw.stop()
		tr.end(sp)
		if p.err != nil {
			p.err = fmt.Errorf("capacities: %w", p.err)
			return p
		}
	} else {
		p.graph = e.in.graph
	}
	for _, a := range algorithms {
		sp := tr.begin("core.Match "+string(a), root)
		sw := startWatch()
		res, err := socialmatch.Match(ctx, p.graph, e.matchOptions(a, e.w.backend))
		m := matchRun{algo: a, res: res, time: sw.stop(), err: err}
		tr.end(sp)
		if err == nil {
			tr.engineSpans(sp, string(a), res.RoundStats)
			tr.roundCounters(sp, string(a), res)
		}
		p.matches = append(p.matches, m)
	}
	return p
}

// operations counts the layer calls of one pass: join and capacity
// assignment when the workload has a join, plus one per algorithm.
func (e *env) operations() int {
	if e.in.corpus != nil {
		return 2 + len(algorithms)
	}
	return len(algorithms)
}

// failures counts the operations of p that failed or whose output
// differs from the warm-up pass ref.
func failures(ref, p *pass) (int, []string) {
	var n int
	var why []string
	fail := func(format string, args ...any) {
		n++
		why = append(why, fmt.Sprintf(format, args...))
	}
	if p.err != nil {
		// The failed layer call and every later one in the pass.
		ops := len(algorithms) + 1
		if p.join == nil {
			ops++
		}
		n += ops
		return n, append(why, p.err.Error())
	}
	if ref.join != nil {
		if !slices.Equal(ref.join.Edges, p.join.Edges) {
			fail("join edges differ from the warm-up pass")
		}
		if digest(nil, ref.graph) != digest(nil, p.graph) {
			fail("capacity-assigned graph differs from the warm-up pass")
		}
	}
	for i, m := range p.matches {
		switch {
		case m.err != nil:
			fail("%s: %v", m.algo, m.err)
		case !slices.Equal(ref.matches[i].res.Matching.EdgeIndexes(), m.res.Matching.EdgeIndexes()):
			fail("%s: matching differs from the warm-up pass", m.algo)
		}
	}
	return n, why
}
