// Command perfbench is the end-to-end benchmark of the social content
// matching pipeline: generated corpus → similarity join → capacities →
// GreedyMR, StackMR and StackMRStrict, on the memory, spill and dist
// backends. It drives each layer only through its exported functions,
// times every call from outside, checks every output against
// computations of its own, and prints one JSON result as its last line.
// See README.md for the workloads, metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	socialmatch "repro"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/simjoin"
)

const (
	// setupReps is how many times a run generates its inputs (and, on
	// dist, spawns and connects its workers); setup_s uses the median.
	setupReps = 3
	// minPasses is the fewest timed passes a run makes, however short
	// its -seconds; a traced run makes at least two traced and two
	// untraced ones.
	minPasses       = 3
	minTracedPasses = 4
	// runLimit bounds a whole run, so that it ends well within the
	// 180 s a caller allows it.
	runLimit = 165 * time.Second
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload name (flickr-memory, answers-spill, synthetic-dist)")
		seed    = flag.Int64("seed", 1, "workload seed: generates the inputs")
		seconds = flag.Float64("seconds", 10, "how long the timed passes run")
		trace   = flag.Int("trace", 0, "1: trace the layer calls and report per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/perfbench", "directory for spill files and traces")
		worker  = flag.String("worker", "", "internal: serve as a dist worker of the coordinator at this address")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *worker != "" {
		if err := serveWorker(w, *seed, *worker); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return 1
		}
		return 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	b := &bench{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	out, err := b.run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// serveWorker is a dist worker process: it regenerates the coordinator's
// graph from the same workload and seed, registers the matching jobs for
// it and serves until the coordinator says goodbye.
func serveWorker(w *workload, seed int64, addr string) error {
	if w.graph == nil {
		return fmt.Errorf("workload %s has no dist graph", w.name)
	}
	core.RegisterDistJobs(w.generate(seed).graph)
	return mapreduce.ServeDistWorker(context.Background(), addr)
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	workdir string

	env     env
	workers []*exec.Cmd // the current cluster's worker processes
}

func (b *bench) run(ctx context.Context) (*result, error) {
	b.env = env{w: b.w, spillDir: filepath.Join(b.workdir, "spill")}
	if err := b.cleanSpill(); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.env.spillDir)
	defer b.closeCluster()

	// Set-up, repeated: input generation and, on dist, worker spawn and
	// connect. The last repetition's inputs and cluster are kept.
	var setups, gens []float64
	for i := 0; i < setupReps; i++ {
		if err := b.closeCluster(); err != nil {
			return nil, err
		}
		sw := startWatch()
		b.env.in = b.w.generate(b.seed)
		gens = append(gens, sw.stop().adjusted.Seconds())
		if b.w.backend == socialmatch.ShuffleDist {
			if err := b.startCluster(); err != nil {
				return nil, err
			}
		}
		setups = append(setups, sw.stop().adjusted.Seconds())
	}

	// Untimed warm-up pass: its outputs are the ones checked, and every
	// timed pass must reproduce them.
	ref := runPass(ctx, &b.env, nil)
	if err := passErr(ref); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	setupS := median(setups) + ref.total.adjusted.Seconds()
	if err := b.cleanSpill(); err != nil {
		return nil, err
	}
	fmt.Printf("inputs: workload=%s seed=%d %s\n", b.w.name, b.seed, digest(b.env.in.corpus, ref.graph))

	var tr *tracer
	if b.trace {
		tr = newTracer()
	}
	samples := make(map[string][]float64)
	var tracedTotals, untracedTotals []float64
	attempted, failed := 0, 0
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	least := minPasses
	if tr != nil {
		least = minTracedPasses
	}
	for i := 0; i < least || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("timed pass %d: %w", i, err)
		}
		runtime.GC()
		// Traced runs alternate traced and untraced passes; the
		// difference of their totals is the tracing overhead.
		var ptr *tracer
		if tr != nil && i%2 == 0 {
			ptr = tr
			tr.pass = i
		}
		cpu0, err := cpuSeconds(b.workerPIDs())
		if err != nil {
			return nil, err
		}
		rt0 := readRuntime()
		p := runPass(ctx, &b.env, ptr)
		rt1 := readRuntime()
		cpu1, err := cpuSeconds(b.workerPIDs())
		if err != nil {
			return nil, err
		}
		if err := b.cleanSpill(); err != nil {
			return nil, err
		}
		n, why := failures(ref, p)
		attempted += b.env.operations()
		failed += n
		for _, s := range why {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %s\n", i, s)
		}
		fmt.Fprintf(os.Stderr, "pass %d: %.4f s (wall %.4f s, %.1f%% stolen), cpu %.4f s\n",
			i, p.total.adjusted.Seconds(), p.total.wall.Seconds(), 100*p.total.stolen, cpu1-cpu0)
		rt := runtimeSample{rt1.allocBytes - rt0.allocBytes, rt1.gcCycles - rt0.gcCycles, rt1.gcCPU - rt0.gcCPU}
		for k, v := range passMetrics(p, cpu1-cpu0, rt) {
			samples[k] = append(samples[k], v)
		}
		if ptr != nil {
			tracedTotals = append(tracedTotals, p.total.adjusted.Seconds())
		} else {
			untracedTotals = append(untracedTotals, p.total.adjusted.Seconds())
		}
	}
	peak, err := b.peakRSS()
	if err != nil {
		return nil, err
	}

	correct := true
	for _, err := range b.check(ctx, ref) {
		correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	if err := b.closeCluster(); err != nil {
		return nil, err
	}

	values := map[string]float64{
		"setup_s":            setupS,
		"peak_rss_mb":        peak,
		"dataset.generate_s": median(gens),
	}
	for k, v := range samples {
		values[k] = median(v)
	}
	defs := endToEndDefs()
	if tr != nil {
		defs = perLayerDefs()
		values["trace.total_s"] = median(tracedTotals)
		values["trace.untraced_total_s"] = median(untracedTotals)
		values["trace.overhead_s"] = median(tracedTotals) - median(untracedTotals)
		path := filepath.Join(b.workdir, fmt.Sprintf("trace-%s-seed%d.json", b.w.name, b.seed))
		if err := tr.writeFile(path); err != nil {
			return nil, err
		}
		tr.printSummary(os.Stdout, len(tracedTotals))
		fmt.Printf("trace: %s (tracing overhead %+.4f s per pass)\n", path, values["trace.overhead_s"])
	}
	out := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out, nil
}

// passErr returns the first error of a pass's layer calls.
func passErr(p *pass) error {
	if p.err != nil {
		return p.err
	}
	for _, m := range p.matches {
		if m.err != nil {
			return fmt.Errorf("%s: %w", m.algo, m.err)
		}
	}
	return nil
}

// cleanSpill empties the spill directory the benchmark owns.
func (b *bench) cleanSpill() error {
	if err := os.RemoveAll(b.env.spillDir); err != nil {
		return err
	}
	return os.MkdirAll(b.env.spillDir, 0o755)
}

// startCluster spawns distNodes workers of this binary and connects them.
func (b *bench) startCluster() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	b.workers = nil
	cl, err := socialmatch.StartDistCluster(distNodes, socialmatch.DistClusterOptions{
		Spawn: func(addr string) *exec.Cmd {
			cmd := exec.Command(exe, "-worker", addr, "-workload", b.w.name, "-seed", strconv.FormatInt(b.seed, 10))
			cmd.Stderr = os.Stderr
			b.workers = append(b.workers, cmd)
			return cmd
		},
	})
	if err != nil {
		return fmt.Errorf("start dist cluster: %w", err)
	}
	b.env.cluster = cl
	return nil
}

// closeCluster closes the cluster, if any, which waits for its workers
// to exit.
func (b *bench) closeCluster() error {
	cl := b.env.cluster
	if cl == nil {
		return nil
	}
	b.env.cluster = nil
	if err := cl.Close(); err != nil {
		return fmt.Errorf("close dist cluster: %w", err)
	}
	return nil
}

func (b *bench) workerPIDs() []int {
	var pids []int
	for _, c := range b.workers {
		if b.env.cluster != nil && c.Process != nil {
			pids = append(pids, c.Process.Pid)
		}
	}
	return pids
}

// peakRSS sums the peak resident sets of this process and of each live
// worker, in MB.
func (b *bench) peakRSS() (float64, error) {
	total, err := peakRSSMB("self")
	if err != nil {
		return 0, err
	}
	for _, pid := range b.workerPIDs() {
		mb, err := peakRSSMB(strconv.Itoa(pid))
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// check verifies the warm-up pass's outputs and returns every failure.
func (b *bench) check(ctx context.Context, ref *pass) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	g := ref.graph

	if c := b.env.in.corpus; c != nil {
		stride := joinStride(c.NumItems(), c.NumConsumers())
		if err := checkJoin(c.Items, c.Consumers, b.w.sigma, ref.join.Edges, stride); err != nil {
			fail("join vs all-pairs (item stride %d): %v", stride, err)
		}
	}

	stackBound := math.Inf(1) // until a verified StackMR certificate bounds the optimum
	for _, m := range ref.matches {
		edges := m.res.Matching.Edges()
		slack := 1.0
		if m.algo == socialmatch.StackMRAlgorithm {
			slack = 1 + eps
		}
		if err := checkMatching(g, edges, m.res.Matching.Value(), slack); err != nil {
			fail("%s: %v", m.algo, err)
		}
		if m.algo == socialmatch.GreedyMRAlgorithm {
			if err := checkGreedy(g, edges); err != nil {
				fail("%s vs sequential greedy: %v", m.algo, err)
			}
			continue
		}
		if m.res.Certificate == nil {
			fail("%s: no dual certificate", m.algo)
			continue
		}
		bound, err := checkCover(g, m.res.Certificate.Y, eps)
		switch {
		case err != nil:
			fail("%s certificate: %v", m.algo, err)
		case m.algo == socialmatch.StackMRAlgorithm:
			stackBound = bound
		}
	}
	// GreedyMR and StackMRStrict are exactly feasible, so no optimum the
	// certificate bounds can be below their values.
	for _, m := range ref.matches {
		if v := m.res.Matching.Value(); m.algo != socialmatch.StackMRAlgorithm && v > stackBound && !near(v, stackBound) {
			fail("%s value %g exceeds the StackMR certificate bound %g", m.algo, v, stackBound)
		}
	}

	// Spill and dist must reproduce the memory backend exactly.
	if b.w.backend != socialmatch.ShuffleMemory {
		errs = append(errs, b.checkAgainstMemory(ctx, ref)...)
	}
	return errs
}

// checkAgainstMemory reruns the warm-up pass's layer calls on the memory
// backend and requires identical outputs.
func (b *bench) checkAgainstMemory(ctx context.Context, ref *pass) []error {
	var errs []error
	if c := b.env.in.corpus; c != nil {
		jr, err := simjoin.Join(ctx, c.Items, c.Consumers, b.w.sigma, simjoin.Options{MR: b.env.joinConfig(socialmatch.ShuffleMemory)})
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("memory-backend join: %w", err))
		case !slices.Equal(jr.Edges, ref.join.Edges):
			errs = append(errs, errors.New("join differs from the memory backend"))
		}
	}
	for _, m := range ref.matches {
		res, err := socialmatch.Match(ctx, ref.graph, b.env.matchOptions(m.algo, socialmatch.ShuffleMemory))
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("%s on the memory backend: %w", m.algo, err))
		case !slices.Equal(res.Matching.EdgeIndexes(), m.res.Matching.EdgeIndexes()):
			errs = append(errs, fmt.Errorf("%s differs from the memory backend", m.algo))
		}
	}
	return errs
}
