package main

import (
	"sort"

	socialmatch "repro"
	"repro/internal/mapreduce"
)

// metricDef is one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics a user of the pipeline sees, reported
// with tracing off. Bound is the share of the parent's median by which
// a metric may worsen before a change counts as a regression.
func endToEndDefs() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", "lower", 0.25},
		{"total_s", "s", "lower", 0.25},
	}
	for _, a := range algorithms {
		defs = append(defs, metricDef{string(a) + "_s", "s", "lower", 0.25})
	}
	defs = append(defs,
		metricDef{"cpu_s", "s", "lower", 0.25},
		metricDef{"peak_rss_mb", "MB", "lower", 0.25},
	)
	for _, a := range algorithms {
		defs = append(defs, metricDef{string(a) + "_rounds", "count", "lower", 0.2})
	}
	for _, a := range algorithms {
		defs = append(defs, metricDef{string(a) + "_value", "weight", "higher", 0.05})
	}
	return defs
}

// perLayerDefs are the metrics of single layers, reported by a traced
// run. A layer a workload does not use reads 0 there.
func perLayerDefs() []metricDef {
	d := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	defs := []metricDef{
		d("dataset.generate_s", "s", "lower"),
		d("simjoin.join_s", "s", "lower"),
		d("simjoin.map_s", "s", "lower"),
		d("simjoin.reduce_s", "s", "lower"),
		d("simjoin.postings", "count", "lower"),
		d("simjoin.candidates", "count", "lower"),
		d("simjoin.edges", "count", "higher"),
		d("simjoin.yield", "ratio", "higher"),
		d("simjoin.spilled_records", "count", "lower"),
		d("capacity.assign_s", "s", "lower"),
	}
	for _, a := range algorithms {
		defs = append(defs,
			d("core."+string(a)+".phases", "count", "lower"),
			d("core."+string(a)+".driver_s", "s", "lower"))
	}
	defs = append(defs,
		d("core.stackmr.dual_bound", "weight", "lower"),
		d("core.stackmr.certified_ratio", "ratio", "higher"))
	for _, a := range algorithms {
		p := "mapreduce." + string(a) + "."
		defs = append(defs,
			d(p+"map_s", "s", "lower"),
			d(p+"shuffle_s", "s", "lower"),
			d(p+"reduce_s", "s", "lower"),
			d(p+"shuffle_records", "count", "lower"),
			d(p+"cross_routed", "count", "lower"),
			d(p+"local_routed", "count", "higher"),
			d(p+"pooled_mb", "MB", "higher"),
			d(p+"pool_misses", "count", "lower"),
			d(p+"spilled_records", "count", "lower"),
			d(p+"spill_runs", "count", "lower"))
	}
	for _, a := range algorithms {
		defs = append(defs,
			d("remote."+string(a)+".out_mb", "MB", "lower"),
			d("remote."+string(a)+".in_mb", "MB", "lower"))
	}
	for _, a := range algorithms {
		p := "dist." + string(a) + "."
		defs = append(defs,
			d(p+"worker_wall_s", "s", "lower"),
			d(p+"heartbeat_timeouts", "count", "lower"),
			d(p+"partitions_migrated", "count", "lower"),
			d(p+"speculative_launches", "count", "lower"),
			d(p+"worker_recoveries", "count", "lower"))
	}
	return append(defs,
		d("vm.wall_total_s", "s", "lower"),
		d("vm.stolen_share", "ratio", "lower"),
		d("runtime.alloc_mb", "MB", "lower"),
		d("runtime.gc_cycles", "count", "lower"),
		d("runtime.gc_cpu_s", "s", "lower"),
		d("trace.total_s", "s", "lower"),
		d("trace.untraced_total_s", "s", "lower"),
		d("trace.overhead_s", "s", "lower"),
	)
}

const mb = 1 << 20

// passMetrics are the per-pass readings of one timed pass, keyed by
// metric name; a run reports the median of each over its passes.
func passMetrics(p *pass, cpu float64, rt runtimeSample) map[string]float64 {
	m := map[string]float64{
		"total_s":           p.total.adjusted.Seconds(),
		"cpu_s":             cpu,
		"capacity.assign_s": p.capTime.adjusted.Seconds(),
		"vm.wall_total_s":   p.total.wall.Seconds(),
		"vm.stolen_share":   p.total.stolen,
		"runtime.alloc_mb":  rt.allocBytes / mb,
		"runtime.gc_cycles": rt.gcCycles,
		"runtime.gc_cpu_s":  rt.gcCPU,
	}
	var j mapreduce.Stats // zero when the workload has no join
	var candidates, postings, edges float64
	if p.join != nil {
		j = p.join.Shuffle
		candidates, postings, edges = float64(p.join.Candidates), float64(p.join.PostingEntries), float64(len(p.join.Edges))
	}
	m["simjoin.join_s"] = p.joinTime.adjusted.Seconds()
	m["simjoin.map_s"] = j.MapWall.Seconds()
	m["simjoin.reduce_s"] = j.ReduceWall.Seconds()
	m["simjoin.postings"] = postings
	m["simjoin.candidates"] = candidates
	m["simjoin.edges"] = edges
	m["simjoin.yield"] = 0
	if candidates > 0 {
		m["simjoin.yield"] = edges / candidates
	}
	m["simjoin.spilled_records"] = float64(j.SpilledRecords)

	for _, r := range p.matches {
		if r.err != nil {
			continue
		}
		a := string(r.algo)
		s := r.res.Shuffle
		engine := s.MapWall + s.ShuffleWall + s.ReduceWall
		m[a+"_s"] = r.time.adjusted.Seconds()
		m[a+"_rounds"] = float64(r.res.Rounds)
		m[a+"_value"] = r.res.Matching.Value()
		m["core."+a+".phases"] = float64(r.res.Phases)
		m["core."+a+".driver_s"] = (r.time.wall - engine).Seconds()
		if r.algo == socialmatch.StackMRAlgorithm && r.res.Certificate != nil {
			m["core.stackmr.dual_bound"] = r.res.Certificate.Bound()
			m["core.stackmr.certified_ratio"] = r.res.Certificate.CertifiedRatio(r.res.Matching.Value())
		}
		pre := "mapreduce." + a + "."
		m[pre+"map_s"] = s.MapWall.Seconds()
		m[pre+"shuffle_s"] = s.ShuffleWall.Seconds()
		m[pre+"reduce_s"] = s.ReduceWall.Seconds()
		m[pre+"shuffle_records"] = float64(s.ShuffleRecords)
		m[pre+"cross_routed"] = float64(s.CrossRouted)
		m[pre+"local_routed"] = float64(s.LocalRouted)
		m[pre+"pooled_mb"] = float64(s.PooledBytes) / mb
		m[pre+"pool_misses"] = float64(s.PoolMisses)
		m[pre+"spilled_records"] = float64(s.SpilledRecords)
		m[pre+"spill_runs"] = float64(s.SpillRuns)
		m["remote."+a+".out_mb"] = float64(s.RemoteBytesOut) / mb
		m["remote."+a+".in_mb"] = float64(s.RemoteBytesIn) / mb
		pre = "dist." + a + "."
		m[pre+"worker_wall_s"] = s.WorkerWall.Seconds()
		m[pre+"heartbeat_timeouts"] = float64(s.HeartbeatTimeouts)
		m[pre+"partitions_migrated"] = float64(s.PartitionsMigrated)
		m[pre+"speculative_launches"] = float64(s.SpeculativeLaunches)
		m[pre+"worker_recoveries"] = float64(s.WorkerRecoveries)
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
