package mapreduce

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkWordCount measures raw engine throughput on the canonical
// workload: 10k lines fanned out to term counts.
func BenchmarkWordCount(b *testing.B) {
	input := make([]Pair[int, string], 10000)
	for i := range input {
		input[i] = P(i, fmt.Sprintf("w%d w%d w%d w%d", i%100, i%37, i%11, i%3))
	}
	mapFn := func(_ int, line string, out Emitter[string, int]) error {
		start := 0
		for j := 0; j <= len(line); j++ {
			if j == len(line) || line[j] == ' ' {
				if j > start {
					out.Emit(line[start:j], 1)
				}
				start = j + 1
			}
		}
		return nil
	}
	redFn := func(w string, vs []int, out Emitter[string, int]) error {
		out.Emit(w, len(vs))
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(context.Background(), Config{Mappers: 4, Reducers: 4},
			input, mapFn, redFn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShuffleHeavy measures a job dominated by the shuffle: every
// record fans out to 16 keys (the communication pattern of the matching
// algorithms, where every edge sends to both endpoints).
func BenchmarkShuffleHeavy(b *testing.B) {
	input := make([]Pair[int32, int32], 20000)
	for i := range input {
		input[i] = P(int32(i), int32(i))
	}
	mapFn := func(k, v int32, out Emitter[int32, int32]) error {
		for f := int32(0); f < 16; f++ {
			out.Emit((k*31+f)%4096, v)
		}
		return nil
	}
	redFn := func(k int32, vs []int32, out Emitter[int32, int]) error {
		out.Emit(k, len(vs))
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(context.Background(), Config{Mappers: 4, Reducers: 4},
			input, mapFn, redFn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionIndex(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink += partitionIndex(int32(i), 16)
	}
	_ = sink
}

// BenchmarkPartitionIndexNamed is BenchmarkPartitionIndex for a named
// int32 key type — the shape of graph.NodeID.
func BenchmarkPartitionIndexNamed(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink += partitionIndex(nodeKey(i), 16)
	}
	_ = sink
}
