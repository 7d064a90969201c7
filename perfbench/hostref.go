package main

import (
	"math/rand"
	"sort"
	"sync"
)

// The host reference is a fixed piece of CPU work owned by the benchmark,
// timed beside the workload in every end-to-end run. On a shared virtual
// machine the CPU time of the same simulation moves by a quarter or more
// within minutes, as other guests load the caches and cores under it;
// the reference slows down with it. Scaling a run's CPU times by
// refNominal / (the reference's CPU time per goroutine in that run)
// reports them at a fixed reference speed, which roughly halves their
// run-to-run spread. The reference does not call the simulator, so a
// change to the program moves the scaled times as much as the raw ones.

// refNominal is the reference's CPU seconds per goroutine at reference
// speed: about what it took on the 2-vCPU Intel Xeon virtual machine the
// benchmark was written on. It fixes the scale of the scaled metrics
// only; changing it would make them incomparable with earlier runs.
const refNominal = 0.7

// The reference mixes the memory behaviour of the simulator's structures:
// random read-modify-write over a 4 MiB table, about the size of a
// shared last-level cache slice, and a 32 MiB one that spills to memory,
// plus map inserts, lookups and a sort.
const (
	refSmallWords = 1 << 19 // 4 MiB
	refSmallIters = 45_000_000
	refLargeWords = 1 << 22 // 32 MiB
	refLargeIters = 14_000_000
	refMapKeys    = 300_000
)

// refSink keeps the reference's results live.
var refSink uint64

// hostRef runs the reference once on each of n goroutines, the
// parallelism of the workload it calibrates, and returns the process CPU
// seconds it took per goroutine.
func hostRef(n int) float64 {
	cpu0 := cpuSeconds()
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			v := refTable(refSmallWords, refSmallIters, seed) +
				refTable(refLargeWords, refLargeIters, seed) +
				refMapSort(seed) + refMapSort(seed+7)
			mu.Lock()
			refSink += v
			mu.Unlock()
		}(uint64(g + 1))
	}
	wg.Wait()
	return (cpuSeconds() - cpu0) / float64(n)
}

// refTable does iters data-dependent read-modify-writes at xorshift
// positions of a table of words 64-bit words (a power of two).
func refTable(words, iters int, seed uint64) uint64 {
	t := make([]uint64, words)
	x, acc, mask := seed, uint64(0), uint64(words-1)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := t[x&mask]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= x
		}
		t[x&mask] = v + uint64(i)
	}
	return acc
}

// refMapSort fills a map with refMapKeys random keys, looks every key up
// three times, and sorts the keys.
func refMapSort(seed uint64) uint64 {
	r := rand.New(rand.NewSource(int64(seed)))
	m := make(map[uint64]uint64) // grown as it fills, rehashing on the way
	keys := make([]uint64, refMapKeys)
	for i := range keys {
		keys[i] = r.Uint64()
		m[keys[i]] = uint64(i)
	}
	var acc uint64
	for i := uint64(0); i < 3; i++ {
		for _, k := range keys {
			acc += m[k^(i&1)]
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return acc + keys[0]
}
