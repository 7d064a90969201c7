package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"fdp/internal/obs"
	"fdp/internal/stats"
)

// outcome is one executed and checked batch.
type outcome struct {
	// wall and cpu cover the interval from the first job submitted to the
	// last result, in host seconds.
	wall, cpu         float64
	attempted, failed int
	digest            string
	// byKey holds the distinct results that passed every check, by spec
	// key.
	byKey map[string]*stats.Run
}

// execute runs the batch once, timing the jobs, then collects and checks
// the results outside the timed interval.
func execute(b *batch, spans *obs.SpanLog) (outcome, error) {
	cpu0, t0 := cpuSeconds(), time.Now()
	collect, err := b.run(spans)
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	if err != nil {
		return outcome{}, err
	}
	js, err := collect()
	if err != nil {
		return outcome{}, err
	}
	out := checkJobs(js)
	out.wall, out.cpu = wall, cpu
	return out, nil
}

// checkJobs counts failures and digests the results. A job fails if it
// ended without a result, or if its result breaks any of the checks in
// checkRun. A cached result stands for every job it served, so it is
// checked once.
func checkJobs(js jobs) outcome {
	out := outcome{attempted: js.attempted, failed: js.lost, byKey: make(map[string]*stats.Run)}
	h := sha256.New()
	for _, r := range js.results {
		if err := checkRun(r.run, r.measure); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %s: %v\n", r.key, err)
			out.failed++
			continue
		}
		b, err := json.Marshal(r.run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %s: result does not encode: %v\n", r.key, err)
			out.failed++
			continue
		}
		fmt.Fprintf(h, "%s %s\n", r.key, b)
		out.byKey[r.key] = r.run
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// checkRun reports why a result cannot be right: cycle accounting that
// does not conserve cycles, fewer instructions retired than the measured
// budget, or an IPC that is not a finite positive number.
func checkRun(r *stats.Run, measure uint64) error {
	if r == nil {
		return fmt.Errorf("no result")
	}
	if got := r.AcctTotal(); got != r.Cycles {
		return fmt.Errorf("cycle accounting sums to %d, want %d cycles", got, r.Cycles)
	}
	if r.Instructions < measure {
		return fmt.Errorf("retired %d instructions, budget %d", r.Instructions, measure)
	}
	if ipc := r.IPC(); !(ipc > 0) || math.IsInf(ipc, 0) {
		return fmt.Errorf("IPC %v is not finite and positive", ipc)
	}
	return nil
}
