// Command perfbench is the repository benchmark: it runs one named
// workload of the fdp simulator for a fixed time, checks every simulated
// result, and prints each metric by name, unit and domain, ending with
// one JSON line.
//
// Host-time metrics (the simulator's own speed) and simulated statistics
// (what the modelled machine did) are kept apart: every printed metric
// names its domain. With --trace 0 the run reports the end-to-end
// metrics, measured with every observability feature off; with --trace 1
// a separate traced run reports the per-layer metrics. See README.md.
//
//	bash perfbench/run.sh --workload campaign --seed 0 --seconds 50 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"fdp/internal/benchkit"
)

// procStart approximates process start: the first set-up is timed from
// here, so runtime and package initialization count toward setup_s.
var procStart = time.Now()

// DefaultSeed is the workload seed used when none is given: offset 0
// reproduces the repository's standard workloads exactly.
const DefaultSeed = 0

// HeldOutSeed is reserved for validating performance claims: never tune a
// change on it, then confirm the claim holds with --seed 7919.
const HeldOutSeed = 7919

// setupReps is how many times a run repeats set-up on its own, beside
// the set-up of every measured iteration, so setup_s is a median.
const setupReps = 5

// nproc is the runner parallelism of every workload: one worker
// per CPU the process may use.
var nproc = runtime.GOMAXPROCS(0)

// metric is one reported number. Domain is "host" for time and memory of
// the simulator process, "sim" for deterministic simulated statistics.
type metric struct {
	Name, Unit, Domain string
	Value              float64
	// Base, when non-empty, says what the value was computed over: the
	// denominator of a ratio, or the samples behind a median.
	Base string
	// Missing marks a profile share whose stage or package never appeared
	// in the profile; it is printed as missing and its value is 0.
	Missing bool
}

// report collects metrics in print order.
type report struct{ ms []metric }

func (r *report) add(name, unit, domain string, v float64) *metric {
	r.ms = append(r.ms, metric{Name: name, Unit: unit, Domain: domain, Value: v})
	return &r.ms[len(r.ms)-1]
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: campaign or ffwd_sweep")
		seed    = flag.Uint64("seed", DefaultSeed, fmt.Sprintf("workload seed (held-out validation seed: %d)", HeldOutSeed))
		seconds = flag.Int("seconds", 50, "how long to measure, in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fatalf("unknown --workload %q (want campaign or ffwd_sweep)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err := run(w, *seed, *seconds, *trace == 1); err != nil {
		fatalf("%s: %v", w.name, err)
	}
}

// run executes one benchmark run in a temporary directory under
// .bench_build, removed on return, and prints the metrics and the final
// JSON line.
func run(w *workload, seed uint64, seconds int, traced bool) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var (
		rep report
		res result
	)
	if traced {
		res, err = runTraced(w, seed, tmp, &rep)
	} else {
		res, err = runEndToEnd(w, seed, time.Duration(seconds)*time.Second, tmp, &rep)
	}
	if err != nil {
		return err
	}
	res.Metrics = make(map[string]jsonMetric, len(rep.ms))
	for _, m := range rep.ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		val := fmt.Sprintf("%.6g", m.Value)
		if m.Missing {
			val = "missing"
		}
		line := fmt.Sprintf("%-34s %14s %-10s [%s]", m.Name, val, m.Unit, m.Domain)
		if m.Base != "" {
			line += " base " + m.Base
		}
		fmt.Println(line)
		res.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runEndToEnd sets up and executes the workload's batch repeatedly until
// the time budget is spent (at least one iteration, and no iteration
// started that is projected to end past the budget), and reports the
// median of each end-to-end metric over the iterations.
func runEndToEnd(w *workload, seed uint64, budget time.Duration, tmp string, rep *report) (result, error) {
	// Set-up is timed in process CPU seconds, as cpu_s is, and in wall
	// seconds for reading. The first set-up counts from process start.
	var setups, setupWalls []float64
	setup := func(start time.Time, cpu0 float64) (*batch, error) {
		b, err := w.setup(seed, tmp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpuSeconds()-cpu0)
		setupWalls = append(setupWalls, time.Since(start).Seconds())
		return b, nil
	}
	for i := 0; i < setupReps; i++ {
		start, cpu0 := procStart, 0.0
		if i > 0 {
			runtime.GC()
			start, cpu0 = time.Now(), cpuSeconds()
		}
		b, err := setup(start, cpu0)
		if err != nil {
			return result{}, err
		}
		b.close()
	}

	var (
		walls, cpus, ips, refs []float64
		insts                  uint64
		res                    = result{Correct: true}
		digest                 string
		measureStart           = time.Now()
	)
	for {
		// Collect the previous iteration's garbage outside the timed
		// intervals, so every iteration starts from the same heap.
		runtime.GC()
		// Time the host reference (hostref.go) next to every iteration,
		// then collect its garbage too.
		refs = append(refs, hostRef(nproc))
		runtime.GC()
		iterStart := time.Now()
		b, err := setup(iterStart, cpuSeconds())
		if err != nil {
			return result{}, err
		}
		out, err := execute(b, nil)
		b.close()
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "iteration %d: setup cpu %.3f s, wall %.3f s, cpu %.3f s\n",
			len(walls)+1, setups[len(setups)-1], out.wall, out.cpu)
		walls = append(walls, out.wall)
		cpus = append(cpus, out.cpu)
		insts = uint64(out.attempted) * b.budget
		ips = append(ips, float64(insts)/out.wall)
		res.Attempted += out.attempted
		res.Failed += out.failed
		if digest == "" {
			digest = out.digest
		} else if out.digest != digest {
			fmt.Fprintf(os.Stderr, "perfbench: %s: digest changed between iterations: %s then %s\n", w.name, digest, out.digest)
			res.Correct = false
		}
		elapsed := time.Since(measureStart)
		if elapsed+time.Since(iterStart) > budget {
			break
		}
	}
	refs = append(refs, hostRef(nproc))
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Printf("workload %s seed %d: %d iterations, %d jobs each, parallel %d\n",
		w.name, seed, len(walls), res.Attempted/len(walls), nproc)
	fmt.Printf("digest %s\n", digest)
	fmt.Printf("fail_frac %.6g [host] base %d attempted jobs\n", float64(res.Failed)/float64(res.Attempted), res.Attempted)

	// Wall time also counts the time the hypervisor hands this machine's
	// CPUs to other guests (steal), which on a shared host comes in
	// phases that stretch a run by up to a third; CPU time excludes
	// steal, but still moves with the load other guests put on the caches
	// and cores. So the JSON metrics are CPU times scaled to reference
	// speed (hostref.go), and the raw times are printed for reading.
	ref := median(refs)
	scale := refNominal / ref
	raw := func(name string, v float64, unit, base string) {
		fmt.Printf("%-34s %14.6g %-10s [host] base %s; raw, not a JSON metric\n", name, v, unit, base)
	}
	raw("ref_cpu_s", ref, "s", fmt.Sprintf("median of %d reference runs on %d goroutines, per goroutine", len(refs), nproc))
	raw("setup_cpu_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	raw("setup_wall_s", median(setupWalls), "s", fmt.Sprintf("median of %d set-ups", len(setupWalls)))
	raw("cpu_s", median(cpus), "s", fmt.Sprintf("median of %d iterations", len(cpus)))
	raw("wall_s", median(walls), "s", fmt.Sprintf("median of %d iterations", len(walls)))
	raw("inst_per_s", median(ips), "1/s", fmt.Sprintf("%d instructions per wall_s", insts))

	refBase := fmt.Sprintf("at reference speed, x%.4g", scale)
	rep.add("setup_s", "s", "host", median(setups)*scale).Base = refBase + fmt.Sprintf(", process CPU, median of %d set-ups", len(setups))
	rep.add("cpu_ref_s", "s", "host", median(cpus)*scale).Base = refBase + fmt.Sprintf(", median of %d iterations", len(cpus))
	rep.add("inst_per_cpu_ref_s", "1/s", "host", float64(insts)/(median(cpus)*scale)).Base = refBase + fmt.Sprintf(", %d instructions per iteration", insts)
	rep.add("peak_rss_mb", "MB", "host", peakRSSMB())
	return res, nil
}

// median is the benchkit median of xs.
func median(xs []float64) float64 { return benchkit.Summarize(xs).Median }

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, KiB on
// Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// executeCtx is the context every batch runs under; the benchmark has no
// cancellation source of its own.
var executeCtx = context.Background()

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
