// Package monitor serves live telemetry for long sweep and experiment
// runs over HTTP: Prometheus-style text metrics (/metrics), JSON job
// progress (/progress), the live interval time-series of every run
// (/intervals as chunked JSONL with a follow mode, indexed by /runs),
// the runner's lifecycle span timeline (/timeline) and the standard
// pprof profiling endpoints (/debug/pprof/). The sources are chosen for
// safe concurrent reads under simulation: runner.Status is plain
// atomics, and obs.ManifestLog / obs.SpanLog / obs.IntervalStore are
// mutex-guarded collectors updated only at coarse boundaries, so
// scraping never contends with the cycle loops.
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"fdp/internal/obs"
	"fdp/internal/runner"
)

// Source is what the monitor exposes: live scheduler progress, the
// manifests of completed runs, the live interval store and the span
// timeline. Every field may be nil — the corresponding endpoints serve
// empty (but well-formed) output.
type Source struct {
	Status    *runner.Status
	Manifests *obs.ManifestLog
	// Intervals is the live per-run interval store (wire the same store
	// into runner.Options.Intervals); it feeds /runs and /intervals.
	Intervals *obs.IntervalStore
	// Spans is the campaign span log (wire into runner.Options.Spans); it
	// feeds /timeline.
	Spans *obs.SpanLog
}

// Handler builds the monitor's HTTP mux.
func Handler(src Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, src)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(src.Status.Snapshot())
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		runs := src.Intervals.Runs()
		if runs == nil {
			runs = []obs.IntervalRunMeta{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(runs)
	})
	mux.HandleFunc("/intervals", func(w http.ResponseWriter, r *http.Request) {
		serveIntervals(w, r, src.Intervals)
	})
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		serveTimeline(w, r, src.Spans)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveIntervals streams interval records as JSONL in the same
// header+records framing the -intervals-out file sink uses, so the same
// parsers read both. Without parameters it dumps every run's buffered
// records; run=Q (a spec key, unique key prefix, or config/workload
// label) selects one run; follow=1 with run= keeps the response open,
// flushing new records as the simulation takes them, until the run
// finishes or the client disconnects.
func serveIntervals(w http.ResponseWriter, r *http.Request, store *obs.IntervalStore) {
	q := r.URL.Query()
	follow := q.Get("follow") != "" && q.Get("follow") != "0"
	runQ := q.Get("run")
	if runQ == "" {
		if follow {
			http.Error(w, "follow=1 requires run=", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, meta := range store.Runs() {
			recs, _, _, _ := store.Read(meta.ID, 0)
			obs.WriteRunIntervals(w, meta.Run, meta.Every, recs)
		}
		return
	}
	id, ok := store.Resolve(runQ)
	if !ok {
		http.Error(w, "unknown or ambiguous run "+runQ, http.StatusNotFound)
		return
	}
	meta, _ := store.Run(id)
	w.Header().Set("Content-Type", "application/x-ndjson")
	if !follow {
		recs, _, _, _ := store.Read(id, 0)
		obs.WriteRunIntervals(w, meta.Run, meta.Every, recs)
		return
	}
	// Follow mode: header first, then an incremental read/flush loop.
	// Watch is grabbed *before* each read so a record landing between the
	// read and the wait still wakes us.
	flusher, _ := w.(http.Flusher)
	obs.WriteRunIntervals(w, meta.Run, meta.Every, nil)
	if flusher != nil {
		flusher.Flush()
	}
	ctx := r.Context()
	var (
		cursor uint64
		line   []byte
	)
	for {
		ch := store.Watch()
		recs, next, done, ok := store.Read(id, cursor)
		if !ok {
			return
		}
		cursor = next
		if len(recs) > 0 {
			for _, rec := range recs {
				line = obs.AppendIntervalJSONL(line[:0], rec)
				line = append(line, '\n')
				if _, err := w.Write(line); err != nil {
					return
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if done {
			return
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return
		}
	}
}

// timelineSpan is the JSON shape of one span on /timeline.
type timelineSpan struct {
	Run     string `json:"run"`
	Job     int    `json:"job"`
	Attempt int    `json:"attempt"`
	Kind    string `json:"kind"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Detail  string `json:"detail,omitempty"`
	Err     string `json:"err,omitempty"`
}

// serveTimeline renders the campaign's span timeline as one JSON
// document (epoch + spans sorted by start). run= filters to one job
// label.
func serveTimeline(w http.ResponseWriter, r *http.Request, log *obs.SpanLog) {
	runQ := r.URL.Query().Get("run")
	doc := struct {
		Epoch string         `json:"epoch,omitempty"`
		Spans []timelineSpan `json:"spans"`
	}{Spans: []timelineSpan{}}
	if epoch := log.Epoch(); !epoch.IsZero() {
		doc.Epoch = epoch.Format(time.RFC3339Nano)
	}
	for _, sp := range log.All() {
		if runQ != "" && sp.Run != runQ {
			continue
		}
		doc.Spans = append(doc.Spans, timelineSpan{
			Run: sp.Run, Job: sp.Job, Attempt: sp.Attempt,
			Kind: sp.Kind.String(), StartUS: sp.Start, DurUS: sp.Dur,
			Detail: sp.Detail, Err: sp.Err,
		})
	}
	sort.SliceStable(doc.Spans, func(i, j int) bool { return doc.Spans[i].StartUS < doc.Spans[j].StartUS })
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// writeMetrics renders the Prometheus text exposition: the runner_*
// family from the live Status, then per-run families from every
// completed run's manifest.
func writeMetrics(w io.Writer, src Source) {
	s := src.Status.Snapshot()
	writeFamily(w, "runner_jobs", "counter", "Jobs the scheduler started executing (cache hits included).")
	fmt.Fprintf(w, "runner_jobs %d\n", s.Started)
	writeFamily(w, "runner_cache_hits", "counter", "Jobs satisfied from the result cache.")
	fmt.Fprintf(w, "runner_cache_hits %d\n", s.CacheHits)
	writeFamily(w, "runner_cache_misses", "counter", "Jobs that had to simulate.")
	fmt.Fprintf(w, "runner_cache_misses %d\n", s.CacheMisses)
	writeFamily(w, "runner_jobs_canceled", "counter", "Jobs abandoned by cancellation.")
	fmt.Fprintf(w, "runner_jobs_canceled %d\n", s.Canceled)
	writeFamily(w, "runner_job_panics", "counter", "Jobs that panicked.")
	fmt.Fprintf(w, "runner_job_panics %d\n", s.Panics)
	writeFamily(w, "runner_jobs_running", "gauge", "In-flight jobs right now.")
	fmt.Fprintf(w, "runner_jobs_running %d\n", s.Running)
	writeFamily(w, "runner_jobs_queued", "gauge", "Jobs not yet started.")
	fmt.Fprintf(w, "runner_jobs_queued %d\n", s.Queued)
	writeFamily(w, "runner_jobs_done", "gauge", "Jobs finished (successfully or not).")
	fmt.Fprintf(w, "runner_jobs_done %d\n", s.Done)
	writeFamily(w, "runner_retries", "counter", "Transient-failure re-attempts after backoff.")
	fmt.Fprintf(w, "runner_retries %d\n", s.Retries)
	writeFamily(w, "runner_watchdog_fired", "counter", "Hung jobs canceled by the watchdog.")
	fmt.Fprintf(w, "runner_watchdog_fired %d\n", s.Watchdog)
	writeFamily(w, "runner_jobs_quarantined", "counter", "Terminal job failures contained under keep-going.")
	fmt.Fprintf(w, "runner_jobs_quarantined %d\n", s.Quarantined)
	writeFamily(w, "runner_cache_quarantined", "counter", "Corrupt disk cache entries set aside as *.corrupt.")
	fmt.Fprintf(w, "runner_cache_quarantined %d\n", s.CacheQuarantined)
	// The backlog histogram is rendered as a Prometheus summary: the
	// quantiles come from Status's concurrent-read-safe mirror (power-of-
	// two buckets, so they are factor-of-two estimates).
	qd := src.Status.QueueDepthSnapshot()
	writeFamily(w, "runner_queue_depth", "summary", "Backlog size sampled at every job start.")
	for _, q := range []float64{0.5, 0.9, 0.99} {
		fmt.Fprintf(w, "runner_queue_depth{quantile=\"%g\"} %g\n", q, qd.Quantile(q))
	}
	fmt.Fprintf(w, "runner_queue_depth_sum %d\n", qd.Sum)
	fmt.Fprintf(w, "runner_queue_depth_count %d\n", qd.Count)
	writeFamily(w, "runner_job_heartbeat_age_ms", "gauge", "Per in-flight job: age of its newest heartbeat.")
	for _, j := range s.Jobs {
		if j.LastBeatMS >= 0 {
			fmt.Fprintf(w, "runner_job_heartbeat_age_ms{job=%q,attempt=\"%d\"} %d\n", j.Job, j.Attempt, j.LastBeatMS)
		}
	}

	ms := src.Manifests.All()
	if len(ms) == 0 {
		return
	}
	writeFamily(w, "fdp_run_counter", "gauge", "End-of-run counter value of one completed run.")
	forEachRun(ms, func(labels string, m *obs.Manifest) {
		for _, name := range sortedKeys(m.Counters) {
			fmt.Fprintf(w, "fdp_run_counter{%s,name=%q} %d\n", labels, name, m.Counters[name])
		}
	})
	writeFamily(w, "fdp_run_derived", "gauge", "Derived rate of one completed run.")
	forEachRun(ms, func(labels string, m *obs.Manifest) {
		for _, name := range sortedKeys(m.Derived) {
			fmt.Fprintf(w, "fdp_run_derived{%s,name=%q} %g\n", labels, name, m.Derived[name])
		}
	})
	writeFamily(w, "fdp_run_histogram_sum", "gauge", "Histogram sample sum of one completed run.")
	forEachRun(ms, func(labels string, m *obs.Manifest) {
		for _, name := range sortedKeys(m.Histograms) {
			fmt.Fprintf(w, "fdp_run_histogram_sum{%s,name=%q} %d\n", labels, name, m.Histograms[name].Sum)
		}
	})
	writeFamily(w, "fdp_run_histogram_count", "gauge", "Histogram sample count of one completed run.")
	forEachRun(ms, func(labels string, m *obs.Manifest) {
		for _, name := range sortedKeys(m.Histograms) {
			fmt.Fprintf(w, "fdp_run_histogram_count{%s,name=%q} %d\n", labels, name, m.Histograms[name].Count)
		}
	})
}

func writeFamily(w io.Writer, name, kind, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// forEachRun visits the manifests in a stable (config, workload) order
// with their rendered label pair.
func forEachRun(ms []*obs.Manifest, f func(labels string, m *obs.Manifest)) {
	sorted := append([]*obs.Manifest(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool {
		ci, cj := ConfigName(sorted[i].Config), ConfigName(sorted[j].Config)
		if ci != cj {
			return ci < cj
		}
		return sorted[i].Workload < sorted[j].Workload
	})
	for _, m := range sorted {
		// %q escapes backslash, quote and newline — exactly the Prometheus
		// label-value escape set.
		labels := fmt.Sprintf("config=%q,workload=%q", ConfigName(m.Config), m.Workload)
		f(labels, m)
	}
}

// ConfigName extracts the configuration name from a manifest's Config
// field, which may be a live core.Config or (after a JSONL round trip) a
// map. A marshal/unmarshal round trip handles both without this package
// importing core.
func ConfigName(cfg any) string {
	if cfg == nil {
		return ""
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	var v struct {
		Name string `json:"Name"`
	}
	if json.Unmarshal(b, &v) != nil {
		return ""
	}
	return v.Name
}

// Server is a running monitor.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (e.g. "localhost:8080" or ":0") and serves the
// monitor in a background goroutine.
func Start(addr string, src Source) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(src)}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
