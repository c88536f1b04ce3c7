// Command perfbench is the repository benchmark: it runs one workload
// against the unchanged program, checks every answer against the exact
// successive-shortest-paths baseline, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as the last line of
// standard output. Run it through run.sh, which builds it and the daemon:
//
//	bash perfbench/run.sh --workload fresh --seed 1 --seconds 20 --trace 0
//
// Workloads: fresh (in-process certified solves, every query the first for
// its pair), patch_resolve (arc patches on a durable service, then
// re-queries) and served_http (open-loop cache hits against bcclap-serve).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's last output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerSpec lists every per-layer metric. A traced run of any workload
// reports all of them; a layer the workload does not exercise reads 0
// (NOTES.md lists which workload moves which metric).
var layerSpec = []struct{ name, unit string }{
	{"serve.latency_ms_p99", "ms"},
	{"serve.server_ms_p50", "ms"},
	{"serve.server_ms_p99", "ms"},
	{"serve.client_gap_ms_p50", "ms"},
	{"serve.requests", "count"},
	{"admission.admitted", "count"},
	{"admission.queued", "count"},
	{"admission.rejected", "count"},
	{"admission.queue_wait_ms_total", "ms"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.invalidations", "count"},
	{"cache.hit_ratio", "ratio"},
	{"pool.submitted", "count"},
	{"pool.warm_started", "count"},
	{"pool.warm_ratio", "ratio"},
	{"store.appends", "count"},
	{"store.fsyncs", "count"},
	{"store.wal_bytes", "bytes"},
	{"store.patch_ms_p50", "ms"},
	{"flow.attempts_per_solve", "count"},
	{"flow.warm_fallback_share", "ratio"},
	{"flow.formulate_ms_p50", "ms"},
	{"flow.solve_s_p50.n8", "s"},
	{"lp.path_steps_per_solve", "count"},
	{"lp.centerings_per_solve", "count"},
	{"lp.init_weights_s_p50", "s"},
	{"lp.phase1_s_p50", "s"},
	{"lp.phase2_s_p50", "s"},
	{"lp.final_s_p50", "s"},
	{"lp.polish_ms_p50", "ms"},
	{"lp.gram_solves_per_solve", "count"},
	{"lp.leverage_solves_per_solve", "count"},
	{"lp.projection_solves_per_solve", "count"},
	{"lp.leverage_share", "ratio"},
	{"lp.projection_share", "ratio"},
	{"lp.self_share", "ratio"},
	{"linalg.gram_solve_us_mean", "us"},
	{"linalg.cg_iters_per_gram_solve", "count"},
	{"linalg.precond_refreshes_per_solve", "count"},
	{"mem.alloc_mb_per_solve", "MB"},
	{"mem.gc_cycles_per_solve", "count"},
	{"harness.late_ms_p99", "ms"},
	{"harness.late_sends", "count"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	outDir   string
	digest   string // of the Go sources under the working directory
}

// outcome is what a workload measured.
type outcome struct {
	setups    []float64 // seconds per repeated set-up
	latencies []float64 // ms per measured operation
	elapsed   float64   // seconds from the first operation's start to the last one's end
	// windows are the operations per second of consecutive throughput
	// windows (see windowRates); throughput_qps is their median.
	windows   []float64
	attempted int
	failed    int
	wrong     int     // answers that differ from the baseline (also in failed)
	rssMB     float64 // median RSS of the serving process over the window
	peakMB    float64 // its peak RSS (VmHWM) over the whole run
	layers    map[string]float64
	params    map[string]any
	// answers holds one digest line per checked answer, in operation
	// order, for the traced-versus-untraced identity check.
	answers []string
	// checks are workload-specific cross-checks kept in the run record
	// and compared between the untraced and traced run of one seed.
	checks map[string]float64
}

var workloads = map[string]func(config) (*outcome, error){
	"fresh":         runFresh,
	"patch_resolve": runPatch,
	"served_http":   runServed,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fset.String("workload", "", "workload: fresh, patch_resolve or served_http")
	seed := fset.Int64("seed", 1, "input seed")
	seconds := fset.Float64("seconds", 10, "measured window in seconds")
	trace := fset.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	serveBin := fset.String("serve-bin", ".bench_build/bin/bcclap-serve", "bcclap-serve binary (served_http)")
	outDir := fset.String("out", ".bench_out", "directory for spans, answers and run records")
	if err := fset.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		serveBin: *serveBin, outDir: *outDir, digest: sourceDigest("."),
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	out, err := wl(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if len(out.latencies) == 0 {
		return fmt.Errorf("%s: no operation completed", cfg.workload)
	}
	identical, err := checkIdentity(cfg, out.answers)
	if err != nil {
		return err
	}
	sum := summary{
		Correct:   out.wrong == 0 && identical != "mismatch",
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	e2e := endToEnd(out)
	if cfg.trace {
		for _, l := range layerSpec {
			sum.Metrics[l.name] = metric{out.layers[l.name], l.unit}
		}
	} else {
		sum.Metrics = e2e
	}
	rec := record(cfg, out, e2e, identical)
	if err := writeJSON(recordPath(cfg, cfg.trace), rec); err != nil {
		return err
	}
	report(stdout, cfg, out, e2e, identical)
	if cfg.trace {
		compareUntraced(stdout, cfg, rec)
	}
	prov, err := json.Marshal(provenance(cfg, out))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "record %s\n", prov)
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// endToEnd derives the user-visible metrics of a run.
func endToEnd(out *outcome) map[string]metric {
	return map[string]metric{
		"setup_s":        {median(out.setups), "s"},
		"latency_ms_p50": {percentile(out.latencies, 50), "ms"},
		"throughput_qps": {throughput(out), "1/s"},
		"rss_mb_p50":     {out.rssMB, "MB"},
	}
}

// throughput is the median of the run's window rates, or the whole
// window's rate when the run was too short to fill one window.
func throughput(out *outcome) float64 {
	if len(out.windows) == 0 {
		return ratio(float64(len(out.latencies)), out.elapsed)
	}
	return median(out.windows)
}

// report prints the human-readable summary: every end-to-end metric with
// its unit and sample count, failed_share, and the layer metrics of a
// traced run.
func report(w io.Writer, cfg config, out *outcome, e2e map[string]metric, identical string) {
	n := len(out.latencies)
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d operations in %.3f s (%.6f/s overall, %d throughput windows), %d set-ups\n",
		cfg.workload, cfg.seed, cfg.trace, n, out.elapsed, ratio(float64(n), out.elapsed), len(out.windows), len(out.setups))
	for _, name := range sortedKeys(e2e) {
		m := e2e[name]
		fmt.Fprintf(w, "  %-16s %14.6f %s\n", name, m.Value, m.Unit)
	}
	for _, p := range []float64{50, 75, 90, 99} {
		note := ""
		if p > 50 && !tailSupported(n, p) {
			note = ", fewer than 10 samples beyond"
		}
		fmt.Fprintf(w, "  latency p%-7g %14.6f ms (n=%d%s)\n", p, percentile(out.latencies, p), n, note)
	}
	fmt.Fprintf(w, "  %-16s %14.6f ratio (%d failed of %d attempted, %d wrong answers)\n",
		"failed_share", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted, out.wrong)
	fmt.Fprintf(w, "  answers identical to the untraced run: %s\n", identical)
	if cfg.trace {
		for _, l := range layerSpec {
			fmt.Fprintf(w, "  %-36s %14.6f %s\n", l.name, out.layers[l.name], l.unit)
		}
	}
}

// checkIdentity stores this run's answer digests and, on a traced run,
// compares them with the untraced run of the same workload and seed when
// one exists: "yes (k answers)", "mismatch", or "not compared".
func checkIdentity(cfg config, answers []string) (string, error) {
	// Keyed by the source digest too, so answers of another version of
	// the program are never compared.
	path := func(trace int) string {
		return filepath.Join(cfg.outDir, fmt.Sprintf("answers-%s-%d-%s-trace%d.txt", cfg.workload, cfg.seed, cfg.digest, trace))
	}
	mine := path(0)
	if cfg.trace {
		mine = path(1)
	}
	if err := os.WriteFile(mine, []byte(strings.Join(answers, "\n")), 0o644); err != nil {
		return "", err
	}
	if !cfg.trace {
		return "not compared", nil
	}
	raw, err := os.ReadFile(path(0))
	if errors.Is(err, fs.ErrNotExist) {
		return "not compared (no untraced run with this seed)", nil
	}
	if err != nil {
		return "", err
	}
	base := strings.Split(string(raw), "\n")
	k := min(len(base), len(answers))
	for i := 0; i < k; i++ {
		if base[i] != answers[i] {
			return "mismatch", nil
		}
	}
	return fmt.Sprintf("yes (%d answers)", k), nil
}

// provenance identifies a run: seed, host, toolchain, source and
// workload parameters.
func provenance(cfg config, out *outcome) map[string]any {
	commit := os.Getenv("BENCH_GIT_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    commit,
		"source_digest": cfg.digest,
		"params":        out.params,
	}
}

// record is the run record: provenance plus everything measured.
func record(cfg config, out *outcome, e2e map[string]metric, identical string) map[string]any {
	rec := provenance(cfg, out)
	rec["samples"] = len(out.latencies)
	rec["attempted"] = out.attempted
	rec["failed"] = out.failed
	rec["wrong_answers"] = out.wrong
	rec["end_to_end"] = e2e
	rec["layers"] = out.layers
	rec["checks"] = out.checks
	rec["identical"] = identical
	rec["setup_seconds"] = out.setups
	rec["elapsed_window"] = out.elapsed
	rec["throughput_windows"] = out.windows
	rec["peak_rss_mb"] = out.peakMB
	rec["latency_ms_by_percentile"] = percentiles(out.latencies)
	return rec
}

func recordPath(cfg config, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(cfg.outDir, fmt.Sprintf("record-%s-%d-trace%d.json", cfg.workload, cfg.seed, t))
}

// compareUntraced prints the tracing overhead and the cross-checks
// against the untraced run of the same seed and source, when one exists.
func compareUntraced(w io.Writer, cfg config, traced map[string]any) {
	var base struct {
		Digest string             `json:"source_digest"`
		E2E    map[string]metric  `json:"end_to_end"`
		Checks map[string]float64 `json:"checks"`
	}
	raw, err := os.ReadFile(recordPath(cfg, false))
	haveBase := err == nil && json.Unmarshal(raw, &base) == nil && base.Digest == cfg.digest
	if haveBase {
		e2e := traced["end_to_end"].(map[string]metric)
		for _, name := range []string{"latency_ms_p50", "throughput_qps"} {
			fmt.Fprintf(w, "  tracing overhead %-16s %+.2f%% (untraced %.6f, traced %.6f)\n", name,
				100*(ratio(e2e[name].Value, base.E2E[name].Value)-1), base.E2E[name].Value, e2e[name].Value)
		}
	} else {
		fmt.Fprintln(w, "  tracing overhead: no untraced run of this seed and source to compare with")
	}
	checks, _ := traced["checks"].(map[string]float64)
	for _, k := range sortedKeys(checks) {
		b, ok := base.Checks[k]
		verdict := "equal to the untraced run"
		switch {
		case !haveBase || !ok:
			verdict = "traced run"
		case b != checks[k]:
			verdict = fmt.Sprintf("DIFFERS from the untraced run's %v", b)
		}
		fmt.Fprintf(w, "  check %s = %v: %s\n", k, checks[k], verdict)
	}
}

// percentiles tabulates the latency distribution for the run record.
func percentiles(samples []float64) map[string]float64 {
	out := map[string]float64{}
	for _, p := range []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99, 100} {
		out[fmt.Sprintf("p%g", p)] = percentile(samples, p)
	}
	return out
}

// sourceDigest hashes the Go sources and module files under root, so a
// record identifies the program even where no git metadata exists.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// statusMB reads a kB field (VmRSS, VmHWM) of /proc/<pid>/status in MB.
func statusMB(pid, field string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// rssSampler samples a process's resident set size every 100 ms over the
// measured window. A single peak reading swings with garbage-collector
// timing; the median of the samples is what the process holds while
// serving.
type rssSampler struct {
	pid     string
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := statusMB(s.pid, "VmRSS"); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the median RSS and the peak (VmHWM),
// both in MB. The process must still be running.
func (s *rssSampler) finish() (medianMB, peakMB float64, err error) {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		return 0, 0, fmt.Errorf("no RSS sample of process %s", s.pid)
	}
	peak, err := statusMB(s.pid, "VmHWM")
	return median(s.samples), peak, err
}

// subSeed derives an independent stream seed (splitmix64 of seed and i).
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// flowDigest is the identity of one answer: value, cost and a hash of the
// flow vector.
func flowDigest(key string, value, cost int64, flows []int64) string {
	h := sha256.New()
	for _, f := range flows {
		fmt.Fprintf(h, "%d,", f)
	}
	return fmt.Sprintf("%s %d %d %s", key, value, cost, hex.EncodeToString(h.Sum(nil))[:16])
}
