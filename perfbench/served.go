package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bcclap/internal/graph"
)

// served_http: open loop at a fixed rate against a bcclap-serve child
// process on loopback, over two keep-alive connections. Tenants are
// registered with PUT /v1/networks/{name} and pre-warmed, so every queried
// pair is a cache hit: HTTP, admission, cache and telemetry do all the
// work and the solver none. The stream mixes single queries and small
// batches with a periodic GET /metrics scrape. Each tenant admits one
// request at a time (max_in_flight 1), so concurrent requests for one
// tenant wait in its admission queue.
const (
	servedN        = 6
	servedTenants  = 2
	servedPairs    = 2 // pre-warmed pairs per tenant
	servedRate     = 1000.0
	servedConns    = 2
	servedBatchPct = 30 // share of flow requests that are batches of 2–3
	servedScrape   = 500 * time.Millisecond
	servedSetups   = 3
	servedGrace    = 5 * time.Second // after the window, for requests still queued
	servedLateMS   = 1.0             // a send later than this after its due time is late
)

type servedTenant struct {
	name  string
	d     *graph.Digraph
	pairs []pairQuery
}

// job is one planned request.
type job struct {
	idx    int
	method string
	path   string
	body   []byte
	want   []pairQuery // nil for a scrape
}

// sample is one request as the client saw it. The window only records
// the response; check parses and verifies it afterwards, so the client
// spends as little CPU as possible beside the daemon.
type sample struct {
	trace           string
	scrape          bool
	due, sent, done time.Time
	unsent          bool
	status          int // 0 when no response arrived
	body            []byte

	// Filled by check.
	ok, wrong  bool
	misses     int // answers not served from the cache
	answerKeys []string
}

// daemon is a running bcclap-serve child.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  string
	logf *os.File
}

func startDaemon(cfg config, idx int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logPath := filepath.Join(cfg.outDir, fmt.Sprintf("serve-%d.log", idx))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	// The daemon logs every request; writing straight to a file keeps
	// logging from ever blocking on the benchmark.
	cmd := exec.Command(cfg.serveBin, "-addr", addr, "-pool", "2", "-drain-timeout", "2s")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the daemon dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", cfg.serveBin, err)
	}
	dm := &daemon{cmd: cmd, base: "http://" + addr, log: logPath, logf: logf}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(dm.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return dm, nil
			}
		}
		if time.Now().After(deadline) {
			dm.stop()
			return nil, errors.New("bcclap-serve not ready after 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the daemon to exit.
func (dm *daemon) stop() {
	if dm.cmd.Process != nil {
		dm.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { dm.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			dm.cmd.Process.Kill()
			<-done
		}
	}
	dm.logf.Close()
}

func doJSON(client *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, raw)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

type flowAnswer struct {
	S        int     `json:"s"`
	T        int     `json:"t"`
	Value    int64   `json:"value"`
	Cost     int64   `json:"cost"`
	CacheHit bool    `json:"cache_hit"`
	Flows    []int64 `json:"flows"`
}

type flowQuery struct {
	S int `json:"s"`
	T int `json:"t"`
}

// servedSetup starts the daemon, registers and pre-warms every tenant.
func servedSetup(cfg config, tenants []servedTenant, idx int) (*daemon, error) {
	dm, err := startDaemon(cfg, idx)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 60 * time.Second}
	var wg sync.WaitGroup
	errs := make([]error, len(tenants))
	for i, t := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = registerAndWarm(client, dm.base, t)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		dm.stop()
		return nil, err
	}
	return dm, nil
}

func registerAndWarm(client *http.Client, base string, t servedTenant) error {
	arcs := make([][4]int64, 0, t.d.M())
	for _, a := range t.d.Arcs() {
		arcs = append(arcs, [4]int64{int64(a.From), int64(a.To), a.Cap, a.Cost})
	}
	spec, err := json.Marshal(map[string]any{
		"n": t.d.N(), "arcs": arcs, "pool": 2, "max_in_flight": 1, "queue_depth": 16,
	})
	if err != nil {
		return err
	}
	if err := doJSON(client, http.MethodPut, base+"/v1/networks/"+t.name, spec, nil); err != nil {
		return err
	}
	qs := make([]flowQuery, len(t.pairs))
	for i, q := range t.pairs {
		qs[i] = flowQuery{q.s, q.t}
	}
	body, err := json.Marshal(map[string]any{"queries": qs})
	if err != nil {
		return err
	}
	var resp struct{ Results []flowAnswer }
	if err := doJSON(client, http.MethodPost, base+"/v1/networks/"+t.name+"/flow/batch", body, &resp); err != nil {
		return fmt.Errorf("pre-warm %s: %w", t.name, err)
	}
	for i, a := range resp.Results {
		if a.Value != t.pairs[i].value || a.Cost != t.pairs[i].cost {
			return fmt.Errorf("pre-warm %s (%d,%d): got %d/%d, baseline %d/%d",
				t.name, a.S, a.T, a.Value, a.Cost, t.pairs[i].value, t.pairs[i].cost)
		}
	}
	return nil
}

// servedPlan builds the request stream: one flow request per tick, plus a
// metrics scrape every servedScrape.
func servedPlan(tenants []servedTenant, rnd *rand.Rand, n int) ([]job, error) {
	jobs := make([]job, 0, n)
	scrapeEvery := int(servedScrape.Seconds() * servedRate)
	for i := 0; i < n; i++ {
		if i%scrapeEvery == scrapeEvery-1 {
			jobs = append(jobs, job{idx: i, method: http.MethodGet, path: "/metrics"})
			continue
		}
		t := tenants[rnd.Intn(len(tenants))]
		k := 1
		if rnd.Intn(100) < servedBatchPct {
			k = 2 + rnd.Intn(2)
		}
		want := make([]pairQuery, k)
		qs := make([]flowQuery, k)
		for j := range want {
			want[j] = t.pairs[rnd.Intn(len(t.pairs))]
			qs[j] = flowQuery{want[j].s, want[j].t}
		}
		var (
			body []byte
			err  error
			path = "/v1/networks/" + t.name + "/flow"
		)
		if k == 1 {
			body, err = json.Marshal(map[string]any{"s": qs[0].S, "t": qs[0].T, "include_flows": true})
		} else {
			path += "/batch"
			body, err = json.Marshal(map[string]any{"queries": qs, "include_flows": true})
		}
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job{idx: i, method: http.MethodPost, path: path, body: body, want: want})
	}
	return jobs, nil
}

func runServed(cfg config) (*outcome, error) {
	// The client runs on one P: its generator and senders then hand
	// requests to each other without waking another thread, and it leaves
	// the second CPU to the daemon, which keeps its default. Alternating
	// runs on a busy 2-vCPU host read p50 0.88–0.97 ms against
	// 0.91–1.02 ms with two.
	runtime.GOMAXPROCS(1)
	out := &outcome{layers: map[string]float64{}}
	rnd := rand.New(rand.NewSource(subSeed(cfg.seed, 3000)))
	tenants := make([]servedTenant, servedTenants)
	for i := range tenants {
		d := graph.RandomFlowNetwork(servedN, freshP, freshCap, freshCost, rnd)
		all, err := answerablePairs(d, rnd)
		if err != nil {
			return nil, err
		}
		if len(all) < servedPairs {
			return nil, fmt.Errorf("tenant %d: only %d answerable pairs", i, len(all))
		}
		tenants[i] = servedTenant{name: fmt.Sprintf("served-%d", i), d: d, pairs: all[:servedPairs]}
	}
	n := int(cfg.seconds * servedRate)
	jobs, err := servedPlan(tenants, rnd, n)
	if err != nil {
		return nil, err
	}

	var dm *daemon
	for i := 0; i < servedSetups; i++ {
		if dm != nil {
			dm.stop()
		}
		start := time.Now()
		if dm, err = servedSetup(cfg, tenants, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			dm.stop()
		}
	}()

	admin := &http.Client{Timeout: 10 * time.Second}
	before, err := scrape(admin, dm.base)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(strconv.Itoa(dm.cmd.Process.Pid))
	samples, lateness := drive(dm.base, jobs, cfg.seed)
	after, err := scrape(admin, dm.base)
	if err != nil {
		return nil, err
	}
	if out.rssMB, out.peakMB, err = rss.finish(); err != nil {
		return nil, err
	}
	dm.stop()
	stopped = true

	begin := samples[0].due
	var last time.Time
	lateSends, misses := 0, 0
	for i := range samples {
		s := &samples[i]
		check(jobs[i], s)
		misses += s.misses
		out.attempted++
		if s.unsent || !s.ok {
			out.failed++
		}
		if s.wrong {
			out.wrong++
		}
		if s.unsent {
			continue
		}
		if s.sent.Sub(s.due).Seconds()*1000 > servedLateMS {
			lateSends++
		}
		if s.done.After(last) {
			last = s.done
		}
		if s.scrape || !s.ok {
			continue
		}
		out.latencies = append(out.latencies, float64(s.done.Sub(s.due).Microseconds())/1000)
		out.answers = append(out.answers, s.answerKeys...)
	}
	out.elapsed = last.Sub(begin).Seconds()
	// The rate is fixed, so the whole stream is one throughput window.
	out.windows = []float64{ratio(float64(len(out.latencies)), out.elapsed)}
	out.checks = map[string]float64{"answers_not_from_cache": float64(misses)}
	out.params = map[string]any{
		"n": servedN, "backend": "auto (dense at n=6)", "tenants": servedTenants, "pairs_per_tenant": servedPairs,
		"rate_per_s": servedRate, "connections": servedConns, "batch_pct": servedBatchPct,
		"scrape_every_ms": servedScrape.Milliseconds(), "daemon_pool": 2, "max_in_flight": 1,
		"setups": servedSetups, "client_gomaxprocs": 1,
	}
	if cfg.trace {
		server, err := parseRequestLog(dm.log)
		if err != nil {
			return nil, err
		}
		var serverMS, gapMS []float64
		for _, s := range samples {
			ms, ok := server[s.trace]
			if !ok || s.scrape || !s.ok {
				continue
			}
			serverMS = append(serverMS, ms)
			gapMS = append(gapMS, float64(s.done.Sub(s.sent).Microseconds())/1000-ms)
		}
		out.layers["serve.latency_ms_p99"] = percentile(out.latencies, 99)
		out.layers["serve.server_ms_p50"] = percentile(serverMS, 50)
		out.layers["serve.server_ms_p99"] = percentile(serverMS, 99)
		out.layers["serve.client_gap_ms_p50"] = median(gapMS)
		out.layers["serve.requests"] = float64(len(serverMS))
		metricLayers(before, after, out.layers)
		out.layers["harness.late_ms_p99"] = percentile(lateness, 99)
		out.layers["harness.late_sends"] = float64(lateSends)
	}
	return out, nil
}

// drive runs the open-loop stream: a generator releases each job at its
// due time, and servedConns workers, each with one keep-alive connection,
// send them. Latency is measured from the due time, so a stall also
// charges the requests queued behind it. It returns one sample per job
// and the generator's own lateness per job in ms.
func drive(base string, jobs []job, seed int64) ([]sample, []float64) {
	samples := make([]sample, len(jobs))
	lateness := make([]float64, len(jobs))
	// Buffered to the whole plan, so the generator never waits for a
	// connection and its lateness is its own.
	ready := make(chan int, len(jobs))
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(time.Duration(float64(len(jobs)) / servedRate * float64(time.Second)))
	for i := range jobs {
		samples[i].due = start.Add(time.Duration(float64(i) / servedRate * float64(time.Second)))
		samples[i].trace = fmt.Sprintf("%08x%08x", uint32(seed), uint32(i))
		samples[i].scrape = jobs[i].want == nil
	}
	var wg sync.WaitGroup
	for c := 0; c < servedConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{
				Timeout:   30 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			}
			defer client.CloseIdleConnections()
			for i := range ready {
				s := &samples[i]
				if time.Now().After(end.Add(servedGrace)) {
					s.unsent = true
					continue
				}
				send(client, base, jobs[i], s)
			}
		}()
	}
	for i := range jobs {
		if d := time.Until(samples[i].due); d > 0 {
			time.Sleep(d)
		}
		lateness[i] = float64(time.Since(samples[i].due).Microseconds()) / 1000
		ready <- i
	}
	close(ready)
	wg.Wait()
	return samples, lateness
}

// send issues one request and records the response.
func send(client *http.Client, base string, j job, s *sample) {
	req, err := http.NewRequest(j.method, base+j.path, bytes.NewReader(j.body))
	if err != nil {
		return
	}
	req.Header.Set("X-Trace-Id", s.trace)
	s.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		s.done = time.Now()
		return
	}
	s.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	if err == nil {
		s.status = resp.StatusCode
	}
}

// check verifies a recorded response: status 200, and every answer equal
// to its baseline in value and cost.
func check(j job, s *sample) {
	if s.unsent || s.status != http.StatusOK {
		return
	}
	if j.want == nil {
		s.ok = true
		return
	}
	var (
		answers []flowAnswer
		err     error
	)
	if len(j.want) == 1 {
		var a flowAnswer
		err = json.Unmarshal(s.body, &a)
		answers = []flowAnswer{a}
	} else {
		var b struct{ Results []flowAnswer }
		err = json.Unmarshal(s.body, &b)
		answers = b.Results
	}
	if err != nil || len(answers) != len(j.want) {
		return
	}
	for i, a := range answers {
		q := j.want[i]
		if a.S != q.s || a.T != q.t || a.Value != q.value || a.Cost != q.cost {
			s.wrong = true
			return
		}
		if !a.CacheHit {
			s.misses++
		}
		s.answerKeys = append(s.answerKeys, flowDigest(fmt.Sprintf("%s#%d:%d-%d", j.path, j.idx, a.S, a.T), a.Value, a.Cost, a.Flows))
	}
	s.ok = true
}

// scrape reads the counters of GET /metrics, summed over label sets.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics sums every sample of the Prometheus text exposition by
// family name (labels dropped).
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			rest = line[strings.LastIndexByte(line, '}')+1:]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// metricLayers turns the /metrics difference across the window into the
// admission, cache and pool layer counts.
func metricLayers(before, after map[string]float64, layers map[string]float64) {
	diff := func(name string) float64 { return after[name] - before[name] }
	layers["admission.admitted"] = diff("bcclap_admission_admitted_total")
	layers["admission.queued"] = diff("bcclap_admission_queued_total")
	layers["admission.rejected"] = diff("bcclap_admission_rejected_total")
	layers["admission.queue_wait_ms_total"] = 1000 * diff("bcclap_admission_queue_wait_seconds_total")
	hits, misses := diff("bcclap_cache_hits_total"), diff("bcclap_cache_misses_total")
	layers["cache.hits"] = hits
	layers["cache.misses"] = misses
	layers["cache.invalidations"] = diff("bcclap_cache_invalidations_total")
	layers["cache.hit_ratio"] = ratio(hits, hits+misses)
	sub, warm := diff("bcclap_pool_submitted_total"), diff("bcclap_pool_warm_started_total")
	layers["pool.submitted"] = sub
	layers["pool.warm_started"] = warm
	layers["pool.warm_ratio"] = ratio(warm, sub)
}

// parseRequestLog maps trace ID → server-side duration_ms from the
// daemon's structured request log.
func parseRequestLog(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		_, js, ok := strings.Cut(sc.Text(), "bcclap-serve: request ")
		if !ok {
			continue
		}
		var rec struct {
			Trace      string  `json:"trace"`
			DurationMS float64 `json:"duration_ms"`
		}
		if err := json.Unmarshal([]byte(js), &rec); err != nil {
			return nil, fmt.Errorf("request log: %w", err)
		}
		out[rec.Trace] = rec.DurationMS
	}
	return out, sc.Err()
}
