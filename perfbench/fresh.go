package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"bcclap"
	"bcclap/internal/flow"
	"bcclap/internal/graph"
)

// fresh: closed loop, one client, in-process Service. Every query is the
// first for its (tenant, pair), so it misses the cache and pays the LP
// formulation plus the whole interior-point method — the fresh certified
// solve. Half the tenants use the auto-selected backend (dense at this
// size), half are pinned to csr-pcg; queries alternate between them.
const (
	freshN       = 8
	freshP       = 0.1
	freshCap     = 3
	freshCost    = 3
	freshTenants = 24
	// freshSetups is high because one set-up takes about 5 ms, which a
	// single preemption can double; the median of many stays put.
	freshSetups = 15
	// freshArcs conditions every network on the generator's mean arc
	// count (7 path arcs plus 49·0.1 random ones). Solve time grows with
	// the arc count (1.9 s at 9 arcs, 3.6 s at 14 on a 2-vCPU host), so
	// unconditioned draws made each run's median track the arc counts it
	// happened to draw.
	freshArcs = 12
	// freshWindow is the throughput window: two consecutive queries, one
	// on an auto-selected tenant and one on a csr-pcg tenant.
	freshWindow = 2
)

// pairQuery is one planned query with its baseline answer.
type pairQuery struct {
	s, t        int
	value, cost int64
}

// answerablePairs lists every (s, t) with a positive maximum flow, with
// its successive-shortest-paths baseline, shuffled by rnd.
func answerablePairs(d *graph.Digraph, rnd *rand.Rand) ([]pairQuery, error) {
	var out []pairQuery
	for s := 0; s < d.N(); s++ {
		for t := 0; t < d.N(); t++ {
			if s == t {
				continue
			}
			v, c, _, err := flow.MinCostMaxFlowSSP(d, s, t)
			if err != nil {
				return nil, fmt.Errorf("baseline (%d,%d): %w", s, t, err)
			}
			if v > 0 {
				out = append(out, pairQuery{s, t, v, c})
			}
		}
	}
	rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

type freshTenant struct {
	h     *bcclap.NetworkHandle
	pairs []pairQuery
}

func freshSetup(cfg config, tr *tracer) (*bcclap.Service, []freshTenant, error) {
	svc := bcclap.NewService()
	tenants := make([]freshTenant, freshTenants)
	for i := range tenants {
		d, pairs, err := freshNetwork(cfg.seed, i)
		if err != nil {
			svc.Close()
			return nil, nil, err
		}
		backend := "" // auto-selected
		if i%2 == 1 {
			backend = "csr-pcg"
		}
		opts := []bcclap.Option{bcclap.WithBackend(backend)}
		if tr != nil {
			if backend == "" {
				backend = flow.DefaultBackendFor(d)
			}
			opts = []bcclap.Option{bcclap.WithBackend(tracePrefix + backend), bcclap.WithProgress(tr.progress)}
		}
		h, err := svc.Register(fmt.Sprintf("fresh-%02d", i), d, opts...)
		if err != nil {
			svc.Close()
			return nil, nil, err
		}
		tenants[i] = freshTenant{h: h, pairs: pairs}
	}
	return svc, tenants, nil
}

// freshNetwork draws the i-th tenant's network and its answerable pairs.
func freshNetwork(seed int64, i int) (*graph.Digraph, []pairQuery, error) {
	rnd := rand.New(rand.NewSource(subSeed(seed, i)))
	d := graph.RandomFlowNetwork(freshN, freshP, freshCap, freshCost, rnd)
	for d.M() != freshArcs {
		d = graph.RandomFlowNetwork(freshN, freshP, freshCap, freshCost, rnd)
	}
	pairs, err := answerablePairs(d, rnd)
	return d, pairs, err
}

// freshWarmup registers one more tenant, untraced and outside the
// measured tenants, and answers its first pair.
func freshWarmup(ctx context.Context, svc *bcclap.Service, cfg config) error {
	d, pairs, err := freshNetwork(cfg.seed, freshTenants)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	h, err := svc.Register("fresh-warmup", d)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	q := pairs[0]
	res, err := h.Solve(ctx, q.s, q.t)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if res.Value != q.value || res.Cost != q.cost {
		return fmt.Errorf("warm-up (%d,%d): got %d/%d, baseline %d/%d", q.s, q.t, res.Value, res.Cost, q.value, q.cost)
	}
	return nil
}

func runFresh(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		tr.registerBackends("dense", "csr-pcg")
	}
	out := &outcome{layers: map[string]float64{}}
	var (
		svc     *bcclap.Service
		tenants []freshTenant
	)
	for i := 0; i < freshSetups; i++ {
		if svc != nil {
			svc.Close()
		}
		start := time.Now()
		var err error
		svc, tenants, err = freshSetup(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
	}
	defer svc.Close()
	handles := make([]*bcclap.NetworkHandle, len(tenants))
	for i, t := range tenants {
		handles[i] = t.h
	}
	before := stats(handles)
	// Return set-up garbage to the OS so the window's RSS is the
	// program's own working set.
	debug.FreeOSMemory()
	rss := sampleRSS("self")
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	ctx := context.Background()
	// One untimed solve on a tenant of its own first, so the window does
	// not start with a heap just returned to the OS.
	if err := freshWarmup(ctx, svc, cfg); err != nil {
		return nil, err
	}
	var ops []op
	begin := time.Now()
	deadline := begin.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var last time.Time
	for i := 0; time.Now().Before(deadline); i++ {
		ten := tenants[i%len(tenants)]
		k := i / len(tenants)
		if k >= len(ten.pairs) {
			break // every planned pair answered
		}
		q := ten.pairs[k]
		var req *request
		if tr != nil {
			req = tr.begin()
		}
		t0 := time.Now()
		res, err := ten.h.Solve(ctx, q.s, q.t)
		last = time.Now()
		if tr != nil {
			tr.end(req, res)
		}
		out.attempted++
		ok := err == nil && res.Value == q.value && res.Cost == q.cost
		ops = append(ops, op{t0, last, ok})
		if err != nil {
			out.failed++
			fmt.Printf("query %d (%s %d→%d): %v\n", i, ten.h.Name(), q.s, q.t, err)
			continue
		}
		if !ok {
			out.failed++
			out.wrong++
			continue
		}
		out.latencies = append(out.latencies, float64(last.Sub(t0).Microseconds())/1000)
		// Stats.PrecondRefreshes is cumulative per pair session; it equals
		// this query's refreshes only because every fresh query is the
		// first for its pair. Traced tenants run the timing wrapper, whose
		// per-request count must then agree with it, so it joins the
		// answer compared between the two runs.
		refreshes := res.Stats.PrecondRefreshes
		if tr != nil {
			refreshes = req.Refreshes
		}
		out.answers = append(out.answers, fmt.Sprintf("%s refreshes=%d",
			flowDigest(fmt.Sprintf("%s:%d-%d", ten.h.Name(), q.s, q.t), res.Value, res.Cost, res.Flows), refreshes))
	}
	out.elapsed = last.Sub(begin).Seconds()
	out.windows = windowRates(ops, freshWindow)
	out.checks = map[string]float64{}
	runtime.ReadMemStats(&msAfter)
	var err error
	if out.rssMB, out.peakMB, err = rss.finish(); err != nil {
		return nil, err
	}
	out.params = map[string]any{
		"n": freshN, "m": freshArcs, "p": freshP, "max_cap": freshCap, "max_cost": freshCost,
		"tenants": freshTenants, "backends": []string{"auto (dense at n=8)", "csr-pcg"},
		"pool_size": 1, "clients": 1, "setups": freshSetups, "warmup_solves": 1,
		"throughput_window_queries": freshWindow,
	}
	if tr != nil {
		checked, err := solverLayers(tr.done, out.layers)
		if err != nil {
			return nil, err
		}
		out.checks["classifier_checked_requests"] = float64(checked)
		serviceLayers(before, stats(handles), out.layers)
		memLayers(&msBefore, &msAfter, out.attempted, out.layers)
		if err := tr.writeSpans(filepath.Join(cfg.outDir, "spans-fresh.jsonl.gz")); err != nil {
			return nil, err
		}
	}
	return out, nil
}
