package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"bcclap"
	"bcclap/internal/flow"
	"bcclap/internal/graph"
)

// patch_resolve: closed loop, one client, in-process durable Service
// (write-ahead log with the default fsync-always policy) holding one n=8
// tenant on a pool of two workers. One operation is a round: PatchArcs a
// ±1 capacity or cost delta on one arc, then re-query every planned pair
// until each has a certified answer on the new version. Rounds alternate
// +1 and −1 on the same arc, so the network returns to its base after
// every second round and stays bounded.
const (
	patchN      = 8
	patchPairs  = 4
	patchPool   = 2
	patchSetups = 3
	// patchNetworkSeed fixes the network and its queried pairs for every
	// run. How often a warm re-solve is rejected and falls back to a cold
	// solve is a property of the network, and a cold fallback costs
	// hundreds of warm rounds, so a per-seed network would make every
	// end-to-end metric of this workload track the network instead of the
	// program. The run's seed orders the patch stream.
	patchNetworkSeed = 1
)

// patchDelta is one planned arc change: arc index and which field moves.
type patchDelta struct {
	arc  int
	cost bool // cost delta; otherwise capacity
}

func (p patchDelta) delta(sign int64) graph.ArcDelta {
	if p.cost {
		return graph.ArcDelta{Arc: p.arc, CostDelta: sign}
	}
	return graph.ArcDelta{Arc: p.arc, CapDelta: sign}
}

type patchState struct {
	svc *bcclap.Service
	h   *bcclap.NetworkHandle
	dir string
	// pairs holds the baseline answers on the unpatched network, plus[δ]
	// those with δ applied at +1 — the only two kinds of network state a
	// round can leave behind.
	pairs []pairQuery
	plus  map[patchDelta][]pairQuery
	d     *graph.Digraph
	// arcs are the patched arcs: those carrying flow in exactly one
	// queried pair's baseline answer, so a round mostly re-solves one
	// pair. A patch on an unused arc mostly leaves every cached answer
	// certified (a sub-millisecond all-hit round), and one on a shared arc
	// re-solves several; mixing such rounds put the median on the edge
	// between two modes of the round-latency distribution.
	arcs []int
}

func (st *patchState) close() {
	st.svc.Close()
	os.RemoveAll(st.dir)
}

func patchSetup(cfg config, tr *tracer, idx int) (*patchState, error) {
	rnd := rand.New(rand.NewSource(patchNetworkSeed))
	d := graph.RandomFlowNetwork(patchN, freshP, freshCap, freshCost, rnd)
	all, err := answerablePairs(d, rnd)
	if err != nil {
		return nil, err
	}
	if len(all) < patchPairs {
		return nil, fmt.Errorf("only %d answerable pairs", len(all))
	}
	st := &patchState{d: d, pairs: all[:patchPairs], plus: map[patchDelta][]pairQuery{}}
	users := make([]int, d.M())
	for _, q := range st.pairs {
		_, _, flows, err := flow.MinCostMaxFlowSSP(d, q.s, q.t)
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		for a, f := range flows {
			if f != 0 {
				users[a]++
			}
		}
	}
	for a, u := range users {
		if u == 1 {
			st.arcs = append(st.arcs, a)
		}
	}
	if len(st.arcs) == 0 {
		return nil, errors.New("no arc carries flow for exactly one queried pair")
	}
	for _, a := range st.arcs {
		for _, cost := range []bool{false, true} {
			pd := patchDelta{a, cost}
			dd := d.Clone()
			if err := dd.ApplyDeltas([]graph.ArcDelta{pd.delta(1)}); err != nil {
				return nil, err
			}
			qs := make([]pairQuery, len(st.pairs))
			for i, q := range st.pairs {
				v, c, _, err := flow.MinCostMaxFlowSSP(dd, q.s, q.t)
				if err != nil {
					return nil, fmt.Errorf("baseline: %w", err)
				}
				qs[i] = pairQuery{q.s, q.t, v, c}
			}
			st.plus[pd] = qs
		}
	}
	st.dir, err = os.MkdirTemp(cfg.outDir, fmt.Sprintf("store-%d-", idx))
	if err != nil {
		return nil, err
	}
	st.svc, err = bcclap.OpenService(bcclap.WithStore(st.dir))
	if err != nil {
		os.RemoveAll(st.dir)
		return nil, err
	}
	opts := []bcclap.Option{bcclap.WithPoolSize(patchPool)}
	if tr != nil {
		opts = append(opts, bcclap.WithBackend(tracePrefix+flow.DefaultBackendFor(d)), bcclap.WithProgress(tr.progress))
	}
	if st.h, err = st.svc.Register("patch", d, opts...); err != nil {
		st.close()
		return nil, err
	}
	queries := make([]bcclap.FlowQuery, len(st.pairs))
	for i, q := range st.pairs {
		queries[i] = bcclap.FlowQuery{S: q.s, T: q.t}
	}
	res, err := st.h.SolveBatch(context.Background(), queries)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("pre-solve: %w", err)
	}
	for i, r := range res {
		if r.Value != st.pairs[i].value || r.Cost != st.pairs[i].cost {
			st.close()
			return nil, fmt.Errorf("pre-solve (%d,%d): got %d/%d, baseline %d/%d",
				st.pairs[i].s, st.pairs[i].t, r.Value, r.Cost, st.pairs[i].value, st.pairs[i].cost)
		}
	}
	return st, nil
}

func runPatch(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		tr.registerBackends("dense")
	}
	out := &outcome{layers: map[string]float64{}}
	var st *patchState
	for i := 0; i < patchSetups; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		var err error
		if st, err = patchSetup(cfg, tr, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
	}
	defer st.close()

	handles := []*bcclap.NetworkHandle{st.h}
	before := stats(handles)
	storeBefore := *st.svc.ServiceStats().Store
	// Return set-up garbage to the OS so the window's RSS is the
	// program's own working set.
	debug.FreeOSMemory()
	rss := sampleRSS("self")
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	rnd := rand.New(rand.NewSource(cfg.seed))
	var (
		patchMS             []float64
		ops                 []op
		resolves, fallbacks int
		last                time.Time
	)
	ctx := context.Background()
	round := func(pd patchDelta, sign int64) error {
		want := st.pairs
		if sign == 1 {
			want = st.plus[pd]
		}
		out.attempted++
		t0 := time.Now()
		err := st.h.PatchArcs([]bcclap.ArcDelta{pd.delta(sign)})
		patchMS = append(patchMS, float64(time.Since(t0).Microseconds())/1000)
		if err != nil {
			return fmt.Errorf("round %d: patch: %w", out.attempted, err)
		}
		ok := true
		for _, q := range want {
			var req *request
			if tr != nil {
				req = tr.begin()
			}
			res, err := st.h.Solve(ctx, q.s, q.t)
			if tr != nil {
				tr.end(req, res)
			}
			switch {
			case err != nil:
				fmt.Printf("round %d (%d→%d): %v\n", out.attempted, q.s, q.t, err)
				ok = false
				continue
			case res.Value != q.value || res.Cost != q.cost:
				out.wrong++
				ok = false
				continue
			}
			if !res.Stats.CacheHit {
				resolves++
				if !res.Stats.WarmStarted {
					fallbacks++
				}
			}
			out.answers = append(out.answers, flowDigest(fmt.Sprintf("r%d:%d-%d", out.attempted, q.s, q.t), res.Value, res.Cost, res.Flows))
		}
		last = time.Now()
		ops = append(ops, op{t0, last, ok})
		if !ok {
			out.failed++
			return nil
		}
		out.latencies = append(out.latencies, float64(last.Sub(t0).Microseconds())/1000)
		return nil
	}
	// The stream is whole cycles: each visits every (arc, field) of the
	// patched arcs once in a seeded order, +1 then −1, so every run sees
	// each delta equally often and only the order depends on the seed.
	var deltas []patchDelta
	for _, a := range st.arcs {
		deltas = append(deltas, patchDelta{a, false}, patchDelta{a, true})
	}
	begin := time.Now()
	deadline := begin.Add(time.Duration(cfg.seconds * float64(time.Second)))
	cycles := 0
	for ; cycles == 0 || time.Now().Before(deadline); cycles++ {
		rnd.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })
		for _, pd := range deltas {
			for _, sign := range []int64{1, -1} {
				if err := round(pd, sign); err != nil {
					return nil, err
				}
			}
		}
	}
	out.elapsed = last.Sub(begin).Seconds()
	// A throughput window is one cycle: it holds every delta once, so
	// every window carries the same cold fallbacks.
	out.windows = windowRates(ops, 2*len(deltas))
	out.checks = map[string]float64{}
	runtime.ReadMemStats(&msAfter)
	var err error
	if out.rssMB, out.peakMB, err = rss.finish(); err != nil {
		return nil, err
	}
	out.params = map[string]any{
		"n": patchN, "m": st.d.M(), "pairs": patchPairs, "pool_size": patchPool,
		"backend": flow.DefaultBackendFor(st.d), "fsync": "always", "clients": 1, "setups": patchSetups,
		"network_seed": patchNetworkSeed, "cycles": cycles, "patched_arcs": st.arcs,
		"throughput_window_rounds": 2 * len(deltas),
	}
	if tr != nil {
		checked, err := solverLayers(tr.done, out.layers)
		if err != nil {
			return nil, err
		}
		out.checks["classifier_checked_requests"] = float64(checked)
		serviceLayers(before, stats(handles), out.layers)
		memLayers(&msBefore, &msAfter, resolves, out.layers)
		storeAfter := st.svc.ServiceStats().Store
		out.layers["store.appends"] = float64(storeAfter.Appends - storeBefore.Appends)
		out.layers["store.fsyncs"] = float64(storeAfter.Fsyncs - storeBefore.Fsyncs)
		out.layers["store.wal_bytes"] = float64(storeAfter.WALBytes - storeBefore.WALBytes)
		out.layers["store.patch_ms_p50"] = median(patchMS)
		out.layers["flow.warm_fallback_share"] = ratio(float64(fallbacks), float64(resolves))
		if err := tr.writeSpans(filepath.Join(cfg.outDir, "spans-patch_resolve.jsonl.gz")); err != nil {
			return nil, err
		}
	}
	return out, nil
}
