package main

import (
	"fmt"
	"runtime"

	"bcclap"
)

// solverLayers derives the flow, lp and linalg metrics from the traced
// requests that reached the solver (cache hits excluded), and fails if the
// gram-solve classifier does not reconcile with the solver's own counts.
// It returns how many requests the classifier check covered.
func solverLayers(reqs []*request, layers map[string]float64) (checked int, err error) {
	var (
		solves, attempts, steps, centerings, refresh float64
		wall, busy, iters, calls                     float64
		formulate, cold, polish                      []float64
	)
	busyBy, callsBy := map[string]float64{}, map[string]float64{}
	phases := map[string][]float64{}
	for _, r := range reqs {
		if r.Hit {
			continue
		}
		ok, err := checkClassifier(r)
		if err != nil {
			return 0, fmt.Errorf("gram-solve classifier: %w", err)
		}
		if ok {
			checked++
		}
		solves++
		attempts += float64(r.Attempts)
		steps += float64(r.PathSteps)
		centerings += float64(r.Centerings)
		refresh += float64(r.Refreshes)
		wall += r.End - r.Start
		for _, g := range r.Grams {
			busy += g.Busy
			iters += float64(g.Iters)
			calls += float64(g.Solves)
			busyBy[g.class()] += g.Busy
			callsBy[g.class()] += float64(g.Solves)
		}
		pt := phaseTimes(r.Start, r.End, r.Events)
		if len(r.Events) > 0 && r.Events[0].Stage == "attempt" {
			formulate = append(formulate, 1000*pt["formulate"])
		}
		if pt["polish"] > 0 {
			polish = append(polish, 1000*pt["polish"])
		}
		if r.Attempts > 0 {
			cold = append(cold, r.End-r.Start)
			for _, ph := range []string{"init_weights", "phase1", "phase2", "final"} {
				phases[ph] = append(phases[ph], pt[ph])
			}
		}
	}
	layers["flow.attempts_per_solve"] = ratio(attempts, solves)
	layers["flow.formulate_ms_p50"] = median(formulate)
	layers["flow.solve_s_p50.n8"] = median(cold) // both solver workloads run n=8
	layers["lp.path_steps_per_solve"] = ratio(steps, solves)
	layers["lp.centerings_per_solve"] = ratio(centerings, solves)
	layers["lp.init_weights_s_p50"] = median(phases["init_weights"])
	layers["lp.phase1_s_p50"] = median(phases["phase1"])
	layers["lp.phase2_s_p50"] = median(phases["phase2"])
	layers["lp.final_s_p50"] = median(phases["final"])
	layers["lp.polish_ms_p50"] = median(polish)
	layers["lp.gram_solves_per_solve"] = ratio(calls, solves)
	layers["lp.leverage_solves_per_solve"] = ratio(callsBy["leverage"], solves)
	layers["lp.projection_solves_per_solve"] = ratio(callsBy["projection"]+callsBy["repair"], solves)
	layers["lp.leverage_share"] = ratio(busyBy["leverage"], wall)
	layers["lp.projection_share"] = ratio(busyBy["projection"]+busyBy["repair"], wall)
	layers["lp.self_share"] = ratio(wall-busy, wall)
	layers["linalg.gram_solve_us_mean"] = 1e6 * ratio(busy, calls)
	layers["linalg.cg_iters_per_gram_solve"] = ratio(iters, calls)
	layers["linalg.precond_refreshes_per_solve"] = ratio(refresh, solves)
	return checked, nil
}

// serviceLayers reads the admission, cache and pool counters of the given
// handles, as differences from the snapshot taken before the window.
func serviceLayers(before, after []bcclap.NetworkStats, layers map[string]float64) {
	var admitted, queued, rejected, waitMS, hits, misses, inval, submitted, warm float64
	for i := range after {
		a, b := after[i], before[i]
		admitted += float64(a.Admission.Admitted - b.Admission.Admitted)
		queued += float64(a.Admission.Queued - b.Admission.Queued)
		rejected += float64(a.Admission.RejectedQueueFull + a.Admission.RejectedDeadline -
			b.Admission.RejectedQueueFull - b.Admission.RejectedDeadline)
		waitMS += float64((a.Admission.QueueWait - b.Admission.QueueWait).Microseconds()) / 1000
		hits += float64(a.Cache.Hits - b.Cache.Hits)
		misses += float64(a.Cache.Misses - b.Cache.Misses)
		inval += float64(a.Cache.Invalidations - b.Cache.Invalidations)
		submitted += float64(a.Pool.Submitted - b.Pool.Submitted)
		warm += float64(a.Pool.WarmStarted - b.Pool.WarmStarted)
	}
	layers["admission.admitted"] = admitted
	layers["admission.queued"] = queued
	layers["admission.rejected"] = rejected
	layers["admission.queue_wait_ms_total"] = waitMS
	layers["cache.hits"] = hits
	layers["cache.misses"] = misses
	layers["cache.invalidations"] = inval
	layers["cache.hit_ratio"] = ratio(hits, hits+misses)
	layers["pool.submitted"] = submitted
	layers["pool.warm_started"] = warm
	layers["pool.warm_ratio"] = ratio(warm, submitted)
}

// memLayers reports allocation and GC work per solver-touching request
// over the measured window.
func memLayers(before, after *runtime.MemStats, solves int, layers map[string]float64) {
	layers["mem.alloc_mb_per_solve"] = ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), float64(solves))
	layers["mem.gc_cycles_per_solve"] = ratio(float64(after.NumGC-before.NumGC), float64(solves))
}

func stats(hs []*bcclap.NetworkHandle) []bcclap.NetworkStats {
	out := make([]bcclap.NetworkStats, len(hs))
	for i, h := range hs {
		out[i] = h.Stats()
	}
	return out
}
