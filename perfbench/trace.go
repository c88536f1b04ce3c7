package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"bcclap"
	"bcclap/internal/linalg"
	"bcclap/internal/lp"
)

// The traced run measures the solver's layers from outside, through hooks
// the program already exposes: WithProgress events (flow attempts and lp
// path steps) and a timing wrapper registered as an lp backend, which
// delegates every AᵀDA solve to the real backend. Queries are issued one
// at a time, so every hook call belongs to the request in flight.

// tracePrefix names the wrapper backends: "trace-dense" times "dense".
const tracePrefix = "trace-"

// event is one WithProgress notification.
type event struct {
	At    float64 // seconds since the tracer started
	Stage string  // "attempt" or "path-step"
	Phase int     // path-step phase: 1, 2, or 3 (warm-start polish)
}

// gramRun is a maximal run of consecutive AᵀDA solves on one bitwise
// identical diagonal. A leverage-score evaluation issues m (or k sketch)
// solves on one diagonal; a Newton projection or Polish's feasibility
// repair issues a single one.
type gramRun struct {
	Start, End float64 // first call's start, last call's end
	Busy       float64 // summed call durations (excludes the work between calls)
	Solves     int
	Iters      int
	// Repair marks a run that began on the all-ones diagonal, which only
	// Polish's least-squares feasibility repair uses.
	Repair bool
}

// class is the gram-solve classifier: runs of two or more solves are
// leverage work, singletons are repairs or projections.
func (g gramRun) class() string {
	switch {
	case g.Solves > 1:
		return "leverage"
	case g.Repair:
		return "repair"
	default:
		return "projection"
	}
}

// request is one traced query and everything the hooks saw during it.
type request struct {
	ID         int
	Start, End float64
	Events     []event
	Grams      []gramRun
	Refreshes  int // preconditioner refactorizations inside this request
	lastD      []float64

	// Filled from the returned result.
	Hit, Warm                       bool
	Attempts, PathSteps, Centerings int
}

// gram records one AᵀDA solve, extending the open run when the diagonal is
// unchanged.
func (r *request) gram(d []float64, start, end float64, iters int) {
	if n := len(r.Grams); n > 0 && sameFloats(r.lastD, d) {
		g := &r.Grams[n-1]
		g.End = end
		g.Busy += end - start
		g.Solves++
		g.Iters += iters
		return
	}
	r.Grams = append(r.Grams, gramRun{Start: start, End: end, Busy: end - start, Solves: 1, Iters: iters, Repair: allOnes(d)})
	r.lastD = append(r.lastD[:0], d...)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allOnes(d []float64) bool {
	for _, v := range d {
		if v != 1 {
			return false
		}
	}
	return len(d) > 0
}

// tracer owns the traced requests of one run.
type tracer struct {
	t0   time.Time
	cur  atomic.Pointer[request]
	done []*request
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() float64 { return time.Since(tr.t0).Seconds() }

// registerBackends makes "trace-<name>" available for every backend the
// workloads select.
func (tr *tracer) registerBackends(inner ...string) {
	for _, name := range inner {
		lp.RegisterBackend(tracePrefix+name, tr.wrap(name))
	}
}

// wrap builds the timing wrapper over the inner backend. It instantiates
// the real backend through NewBackendSolverStats so csr-pcg keeps its
// preconditioner counters, and outside a request (set-up) it only
// delegates.
func (tr *tracer) wrap(inner string) lp.BackendFactory {
	return func(a *linalg.CSR) (lp.ATDASolve, error) {
		solve, pstats, err := lp.NewBackendSolverStats(inner, a)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, d, y []float64) ([]float64, int, error) {
			req := tr.cur.Load()
			if req == nil {
				return solve(ctx, d, y)
			}
			before := refreshesOf(pstats)
			start := tr.now()
			x, iters, err := solve(ctx, d, y)
			req.gram(d, start, tr.now(), iters)
			req.Refreshes += refreshesOf(pstats) - before
			return x, iters, err
		}, nil
	}
}

func refreshesOf(p *lp.PrecondStats) int {
	if p == nil {
		return 0
	}
	return p.Refreshes
}

// progress is the WithProgress hook of traced tenants.
func (tr *tracer) progress(ev bcclap.Event) {
	if req := tr.cur.Load(); req != nil {
		req.Events = append(req.Events, event{At: tr.now(), Stage: ev.Stage, Phase: ev.Phase})
	}
}

// begin opens a request; the caller issues exactly one query before end.
func (tr *tracer) begin() *request {
	req := &request{ID: len(tr.done) + 1, Start: tr.now()}
	tr.cur.Store(req)
	return req
}

// end closes the request with the query's result (nil on error).
func (tr *tracer) end(req *request, res *bcclap.FlowResult) {
	req.End = tr.now()
	tr.cur.Store(nil)
	req.lastD = nil
	if res != nil {
		req.Hit = res.Stats.CacheHit
		req.Warm = res.Stats.WarmStarted
		req.Attempts = res.Stats.Attempts
		req.PathSteps = res.Stats.PathSteps
		req.Centerings = res.Stats.Centerings
	}
	tr.done = append(tr.done, req)
}

// checkClassifier verifies the gram-solve classifier on one request: the
// singleton projection solves must equal the centerings the result reports
// (plus those of a Polish that was rejected before a cold fallback), and
// a warm-started answer must show exactly one feasibility repair. Requests
// that needed several cold attempts report only the last attempt's
// centerings, so they are counted but not checked.
func checkClassifier(r *request) (checked bool, err error) {
	if r.Hit || r.Attempts > 1 {
		return false, nil
	}
	proj, repairs := 0, 0
	for _, g := range r.Grams {
		switch g.class() {
		case "projection":
			proj++
		case "repair":
			repairs++
		}
	}
	want := r.Centerings
	if !r.Warm && repairs > 0 {
		for _, ev := range r.Events {
			if ev.Stage == "path-step" && ev.Phase == 3 {
				want++
			}
		}
	}
	switch {
	case proj != want:
		return true, fmt.Errorf("request %d: %d singleton projection solves, want %d (centerings %d)", r.ID, proj, want, r.Centerings)
	case repairs > 1 || (r.Warm && repairs != 1):
		return true, fmt.Errorf("request %d: %d feasibility repairs (warm=%v)", r.ID, repairs, r.Warm)
	}
	return true, nil
}

// phaseLabel names the interval that ends at events[i]: Progress events
// are emitted after the work they report, so each interval goes to the
// later event's phase.
func phaseLabel(events []event, i int) string {
	ev := events[i]
	if ev.Stage == "attempt" {
		if i == 0 {
			return "formulate"
		}
		return "retry"
	}
	switch ev.Phase {
	case 3:
		return "polish"
	case 1, 2:
		if i > 0 && events[i-1].Stage == "attempt" {
			return "init_weights"
		}
		return fmt.Sprintf("phase%d", ev.Phase)
	}
	return "other"
}

// phaseTimes attributes a request's wall time to phases: the interval
// from the previous event (or the request start) to each event goes to
// phaseLabel, and the tail after the last event (final centerings,
// rounding, certificate, cache insert) to "final".
func phaseTimes(start, end float64, events []event) map[string]float64 {
	out := map[string]float64{}
	prev := start
	for i, ev := range events {
		out[phaseLabel(events, i)] += ev.At - prev
		prev = ev.At
	}
	out["final"] += end - prev
	return out
}

// span is one traced interval; spans of one request share Req, and Parent
// is the ID of the enclosing span (0 for a request span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
	// Gram runs only: the solves in the run, their CG iterations, and the
	// summed duration of the solve calls themselves (the rest of the run
	// is the caller's work between solves).
	Solves int     `json:"solves,omitempty"`
	Iters  int     `json:"iters,omitempty"`
	Busy   float64 `json:"busy_s,omitempty"`
}

// spans builds the span tree of one request: request → flow section
// (formulate/polish before the first attempt, then one per attempt) → lp
// phase → gram run. Each span's self time is its duration minus the union
// of its children.
func (r *request) spans(nextID *int) []span {
	newSpan := func(parent int, name string, start, end float64) span {
		*nextID++
		return span{ID: *nextID, Parent: parent, Req: r.ID, Name: name, Start: start, End: end}
	}
	root := newSpan(0, "request", r.Start, r.End)
	var flows, phases []span
	openFlow := func(name string, start float64) {
		if n := len(flows); n > 0 {
			flows[n-1].End = start
		}
		flows = append(flows, newSpan(root.ID, name, start, r.End))
	}
	first := "flow.formulate"
	for _, ev := range r.Events {
		if ev.Stage == "path-step" && ev.Phase == 3 {
			first = "flow.polish"
			break
		}
		if ev.Stage == "attempt" {
			break
		}
	}
	if len(r.Events) > 0 || len(r.Grams) > 0 {
		openFlow(first, r.Start)
	}
	// An attempt event closes the section before it (formulation, or a
	// rejected polish or attempt) and opens the next; every other event
	// closes an lp phase interval inside the current section.
	prev := r.Start
	for i, ev := range r.Events {
		if ev.Stage == "attempt" {
			openFlow("flow.attempt", ev.At)
			prev = ev.At
			continue
		}
		label := "lp." + phaseLabel(r.Events, i)
		parent := flows[len(flows)-1].ID
		if n := len(phases); n > 0 && phases[n-1].Name == label && phases[n-1].Parent == parent {
			phases[n-1].End = ev.At
		} else {
			phases = append(phases, newSpan(parent, label, prev, ev.At))
		}
		prev = ev.At
	}
	if len(flows) > 0 {
		phases = append(phases, newSpan(flows[len(flows)-1].ID, "lp.final", prev, r.End))
	}
	grams := make([]span, 0, len(r.Grams))
	for _, g := range r.Grams {
		parent := root.ID
		for _, p := range phases {
			if g.Start >= p.Start && g.Start < p.End {
				parent = p.ID
				break
			}
		}
		s := newSpan(parent, "gram."+g.class(), g.Start, g.End)
		s.Solves, s.Iters, s.Busy = g.Solves, g.Iters, g.Busy
		grams = append(grams, s)
	}
	all := append(append(append([]span{root}, flows...), phases...), grams...)
	children := map[int][]interval{}
	for _, s := range all[1:] {
		children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
	}
	for i := range all {
		all[i].Self = selfTime(interval{all[i].Start, all[i].End}, children[all[i].ID])
	}
	return all
}

// writeSpans writes every request's spans as gzipped JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	id := 0
	for _, r := range tr.done {
		for _, s := range r.spans(&id) {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
