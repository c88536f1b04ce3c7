package flow

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/lp"
)

// Every registered AᵀDA backend must produce the identical certified
// (value, cost) on random digraphs — the certificate is combinatorial and
// exact, so agreement means each backend solved the LP to rounding
// precision.
func TestBackendsProduceIdenticalCertifiedFlows(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	backends := lp.Backends()
	if len(backends) < 3 {
		t.Fatalf("expected at least 3 registered backends, have %v", backends)
	}
	for trial := 0; trial < 2; trial++ {
		d := graph.RandomFlowNetwork(6+trial, 0.3, 3, 3, rnd)
		wantV, wantC, _, err := MinCostMaxFlowSSP(d, 0, d.N()-1)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range backends {
			res, err := MinCostMaxFlow(d, 0, d.N()-1, Options{
				Backend: backend,
				Rand:    rand.New(rand.NewSource(int64(100*trial + 7))),
			})
			if err != nil {
				t.Fatalf("trial %d backend %s: %v", trial, backend, err)
			}
			if res.Value != wantV || res.Cost != wantC {
				t.Fatalf("trial %d backend %s: (value, cost) = (%d, %d), SSP baseline (%d, %d)",
					trial, backend, res.Value, res.Cost, wantV, wantC)
			}
			if err := CertifyOptimal(d, 0, d.N()-1, res.Flows); err != nil {
				t.Fatalf("trial %d backend %s: certificate: %v", trial, backend, err)
			}
		}
	}
}

func TestSolverModeBackendNames(t *testing.T) {
	cases := map[SolverMode]string{
		SolverDense:   "dense",
		SolverGremban: "gremban",
		SolverCSRCG:   "csr-cg",
		SolverMode(0): "dense",
	}
	for mode, want := range cases {
		if got := mode.BackendName(); got != want {
			t.Fatalf("mode %d: backend %q, want %q", mode, got, want)
		}
	}
}

// pathDigraph is an s→t chain; gridDigraph a rows×cols mesh with rightward
// and downward arcs — the structured families the csr-pcg preconditioner
// extracts its forest from.
func pathDigraph(n int, rnd *rand.Rand) *graph.Digraph {
	d := graph.NewDigraph(n)
	for v := 0; v+1 < n; v++ {
		if _, err := d.AddArc(v, v+1, 1+rnd.Int63n(3), rnd.Int63n(4)); err != nil {
			panic(err)
		}
	}
	return d
}

func gridDigraph(rows, cols int, rnd *rand.Rand) *graph.Digraph {
	d := graph.NewDigraph(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	add := func(u, v int) {
		if _, err := d.AddArc(u, v, 1+rnd.Int63n(3), rnd.Int63n(4)); err != nil {
			panic(err)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				add(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				add(id(r, c), id(r+1, c))
			}
		}
	}
	return d
}

// csr-pcg must produce the same certified flows as the dense reference on
// the path, grid and random families, and its session must build the
// combinatorial preconditioner exactly once while refreshing it across
// every IPM step and query (the cross-step, cross-query reuse the backend
// exists for).
func TestCSRPCGCertifiedFlowsAndReuse(t *testing.T) {
	rnd := rand.New(rand.NewSource(43))
	cases := map[string]*graph.Digraph{
		"path":   pathDigraph(7, rnd),
		"grid":   gridDigraph(2, 3, rnd),
		"random": graph.RandomFlowNetwork(6, 0.3, 3, 3, rnd),
	}
	for name, d := range cases {
		s, tt := 0, d.N()-1
		wantV, wantC, _, err := MinCostMaxFlowSSP(d, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := NewSolver(d, Options{Backend: "csr-pcg"})
		if err != nil {
			t.Fatal(err)
		}
		var prevRefreshes int
		for q := 0; q < 2; q++ {
			res, err := fs.Solve(t.Context(), s, tt)
			if err != nil {
				t.Fatalf("%s query %d: %v", name, q, err)
			}
			if res.Value != wantV || res.Cost != wantC {
				t.Fatalf("%s query %d: (%d, %d) vs baseline (%d, %d)", name, q, res.Value, res.Cost, wantV, wantC)
			}
			if res.LPStats.PrecondBuilds != 1 {
				t.Fatalf("%s query %d: PrecondBuilds = %d, want 1 (symbolic structure reused across queries)",
					name, q, res.LPStats.PrecondBuilds)
			}
			if res.LPStats.PrecondRefreshes <= prevRefreshes {
				t.Fatalf("%s query %d: PrecondRefreshes = %d did not advance past %d",
					name, q, res.LPStats.PrecondRefreshes, prevRefreshes)
			}
			prevRefreshes = res.LPStats.PrecondRefreshes
		}
	}
}

// With no backend named, sessions auto-select: csr-pcg on big sparse
// graphs, the dense reference on tiny or near-complete ones; the
// deprecated Solver enum still wins over the auto rule.
func TestDefaultBackendAutoSelection(t *testing.T) {
	rnd := rand.New(rand.NewSource(44))
	sparse := pathDigraph(64, rnd)
	if got := DefaultBackendFor(sparse); got != "csr-pcg" {
		t.Fatalf("sparse n=64 graph auto-selected %q, want csr-pcg", got)
	}
	tiny := pathDigraph(6, rnd)
	if got := DefaultBackendFor(tiny); got != "dense" {
		t.Fatalf("tiny graph auto-selected %q, want dense", got)
	}
	densegraph := graph.RandomFlowNetwork(40, 0.9, 3, 3, rnd)
	if got := DefaultBackendFor(densegraph); got != "dense" {
		t.Fatalf("near-complete graph auto-selected %q, want dense", got)
	}
	fs, err := NewSolver(sparse, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Backend() != "csr-pcg" {
		t.Fatalf("session backend %q, want auto-selected csr-pcg", fs.Backend())
	}
	fs, err = NewSolver(sparse, Options{Solver: SolverGremban})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Backend() != "gremban" {
		t.Fatalf("Solver enum overridden by auto rule: backend %q", fs.Backend())
	}
	fs, err = NewSolver(sparse, Options{Backend: "dense"})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Backend() != "dense" {
		t.Fatalf("explicit backend overridden: %q", fs.Backend())
	}
}

func TestConfigureRejectsUnknownBackend(t *testing.T) {
	d := diamond(t)
	form, err := NewLPForm(d, 0, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := form.Configure("no-such-backend"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if err := form.Configure(""); err != nil {
		t.Fatalf("empty backend (default) rejected: %v", err)
	}
	if _, err := MinCostMaxFlow(d, 0, 3, Options{Backend: "no-such-backend"}); err == nil {
		t.Fatal("MinCostMaxFlow accepted unknown backend")
	}
}

// A query whose every attempt rounds to a flow the certificate rejects —
// the drift-repaired iterate included — fails with ErrNotCertified, and
// the message reports how far the LP iterate is off Aᵀx = b. The session's
// problem gets an AᵀDA "solver" that always returns 0, so no Newton step
// is projected onto the constraints, and ε = 1e12 ends the path at
// t₂ = 2m/ε, far from the optimum, so repairing the drift cannot help.
func TestCertificateFailureIsTyped(t *testing.T) {
	d := graph.NewDigraph(4)
	for _, a := range [][4]int64{{0, 1, 2, 1}, {1, 3, 2, 1}, {0, 2, 1, 3}, {2, 3, 1, 1}} {
		if _, err := d.AddArc(int(a[0]), int(a[1]), a[2], a[3]); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := NewSolver(d, Options{Seed: SeedOf(11), Retries: 2, Eps: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{S: 0, T: 3}
	st, err := fs.formFor(q)
	if err != nil {
		t.Fatal(err)
	}
	st.form.Prob.Solve = func(_ context.Context, _, y []float64) ([]float64, int, error) {
		return make([]float64, len(y)), 0, nil
	}
	if st.sess, err = lp.NewSession(st.form.Prob); err != nil {
		t.Fatal(err)
	}
	res, err := fs.Solve(context.Background(), q.S, q.T)
	if err == nil {
		t.Fatalf("unprojected LP answered (%d, %d)", res.Value, res.Cost)
	}
	if !errors.Is(err, ErrNotCertified) {
		t.Fatalf("got %v, want ErrNotCertified", err)
	}
	if !strings.Contains(err.Error(), "off Aᵀx = b by") {
		t.Fatalf("error lacks the equality residual: %v", err)
	}
}

// repairDrift pulls an iterate knocked off Aᵀx = b back onto it along the
// variables with room: drift in the flow value F, which sits far from its
// bounds at the optimum, is taken back out of F, while the arcs pressed
// against their bounds barely move.
func TestRepairDriftMovesFreeVariables(t *testing.T) {
	d := graph.NewDigraph(4)
	for _, a := range [][4]int64{{0, 1, 2, 1}, {1, 3, 2, 1}, {0, 2, 1, 3}, {2, 3, 1, 1}} {
		if _, err := d.AddArc(int(a[0]), int(a[1]), a[2], a[3]); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := NewSolver(d, Options{Seed: SeedOf(11), Backend: "dense"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fs.Solve(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fs.formFor(Query{S: 0, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	form := st.form
	if _, ok := form.repairDrift(form.X0); ok {
		t.Fatal("repairDrift changed a feasible point")
	}
	x := append([]float64(nil), res.LPStats.X...)
	x[form.OffF] += 0.7
	fixed, ok := form.repairDrift(x)
	if !ok {
		t.Fatal("repairDrift gave up")
	}
	if r := form.Prob.Residual(fixed); r > 1e-9 {
		t.Fatalf("repaired point off Aᵀx = b by %g", r)
	}
	if got := x[form.OffF] - fixed[form.OffF]; math.Abs(got-0.7) > 1e-6 {
		t.Fatalf("F moved back by %v, want 0.7", got)
	}
	for i := 0; i < d.M(); i++ {
		if diff := math.Abs(fixed[i] - res.LPStats.X[i]); diff > 1e-3 {
			t.Fatalf("arc %d moved by %g", i, diff)
		}
	}
	if err := CertifyOptimal(d, 0, 3, form.RoundFlow(fixed)); err != nil {
		t.Fatal(err)
	}
}
