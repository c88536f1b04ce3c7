package bcclap

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bcclap/internal/graph"
	"bcclap/internal/linalg"
)

func testFlowNetwork(n int, seed int64) *Digraph {
	return graph.RandomFlowNetwork(n, 0.35, 3, 3, rand.New(rand.NewSource(seed)))
}

// Acceptance: a canceled context aborts a flow solve on every registered
// backend with an error satisfying errors.Is(err, context.Canceled).
func TestFlowSolverCancellationAllBackends(t *testing.T) {
	d := testFlowNetwork(5, 31)
	for _, backend := range FlowBackends() {
		t.Run(backend, func(t *testing.T) {
			// Pre-canceled context: rejected before any attempt.
			fs, err := NewFlowSolver(d, WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := fs.Solve(ctx, 0, d.N()-1); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled: got %v", err)
			}
			// Cancel mid-path-following from the progress stream: the solve
			// must abort within one outer iteration.
			ctx2, cancel2 := context.WithCancel(context.Background())
			defer cancel2()
			fs2, err := NewFlowSolver(d,
				WithBackend(backend),
				WithProgress(func(e Event) {
					if e.Stage == "path-step" && e.Step == 2 {
						cancel2()
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs2.Solve(ctx2, 0, d.N()-1); !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-solve: got %v", err)
			}
		})
	}
}

// Session solves must reproduce the deprecated one-shot wrapper bit for
// bit, call after call.
func TestFlowSolverMatchesOneShot(t *testing.T) {
	d := testFlowNetwork(5, 32)
	const seed = 6
	fs, err := NewFlowSolver(d, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := fs.Solve(context.Background(), 0, d.N()-1)
		if err != nil {
			t.Fatalf("session solve %d: %v", i, err)
		}
		want, err := MinCostMaxFlow(d, 0, d.N()-1, FlowOptions{Seed: seed})
		if err != nil {
			t.Fatalf("one-shot %d: %v", i, err)
		}
		if got.Value != want.Value || got.Cost != want.Cost ||
			got.PathSteps != want.PathSteps || !reflect.DeepEqual(got.Flows, want.Flows) {
			t.Fatalf("solve %d diverged: session (%d, %d, %d steps) vs one-shot (%d, %d, %d steps)",
				i, got.Value, got.Cost, got.PathSteps, want.Value, want.Cost, want.PathSteps)
		}
		if i > 0 && !got.Stats.ReusedPreprocessing {
			t.Fatal("repeat query did not reuse preprocessing")
		}
		if got.Stats.WallTime <= 0 {
			t.Fatal("no wall time recorded")
		}
	}
}

// Batch answers must match the SSP baseline with warm starts engaged.
func TestFlowSolverBatch(t *testing.T) {
	d := testFlowNetwork(6, 33)
	s, tt := 0, d.N()-1
	wantV, wantC, _, err := MinCostMaxFlowBaseline(d, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFlowSolver(d, WithSeed(4), WithBackend("csr-cg"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fs.SolveBatch(context.Background(), []FlowQuery{{s, tt}, {s, tt}, {s, tt}})
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for i, r := range res {
		if r.Value != wantV || r.Cost != wantC {
			t.Fatalf("query %d: (%d, %d) vs baseline (%d, %d)", i, r.Value, r.Cost, wantV, wantC)
		}
		if r.Stats.Backend != "csr-cg" {
			t.Fatalf("query %d: backend %q", i, r.Stats.Backend)
		}
		if r.Stats.WarmStarted {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("no warm starts in a repeated-query batch")
	}
}

// Sentinel errors must surface through the public API with errors.Is.
func TestSentinelErrors(t *testing.T) {
	d := testFlowNetwork(5, 34)
	fs, err := NewFlowSolver(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Solve(context.Background(), 0, 0); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("s == t: got %v", err)
	}
	if _, err := fs.Solve(context.Background(), -1, 2); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("s out of range: got %v", err)
	}
	if _, err := fs.SolveBatch(context.Background(), []FlowQuery{{0, 1}, {9, 99}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("bad batch query: got %v", err)
	}
	if _, err := NewFlowSolver(NewDigraph(3)); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("empty digraph: got %v", err)
	}
	_, err = NewFlowSolver(d, WithBackend("no-such-backend"))
	if !errors.Is(err, ErrBackendUnknown) {
		t.Fatalf("unknown backend: got %v", err)
	}
	if !strings.Contains(err.Error(), "csr-cg") {
		t.Fatalf("backend error does not list registered names: %v", err)
	}
	if _, err := NewLaplacianSession(graph.New(4)); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("edgeless graph: got %v", err)
	}
}

// A pinned instance (an 8-vertex, 12-arc random network, query 4→0,
// default seed) on which csr-pcg used to fail all five perturbation
// attempts: its projection solves meet their tolerance relative to
// right-hand sides of norm up to ~1e8, the Newton steps drift off Aᵀx = b
// by ‖r‖ ≈ 1.4 over the path, and the rounded flow violates conservation.
// The drift repair before each retry moves the iterate back onto the
// constraints, so every backend now returns the baseline.
func TestDriftInstanceCertifiesOnAllBackends(t *testing.T) {
	d := NewDigraph(8)
	for _, a := range [][4]int64{
		{0, 1, 3, 1}, {1, 2, 2, 0}, {2, 3, 2, 3}, {3, 4, 1, 0}, {4, 5, 2, 3}, {5, 6, 1, 3},
		{6, 7, 3, 0}, {0, 7, 2, 2}, {5, 0, 3, 1}, {5, 1, 3, 2}, {5, 3, 2, 1}, {7, 3, 1, 3},
	} {
		if _, err := d.AddArc(int(a[0]), int(a[1]), a[2], a[3]); err != nil {
			t.Fatal(err)
		}
	}
	wantV, wantC, _, err := MinCostMaxFlowBaseline(d, 4, 0)
	if err != nil || wantV != 2 || wantC != 8 {
		t.Fatalf("baseline (%d, %d, %v), want (2, 8)", wantV, wantC, err)
	}
	for _, backend := range []string{"dense", "csr-cg", "csr-pcg"} {
		fs, err := NewFlowSolver(d, WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fs.Solve(context.Background(), 4, 0)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Value != wantV || res.Cost != wantC {
			t.Fatalf("%s: answered (%d, %d), baseline (%d, %d)", backend, res.Value, res.Cost, wantV, wantC)
		}
	}
}

// The LP session must amortize across solves, report unified stats, and
// reject infeasible starts with ErrInfeasible.
func TestLPSolverSession(t *testing.T) {
	prob := &LPProblem{
		A: linalg.NewCSR(2, 1, []linalg.Triple{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1}}),
		B: []float64{1},
		C: []float64{2, 1},
		L: []float64{0, 0},
		U: []float64{1, 1},
	}
	l, err := NewLPSolver(prob, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		sol, st, err := l.Solve(ctx, []float64{0.5, 0.5}, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Objective < 0.95 || sol.Objective > 1.05 {
			t.Fatalf("objective %v, want ≈ 1", sol.Objective)
		}
		if st.PathSteps == 0 || st.WallTime <= 0 || st.Backend != "dense" {
			t.Fatalf("stats: %+v", st)
		}
		if (i > 0) != st.ReusedPreprocessing {
			t.Fatalf("solve %d: ReusedPreprocessing = %v", i, st.ReusedPreprocessing)
		}
	}
	if _, _, err := l.Solve(ctx, []float64{2, -1}, 0.02); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("infeasible x0: got %v", err)
	}
	ctxC, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := l.Solve(ctxC, []float64{0.5, 0.5}, 0.02); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled LP solve: got %v", err)
	}
}

// The Laplacian session must honor contexts and keep serving after a
// cancellation; the new constructor must reproduce the deprecated one.
func TestLaplacianSessionCtx(t *testing.T) {
	g := graph.Grid(4, 5)
	sess, err := NewLaplacianSession(g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	old, err := NewLaplacianSolver(g, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(2))
	b := make([]float64, g.N())
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	b = linalg.ProjectOutOnes(b)
	ctxC, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sess.SolveCtx(ctxC, b, 1e-6); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Laplacian solve: got %v", err)
	}
	y, st, err := sess.SolveCtx(context.Background(), b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if st.CGIterations == 0 || !st.ReusedPreprocessing || st.WallTime <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	yOld, _, err := old.Solve(b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(y, yOld) {
		t.Fatal("session and deprecated constructor disagree")
	}
}

// WithProgress must deliver both attempt and path-step events.
func TestProgressEvents(t *testing.T) {
	d := testFlowNetwork(5, 35)
	var attempts, steps int
	fs, err := NewFlowSolver(d, WithProgress(func(e Event) {
		switch e.Stage {
		case "attempt":
			attempts++
		case "path-step":
			steps++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Solve(context.Background(), 0, d.N()-1); err != nil {
		t.Fatal(err)
	}
	if attempts == 0 || steps == 0 {
		t.Fatalf("progress stream empty: attempts=%d steps=%d", attempts, steps)
	}
}

// A pooled FlowSolver must answer batches bit-identically to the
// sequential solver, accept concurrent callers, and shut down with the
// ErrSolverClosed sentinel.
func TestFlowSolverPooled(t *testing.T) {
	d := testFlowNetwork(5, 36)
	s, tt := 0, d.N()-1
	queries := []FlowQuery{{s, tt}, {s, tt}, {s, tt}, {s, tt}}

	seq, err := NewFlowSolver(d, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.SolveBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}

	// A pooled solver cannot share the single-stream round simulator.
	if net, err := NewBCCNetwork(d.N()); err != nil {
		t.Fatal(err)
	} else if _, err := NewFlowSolver(d, WithPoolSize(2), WithNetwork(net)); err == nil {
		t.Fatal("WithNetwork + WithPoolSize accepted")
	}

	pooled, err := NewFlowSolver(d, WithSeed(6), WithPoolSize(3), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	if n := pooled.PoolSize(); n != 3 {
		t.Fatalf("pool size %d, want exactly 3 (max of WithPoolSize and WithShards)", n)
	}
	got, err := pooled.SolveBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if got[i].Value != want[i].Value || got[i].Cost != want[i].Cost ||
			!reflect.DeepEqual(got[i].Flows, want[i].Flows) ||
			got[i].Stats.WarmStarted != want[i].Stats.WarmStarted {
			t.Fatalf("query %d: pooled %+v vs sequential %+v", i, got[i], want[i])
		}
	}
	st := pooled.PoolStats()
	if st.Completed != int64(len(queries)) || st.WarmStarted == 0 {
		t.Fatalf("pool stats: %+v", st)
	}

	// Concurrent single-query callers: every result must match the
	// sequential answer (queries are cold, so any order is the same order).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pooled.Solve(context.Background(), s, tt)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Value != want[0].Value || res.Cost != want[0].Cost {
				t.Errorf("concurrent solve: (%d, %d) vs (%d, %d)",
					res.Value, res.Cost, want[0].Value, want[0].Cost)
			}
		}()
	}
	wg.Wait()

	if err := pooled.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := pooled.Solve(context.Background(), s, tt); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("post-drain solve: got %v, want ErrSolverClosed", err)
	}
	// On a sequential solver Drain has nothing to wait for but still
	// closes intake, like the pooled path.
	if err := seq.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Solve(context.Background(), s, tt); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("sequential post-drain solve: got %v, want ErrSolverClosed", err)
	}
}

// Regression (satellite of the service PR): a *non-pooled* FlowSolver
// must reject queries after Close with ErrSolverClosed, exactly like the
// pooled path — both Solve and SolveBatch, and Closed must report it.
func TestFlowSolverClosedNonPooled(t *testing.T) {
	d := testFlowNetwork(5, 36)
	s, tt := 0, d.N()-1
	fs, err := NewFlowSolver(d, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Closed() {
		t.Fatal("fresh solver reports Closed")
	}
	if _, err := fs.Solve(context.Background(), s, tt); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if !fs.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if _, err := fs.Solve(context.Background(), s, tt); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("Solve after Close: got %v, want ErrSolverClosed", err)
	}
	if _, err := fs.SolveBatch(context.Background(), []FlowQuery{{s, tt}}); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("SolveBatch after Close: got %v, want ErrSolverClosed", err)
	}
	fs.Close() // idempotent
}
