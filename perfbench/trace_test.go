package main

import (
	"math"
	"strings"
	"testing"
)

func ev(at float64, stage string, phase int) event { return event{At: at, Stage: stage, Phase: phase} }

func TestPhaseTimesAttributesIntervalsToLaterEvent(t *testing.T) {
	for _, tc := range []struct {
		name       string
		start, end float64
		events     []event
		want       map[string]float64
	}{
		{
			name: "cold first-of-pair", start: 0, end: 7,
			events: []event{ev(1, "attempt", 0), ev(2, "path-step", 1), ev(3, "path-step", 1), ev(4, "path-step", 2), ev(6, "path-step", 2)},
			want:   map[string]float64{"formulate": 1, "init_weights": 1, "phase1": 1, "phase2": 3, "final": 1},
		},
		{
			name: "warm polish", start: 0, end: 2.5,
			events: []event{ev(1, "path-step", 3), ev(2, "path-step", 3)},
			want:   map[string]float64{"polish": 2, "final": 0.5},
		},
		{
			name: "polish rejected, cold fallback", start: 0, end: 5,
			events: []event{ev(1, "path-step", 3), ev(2, "attempt", 0), ev(3, "path-step", 1), ev(4, "path-step", 2)},
			want:   map[string]float64{"polish": 1, "retry": 1, "init_weights": 1, "phase2": 1, "final": 1},
		},
		{
			name: "no events", start: 2, end: 3,
			want: map[string]float64{"final": 1},
		},
	} {
		got := phaseTimes(tc.start, tc.end, tc.events)
		total := 0.0
		for k, v := range got {
			total += v
			if math.Abs(v-tc.want[k]) > 1e-12 {
				t.Errorf("%s: %s = %v, want %v", tc.name, k, v, tc.want[k])
			}
		}
		for k := range tc.want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: missing phase %s", tc.name, k)
			}
		}
		if math.Abs(total-(tc.end-tc.start)) > 1e-12 {
			t.Errorf("%s: phases sum to %v, want the wall time %v", tc.name, total, tc.end-tc.start)
		}
	}
}

// feed replays a sequence of AᵀDA calls (one diagonal per call) into a
// request, one time unit per call.
func feed(r *request, diags ...[]float64) {
	for i, d := range diags {
		r.gram(d, float64(i), float64(i)+0.5, 2)
	}
}

func TestGramClassifierRuns(t *testing.T) {
	lev := []float64{0.25, 4}
	proj := []float64{3, 7}
	ones := []float64{1, 1}
	r := &request{}
	feed(r, lev, lev, lev, proj, ones, []float64{5, 5}, []float64{0.25, 4}, []float64{0.25, 4})
	var classes []string
	for _, g := range r.Grams {
		classes = append(classes, g.class())
	}
	if got, want := strings.Join(classes, ","), "leverage,projection,repair,projection,leverage"; got != want {
		t.Fatalf("classes = %s, want %s", got, want)
	}
	first := r.Grams[0]
	if first.Solves != 3 || first.Iters != 6 || first.Start != 0 || first.End != 2.5 || first.Busy != 1.5 {
		t.Errorf("leverage run = %+v", first)
	}
}

func TestCheckClassifier(t *testing.T) {
	lev, p1, p2 := []float64{9, 9}, []float64{1, 2}, []float64{2, 1}
	ones := []float64{1, 1}
	cold := &request{Attempts: 1, Centerings: 2}
	feed(cold, lev, lev, p1, lev, lev, p2)
	if checked, err := checkClassifier(cold); !checked || err != nil {
		t.Errorf("cold: checked=%v err=%v", checked, err)
	}
	cold.Centerings = 3
	if _, err := checkClassifier(cold); err == nil {
		t.Error("cold with a missing projection solve passed the check")
	}

	warm := &request{Warm: true, Centerings: 1}
	feed(warm, ones, p1, lev, lev)
	if _, err := checkClassifier(warm); err != nil {
		t.Errorf("warm: %v", err)
	}
	noRepair := &request{Warm: true, Centerings: 1}
	feed(noRepair, p1, lev, lev)
	if _, err := checkClassifier(noRepair); err == nil {
		t.Error("warm answer without a feasibility repair passed the check")
	}

	// A rejected polish (one centering, reported by its phase-3 event)
	// followed by a cold solve with one centering.
	fallback := &request{Attempts: 1, Centerings: 1, Events: []event{ev(1, "path-step", 3), ev(2, "attempt", 0)}}
	feed(fallback, ones, p1, lev, lev, p2, lev, lev)
	if _, err := checkClassifier(fallback); err != nil {
		t.Errorf("fallback: %v", err)
	}

	retried := &request{Attempts: 2, Centerings: 1}
	feed(retried, p1, lev, lev, p2)
	if checked, err := checkClassifier(retried); checked || err != nil {
		t.Errorf("multi-attempt request: checked=%v err=%v, want unchecked", checked, err)
	}
	if checked, _ := checkClassifier(&request{Hit: true}); checked {
		t.Error("cache hit was checked")
	}
}

func TestSpanTreeSelfTimesCoverTheRequest(t *testing.T) {
	r := &request{ID: 1, Start: 0, End: 10, Events: []event{
		ev(1, "attempt", 0), ev(3, "path-step", 1), ev(5, "path-step", 1), ev(8, "path-step", 2),
	}}
	r.Grams = []gramRun{
		{Start: 1.5, End: 2.5, Busy: 0.8, Solves: 4},
		{Start: 3.5, End: 3.6, Busy: 0.1, Solves: 1},
		{Start: 8.5, End: 9, Busy: 0.4, Solves: 3},
	}
	id := 0
	spans := r.spans(&id)
	byID := map[int]span{}
	names := map[string]int{}
	self := 0.0
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name]++
		self += s.Self
		if s.Req != 1 {
			t.Errorf("span %s has request %d", s.Name, s.Req)
		}
	}
	if math.Abs(self-10) > 1e-9 {
		t.Errorf("self times sum to %v, want the request's 10", self)
	}
	for _, want := range []string{"request", "flow.formulate", "flow.attempt", "lp.init_weights", "lp.phase1", "lp.phase2", "lp.final", "gram.leverage", "gram.projection"} {
		if names[want] == 0 {
			t.Errorf("no %s span in %v", want, names)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p := byID[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %s [%v,%v] escapes its parent %s [%v,%v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if strings.HasPrefix(s.Name, "gram.") && !strings.HasPrefix(p.Name, "lp.") {
			t.Errorf("gram run parented by %s, want an lp phase", p.Name)
		}
	}
}
