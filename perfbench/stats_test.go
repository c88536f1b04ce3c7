package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5} // 1..10, unsorted
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(samples, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if samples[0] != 7 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if got := percentile([]float64{4}, 99); got != 4 {
		t.Errorf("single-sample p99 = %v, want 4", got)
	}
}

func TestTailSupportedNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},  // rank 90, 10 beyond
		{99, 90, false},  // rank 90, 9 beyond
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{9, 90, false},   // rank 9, none beyond
		{0, 50, false},   // no samples
		{2000, 99, true}, // rank 1980, 20 beyond
		{1009, 99, true}, // rank ceil(998.91) = 999, 10 beyond
	} {
		if got := tailSupported(tc.n, tc.p); got != tc.want {
			t.Errorf("tailSupported(%d, p%v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 10}
	for _, tc := range []struct {
		name     string
		children []interval
		want     float64
	}{
		{"none", nil, 10},
		{"disjoint", []interval{{1, 2}, {4, 6}}, 7},
		{"overlapping", []interval{{1, 3}, {2, 5}}, 6},
		{"clipped to parent", []interval{{-2, 1}, {8, 12}}, 7},
		{"outside", []interval{{11, 12}}, 10},
		{"nested", []interval{{1, 9}, {2, 3}}, 2},
		{"covering", []interval{{0, 10}}, 0},
	} {
		if got := selfTime(parent, tc.children); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: self = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestParseMetricsSumsLabelSets(t *testing.T) {
	text := `# HELP bcclap_cache_hits_total Cache hits.
# TYPE bcclap_cache_hits_total counter
bcclap_cache_hits_total{network="a"} 3
bcclap_cache_hits_total{network="b",x="{}"} 4
bcclap_networks 2
`
	got, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got["bcclap_cache_hits_total"] != 7 || got["bcclap_networks"] != 2 {
		t.Errorf("parsed %v", got)
	}
}

func TestWindowRatesFullWindowsOnly(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ops := []op{
		{at(0), at(100), true}, {at(100), at(500), true}, // 2 in 0.5 s
		{at(500), at(600), false}, {at(600), at(1500), true}, // 1 correct in 1 s
		{at(1500), at(1600), true}, // partial window: dropped
	}
	got := windowRates(ops, 2)
	want := []float64{4, 1}
	if len(got) != len(want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("window %d = %v, want %v", i, got[i], want[i])
		}
	}
	if got := windowRates(ops[:1], 2); len(got) != 0 {
		t.Errorf("one op, window of two: %v, want none", got)
	}
}
