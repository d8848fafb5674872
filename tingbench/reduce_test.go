package main

import (
	"math/rand"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(a, b int) { s[a], s[b] = s[b], s[a] })
	return s
}

func TestReduceReadsP99OnlyWithTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct, hi float64
	}{
		{n: 2000, pct: 99, hi: 1980}, // p99 leaves 20 beyond
		{n: 1000, pct: 99, hi: 990},  // p99 leaves exactly 10 beyond
		// Fewer samples: p99 would leave fewer than 10 beyond, so the tail
		// is read at rank n-10.
		{n: 500, pct: 98, hi: 490},
		{n: 100, pct: 90, hi: 90},
		{n: 20, pct: 50, hi: 10},
		{n: 11, pct: 100.0 / 11, hi: 1},
	} {
		got := reduce(seq(tc.n))
		if got.N != tc.n || got.Pct != tc.pct || got.Hi != tc.hi {
			t.Errorf("n=%d: got p%v = %v over %d, want p%v = %v", tc.n, got.Pct, got.Hi, got.N, tc.pct, tc.hi)
		}
		beyond := 0
		for _, v := range seq(tc.n) {
			if v > got.Hi {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
}

func TestReduceWithoutTail(t *testing.T) {
	got := reduce(seq(10))
	if got.Pct != 0 || got.Hi != 10 || got.P50 != 5 {
		t.Errorf("n=10: got %+v, want no tail (Pct 0, Hi = max 10) and median 5", got)
	}
	if got := reduce(nil); got != (tail{}) {
		t.Errorf("no samples: got %+v", got)
	}
}

func TestReduceMedianIsNearestRank(t *testing.T) {
	for n, want := range map[int]float64{1: 1, 2: 1, 3: 2, 4: 2, 1001: 501} {
		if got := reduce(seq(n)).P50; got != want {
			t.Errorf("n=%d: median %v, want %v", n, got, want)
		}
	}
}

func TestReduceLeavesInputUnsorted(t *testing.T) {
	s := []float64{3, 1, 2}
	reduce(s)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Errorf("reduce reordered its input: %v", s)
	}
}
