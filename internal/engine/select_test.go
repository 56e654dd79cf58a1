package engine

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// selectPUUInsertion is the reference PUU selection SelectPUU must match:
// an insertion sort by non-ascending δ_i = τ_i/|B_i| (δ = +Inf for an
// empty B, ties in request order), then greedy admission against a map of
// claimed tasks. It is O(n²) and recomputes δ on every comparison; it
// exists only as a test oracle.
func selectPUUInsertion(reqs []Request) []Request {
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	delta := func(r Request) float64 {
		if len(r.B) == 0 {
			return math.Inf(1)
		}
		return r.Tau / float64(len(r.B))
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && delta(reqs[idx[j]]) > delta(reqs[idx[j-1]]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	taken := map[int]bool{}
	var out []Request
	for _, ii := range idx {
		r := reqs[ii]
		conflict := false
		for _, k := range r.B {
			if taken[k] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		for _, k := range r.B {
			taken[k] = true
		}
		out = append(out, r)
	}
	return out
}

// sameSelection reports whether two selections admit the same requests in
// the same order, comparing τ bit for bit (so NaN equals NaN).
func sameSelection(a, b []Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].User != b[i].User || a[i].Route != b[i].Route ||
			math.Float64bits(a[i].Tau) != math.Float64bits(b[i].Tau) || !reflect.DeepEqual(a[i].B, b[i].B) {
			return false
		}
	}
	return true
}

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSelectPUUHostileInput feeds SelectPUU the request shapes an agent can
// put on the wire: negative, huge and duplicated task IDs, empty B sets,
// and non-finite τ. Selection must not panic, must admit pairwise disjoint
// B sets, must return exactly the reference selection whenever no δ is NaN
// (±Inf τ included), and must allocate a few hundred bytes for task IDs
// ±2^40 just as for IDs 1 and 2 — nothing sized by an ID's value.
func TestSelectPUUHostileInput(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name   string
		reqs   []Request
		finite bool // τ finite (or B empty): the oracle defines the output
	}{
		{"negative ID", []Request{{User: 0, Tau: 1, B: []int{-1}}, {User: 1, Tau: 2, B: []int{-1, 3}}}, true},
		{"huge ID", []Request{{User: 0, Tau: 1, B: []int{1 << 40}}, {User: 1, Tau: 1, B: []int{1 << 40, -1 << 40}}}, true},
		{"duplicate IDs", []Request{{User: 0, Tau: 3, B: []int{5, 5, 5}}, {User: 1, Tau: 1, B: []int{5}}, {User: 2, Tau: 1, B: []int{6, 6}}}, true},
		{"empty B", []Request{{User: 0, Tau: -1}, {User: 1, Tau: 1, B: []int{}}, {User: 2, Tau: 5, B: []int{0}}}, true},
		{"min and max int", []Request{{User: 0, Tau: 1, B: []int{math.MinInt, math.MaxInt}}, {User: 1, Tau: 2, B: []int{math.MaxInt}}}, true},
		{"+Inf tau", []Request{{User: 0, Tau: 1, B: []int{1}}, {User: 1, Tau: inf, B: []int{1, 2}}, {User: 2, Tau: inf, B: []int{3}}}, true},
		{"-Inf tau", []Request{{User: 0, Tau: -inf, B: []int{1}}, {User: 1, Tau: 0, B: []int{1}}, {User: 2, Tau: -inf}}, true},
		{"NaN tau", []Request{{User: 0, Tau: nan, B: []int{1}}, {User: 1, Tau: 2, B: []int{1}}, {User: 2, Tau: nan, B: []int{2}}, {User: 3, Tau: 1, B: []int{2}}}, false},
		{"NaN tau, empty B", []Request{{User: 0, Tau: nan}, {User: 1, Tau: 1, B: []int{0}}}, true},
		{"no requests", nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := SelectPUU(tc.reqs)
			if tc.finite {
				if want := selectPUUInsertion(tc.reqs); !sameSelection(got, want) {
					t.Fatalf("SelectPUU = %+v, reference %+v", got, want)
				}
			}
			// Whatever the order, the admitted B sets are pairwise disjoint.
			seen := map[int]int{}
			for _, r := range got {
				for _, k := range r.B {
					if u, ok := seen[k]; ok && u != int(r.User) {
						t.Fatalf("task %d admitted for users %d and %d", k, u, r.User)
					}
					seen[k] = int(r.User)
				}
			}
		})
	}

	small := []Request{{User: 0, Tau: 1, B: []int{1}}, {User: 1, Tau: 2, B: []int{2}}}
	huge := []Request{{User: 0, Tau: 1, B: []int{1 << 40}}, {User: 1, Tau: 2, B: []int{-1 << 40}}}
	a := allocBytes(200, func() { SelectPUU(small) })
	b := allocBytes(200, func() { SelectPUU(huge) })
	if a > 4096 || b > 4096 {
		t.Fatalf("SelectPUU allocates %d B/op for task IDs ±2^40 and %d B/op for IDs 1, 2; want ≤ 4096 for both", b, a)
	}
}

// TestSelectPUUMatchesInsertionSort is the differential test of the
// selection: on random finite request sets with many δ ties (τ and |B|
// drawn from small ranges), overlapping B sets and some empty ones,
// SelectPUU returns exactly what the insertion-sort reference returns.
func TestSelectPUUMatchesInsertionSort(t *testing.T) {
	s := rng.New(2024)
	for trial := 0; trial < 2000; trial++ {
		n := s.Intn(60)
		tasks := 1 + s.Intn(40)
		reqs := make([]Request, n)
		for i := range reqs {
			r := Request{User: core.UserID(i), Route: s.Intn(3), Tau: float64(s.IntRange(-2, 4))}
			if s.Bool(0.3) {
				r.Tau /= 2 // halves tie with the integers once divided by |B|
			}
			for b := s.Intn(5); b > 0; b-- {
				r.B = append(r.B, s.Intn(tasks))
			}
			reqs[i] = r
		}
		if got, want := SelectPUU(reqs), selectPUUInsertion(reqs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SelectPUU diverges from the reference\nreqs: %+v\ngot:  %+v\nwant: %+v", trial, reqs, got, want)
		}
	}
}

// TestSelectPUUCollidingKeys sends one request whose B holds task IDs an
// agent can pick to collide under a fixed multiplicative hash: k_j = j·C⁻¹
// mod 2⁶⁴ for the golden-ratio multiplier C, so every k_j·C shares its top
// bits and would land in one slot of any Fibonacci-hashed table. Its huge τ
// ranks it first, so all its IDs are claimed, and every later request is
// checked against them. Selection must take about as long as on the same
// request with IDs 1…n; a quadratic probe chain takes thousands of times
// longer.
func TestSelectPUUCollidingKeys(t *testing.T) {
	const c = 0x9E3779B97F4A7C15
	inv := uint64(c) // Newton iteration for C⁻¹ mod 2⁶⁴
	for i := 0; i < 6; i++ {
		inv *= 2 - c*inv
	}
	if inv*c != 1 {
		t.Fatalf("C⁻¹ = %#x is not the inverse of C", inv)
	}
	const n = 1 << 15
	requests := func(id func(j uint64) int) []Request {
		reqs := []Request{{User: 0, Tau: 1e300}}
		for j := uint64(1); j <= n; j++ {
			reqs[0].B = append(reqs[0].B, id(j))
		}
		for u := 1; u <= 1000; u++ {
			reqs = append(reqs, Request{User: core.UserID(u), Tau: 1, B: []int{id(uint64(u)), id(uint64(n + u))}})
		}
		return reqs
	}
	fastest := func(reqs []Request) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if got := SelectPUU(reqs); len(got) != 1 {
				t.Fatalf("admitted %d requests, want only the first", len(got))
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	honest := fastest(requests(func(j uint64) int { return int(j) }))
	hostile := fastest(requests(func(j uint64) int { return int(j * inv) }))
	if hostile > 20*honest+50*time.Millisecond {
		t.Fatalf("colliding task IDs: selection took %v, against %v for IDs 1…%d", hostile, honest, n)
	}
}
