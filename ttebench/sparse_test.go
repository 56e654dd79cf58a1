package main

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

func TestSparseDeterministicPerSeed(t *testing.T) {
	p := sparseParams{Users: 200, Tasks: 150, MaxTasksPerRoute: 4}
	a, err := sparseJSON(p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sparseJSON(p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different instances")
	}
	c, err := sparseJSON(p, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced the same instance")
	}
}

func TestSparseValidAndSparse(t *testing.T) {
	p := sparseParams{Users: 300, Tasks: 300, MaxTasksPerRoute: 4}
	in := genSparse(p, rng.New(3))
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.NumUsers() != p.Users || in.NumTasks() != p.Tasks {
		t.Fatalf("got %d users, %d tasks", in.NumUsers(), in.NumTasks())
	}
	for _, u := range in.Users {
		if len(u.Routes) < 1 || len(u.Routes) > 5 {
			t.Fatalf("user %d has %d routes", u.ID, len(u.Routes))
		}
		if u.Routes[0].Detour != 0 {
			t.Fatalf("user %d route 0 has detour %v", u.ID, u.Routes[0].Detour)
		}
		for _, r := range u.Routes {
			if len(r.Tasks) > p.MaxTasksPerRoute {
				t.Fatalf("user %d route covers %d tasks", u.ID, len(r.Tasks))
			}
		}
	}
}

func TestSparseJSONRoundTrip(t *testing.T) {
	p := sparseParams{Users: 120, Tasks: 90, MaxTasksPerRoute: 4}
	js, err := sparseJSON(p, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.ReadJSON(bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := in.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, again.Bytes()) {
		t.Fatal("instance changed across a JSON round trip")
	}
}

func TestFloydSample(t *testing.T) {
	s := rng.New(5)
	seen := map[int]int{}
	for trial := 0; trial < 2000; trial++ {
		got := floydSample(10, 4, s)
		if len(got) != 4 {
			t.Fatalf("got %d ids", len(got))
		}
		for i, id := range got {
			if id < 0 || id >= 10 {
				t.Fatalf("id %d out of range", id)
			}
			if i > 0 && got[i-1] >= id {
				t.Fatalf("ids not distinct and ascending: %v", got)
			}
			seen[int(id)]++
		}
	}
	// Every id is drawn with probability 4/10: 800 of 2000 trials.
	for id := 0; id < 10; id++ {
		if seen[id] < 650 || seen[id] > 950 {
			t.Errorf("id %d drawn %d times, want about 800", id, seen[id])
		}
	}
	if got := floydSample(3, 3, s); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("k == n should return every id, got %v", got)
	}
}
