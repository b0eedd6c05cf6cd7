package bitset

import (
	"math/rand"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := New(130)
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if s.Count() != 7 {
		t.Errorf("Count = %d, want 7", s.Count())
	}
	s.Remove(64)
	if s.Has(64) {
		t.Error("bit 64 still set after Remove")
	}
	if !s.ContainsAll([]int{0, 63, 129}) {
		t.Error("ContainsAll false on set bits")
	}
	if s.ContainsAll([]int{0, 64}) {
		t.Error("ContainsAll true despite cleared bit")
	}
	s.Clear()
	if !s.Empty() {
		t.Error("set not empty after Clear")
	}
}

func TestHasBeyondCapacity(t *testing.T) {
	s := New(10)
	if s.Has(1000) {
		t.Error("bit beyond capacity reads as set")
	}
	var zero Set
	if zero.Has(0) {
		t.Error("zero-value set has bit 0")
	}
}

func TestMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200
	s := New(n)
	oracle := make(map[int]bool)
	for op := 0; op < 2000; op++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			s.Add(i)
			oracle[i] = true
		case 1:
			s.Remove(i)
			delete(oracle, i)
		case 2:
			if s.Has(i) != oracle[i] {
				t.Fatalf("op %d: Has(%d) = %v, oracle %v", op, i, s.Has(i), oracle[i])
			}
		}
	}
	if s.Count() != len(oracle) {
		t.Errorf("Count = %d, oracle %d", s.Count(), len(oracle))
	}
}
