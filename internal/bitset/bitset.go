// Package bitset provides fixed-capacity bit sets over []uint64 words.
// The counting hot path (acceptance checks over sampled forests) tests
// tuple membership millions of times per run; a bit set turns each test
// into a shift, a mask and a word load.
package bitset

import "math/bits"

// Set is a bit set with capacity fixed at creation. The zero value is
// an empty set of capacity 0.
type Set []uint64

const wordBits = 64

// New returns a cleared set with capacity for n bits.
func New(n int) Set {
	return make(Set, Words(n))
}

// Words returns the number of words of a set with capacity for n bits.
func Words(n int) int {
	return (n + wordBits - 1) / wordBits
}

// Has reports whether bit i is set. Bits beyond the capacity read as
// unset.
func (s Set) Has(i int) bool {
	w := i / wordBits
	return w < len(s) && s[w]&(1<<(uint(i)%wordBits)) != 0
}

// Add sets bit i, which must be within capacity.
func (s Set) Add(i int) {
	s[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove clears bit i, which must be within capacity.
func (s Set) Remove(i int) {
	s[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Clear unsets every bit.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for every set bit, in ascending order.
func (s Set) ForEach(f func(i int)) {
	for w, word := range s {
		for word != 0 {
			f(w*wordBits + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Intersects reports whether the two sets share a set bit. Sets of
// different capacities compare over their common prefix.
func (s Set) Intersects(t Set) bool {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every listed bit is set.
func (s Set) ContainsAll(bits []int) bool {
	for _, i := range bits {
		if !s.Has(i) {
			return false
		}
	}
	return true
}
