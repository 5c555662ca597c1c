package collections

import (
	"fmt"
	"math"
	"strconv"
	"testing"
)

// plainIndexOf is the one-compare loop every array variant ran before the
// unrolled kernel: the oracle indexOf must match.
func plainIndexOf[T comparable](s []T, v T) int {
	for i, e := range s {
		if e == v {
			return i
		}
	}
	return -1
}

func checkIndexOf[T comparable](t *testing.T, s []T, v T) int {
	t.Helper()
	got, want := indexOf(s, v), plainIndexOf(s, v)
	if got != want {
		t.Fatalf("indexOf(%v, %v) = %d, plain loop %d", s, v, got, want)
	}
	return got
}

// indexOfCases runs the kernel against the plain loop on every length from
// 0 to 40 over distinct values val(0..n-1): a match at every position, so
// the tail and both sides of each 8-element block are covered; absent
// values; and a duplicate of every element at every later position, where
// the first occurrence must win.
func indexOfCases[T comparable](t *testing.T, val func(int) T) {
	for n := 0; n <= 40; n++ {
		s := make([]T, n)
		for i := range s {
			s[i] = val(i)
		}
		for p := range s {
			if got := checkIndexOf(t, s, s[p]); got != p {
				t.Fatalf("n=%d: indexOf(s, s[%d]) = %d", n, p, got)
			}
		}
		checkIndexOf(t, s, val(n))
		checkIndexOf(t, s, val(-1))
		dup := make([]T, n)
		for p := range s {
			for q := p + 1; q < n; q++ {
				copy(dup, s)
				dup[q] = dup[p]
				if got := checkIndexOf(t, dup, s[p]); got != p {
					t.Fatalf("n=%d: duplicate at %d and %d found at %d", n, p, q, got)
				}
				checkIndexOf(t, dup, s[q])
			}
		}
	}
}

func TestIndexOfMatchesLoop(t *testing.T) {
	t.Run("int", func(t *testing.T) {
		indexOfCases(t, func(i int) int { return 3*i + 1 })
	})
	t.Run("string", func(t *testing.T) {
		indexOfCases(t, func(i int) string { return "k" + strconv.Itoa(i) })
	})
	t.Run("float64", func(t *testing.T) {
		indexOfCases(t, func(i int) float64 { return float64(i) + 0.5 })
		nan, negZero := math.NaN(), math.Copysign(0, -1)
		for n := 1; n <= 40; n++ {
			for p := 0; p < n; p++ {
				s := make([]float64, n)
				for i := range s {
					s[i] = float64(i) + 0.5
				}
				s[p] = nan
				if got := checkIndexOf(t, s, nan); got != -1 {
					t.Fatalf("n=%d: NaN at %d matched at %d", n, p, got)
				}
				s[p] = negZero
				if got := checkIndexOf(t, s, 0); got != p {
					t.Fatalf("n=%d: +0 against -0 at %d found at %d", n, p, got)
				}
				s[p] = 0
				if got := checkIndexOf(t, s, negZero); got != p {
					t.Fatalf("n=%d: -0 against +0 at %d found at %d", n, p, got)
				}
			}
		}
	})
	t.Run("uncomparable interface", func(t *testing.T) {
		// Comparing two []int interface values panics, while a []int and
		// an int are simply unequal: the kernel must panic exactly when
		// the plain loop does, at any length and position.
		panics := func(f func() int) (p bool) {
			defer func() { p = recover() != nil }()
			f()
			return false
		}
		for n := 1; n <= 40; n++ {
			for p := 0; p < n; p++ {
				s := make([]any, n)
				for i := range s {
					s[i] = i
				}
				s[p] = []int{p}
				for _, v := range []any{[]int{-1}, p / 2, n} {
					kernel := panics(func() int { return indexOf(s, v) })
					plain := panics(func() int { return plainIndexOf(s, v) })
					if kernel != plain {
						t.Fatalf("n=%d, slice at %d, v=%v: kernel panics %v, plain loop %v", n, p, v, kernel, plain)
					}
					if !kernel {
						checkIndexOf(t, s, v)
					}
				}
			}
		}
	})
}

// FuzzIndexOf decodes bytes into int and float64 slices over a small
// alphabet (duplicates are common; NaN and both zeros are in it) and checks
// the kernel against the plain loop for every probe in the alphabet.
func FuzzIndexOf(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 0, 9, 10, 11, 12, 13, 14, 15, 2})
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789"))
	floats := [...]float64{0, math.Copysign(0, -1), math.NaN(), 1, -1, math.Inf(1), 0.5, 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		ints := make([]int, len(data))
		fs := make([]float64, len(data))
		for i, b := range data {
			ints[i] = int(b % 16)
			fs[i] = floats[b%8]
		}
		for v := range 17 {
			checkIndexOf(t, ints, v)
		}
		for _, v := range floats {
			checkIndexOf(t, fs, v)
		}
	})
}

var scanSink int

// BenchmarkScanSizes measures Contains, through the interfaces programs
// call it by, on the three array variants around the kernel's 8-element
// cut-over and up to the sizes where the adaptive variants switch away.
// Half the probes are present, so a probe scans about 3n/4 elements.
func BenchmarkScanSizes(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 64, 280} {
		var probes [512]int
		for i := range probes {
			probes[i] = (i * 7) % (2 * n)
		}
		l, s, m := NewArrayList[int](), NewArraySet[int](), NewArrayMap[int, int]()
		for i := range n {
			l.Add(i)
			s.Add(i)
			m.Put(i, i)
		}
		for _, c := range []struct {
			name string
			set  interface{ Contains(int) bool }
		}{{"arraylist", l}, {"arrayset", s}} {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				hits := 0
				for i := 0; b.Loop(); i++ {
					if c.set.Contains(probes[i&511]) {
						hits++
					}
				}
				scanSink = hits
			})
		}
		b.Run(fmt.Sprintf("arraymap/n=%d", n), func(b *testing.B) {
			var mi Map[int, int] = m
			hits := 0
			for i := 0; b.Loop(); i++ {
				if mi.ContainsKey(probes[i&511]) {
					hits++
				}
			}
			scanSink = hits
		})
	}
}
