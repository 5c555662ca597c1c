package collections

// indexOf returns the index of the first element of s equal to v, or -1. It
// is the one linear scan behind the array-backed variants: ArrayList,
// ArraySet, ArrayMap, HashArrayList and the array phases of the adaptive
// variants. It keeps the semantics of == applied in index order: the first
// occurrence wins, NaN never matches, -0 matches +0, and an interface value
// whose dynamic type is not comparable panics at the element a plain loop
// would panic at.
//
// The main loop compares 8 elements per iteration with one back-edge, so a
// long scan spends an eighth of a one-compare loop's branches on loop
// control, and its speed depends far less on where the linker places the
// loop relative to a 64-byte line. Reslicing s keeps every index provably in
// bounds, so the loop carries no bounds checks. Slices under 8 elements, and
// the tail of longer ones, take the plain loop.
//
// The function is too large to inline, so each scan costs one call. A form
// that inlines its under-8 loop and calls out only for longer slices does
// not fit the compiler's inlining budget either, and a method holding such a
// call is too large to inline into the interface wrapper programs call
// through, so it would not spare small sets the call.
func indexOf[T comparable](s []T, v T) int {
	i := 0
	for ; len(s) >= 8; s = s[8:] {
		if s[0] == v {
			return i
		}
		if s[1] == v {
			return i + 1
		}
		if s[2] == v {
			return i + 2
		}
		if s[3] == v {
			return i + 3
		}
		if s[4] == v {
			return i + 4
		}
		if s[5] == v {
			return i + 5
		}
		if s[6] == v {
			return i + 6
		}
		if s[7] == v {
			return i + 7
		}
		i += 8
	}
	for j, e := range s {
		if e == v {
			return i + j
		}
	}
	return -1
}
