package perfmodel

import (
	"iter"
	"sync"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

// A model set stores its curves pointer-free, so the collector marks its
// few heap objects without scanning them. A process keeps its model set
// live for good, and with a slice per curve and piece every forced
// collection would trace each one. A set holds:
//
//   - coef, every coefficient of every stored curve;
//   - segs, one segment per piece, locating the piece's polynomial and
//     variance polynomial in coef;
//   - index, a map from each curve's key, its names interned as numbers, to
//     the curve's run of segments.
//
// The tables only grow. Replacing a curve writes the new one past the
// written entries and repoints the index, so a Resolved handle reads the
// same bits however the set changes later. Clone copies only the curves the
// index reaches.

// names interns the variant, op and dimension names of every model set in
// the process, so a stored key is three numbers and no model set holds a
// string. A name keeps its number for the life of the process; only names
// a curve was stored under are added. The table starts with room for the
// builtin catalog's 37 names, so a process's first Default() interns them
// without growing it.
var names = struct {
	sync.RWMutex
	ids  map[string]uint32
	strs []string
}{ids: make(map[string]uint32, 64), strs: make([]string, 0, 64)}

// cell is a curve's key with each name replaced by its interned number.
type cell struct{ variant, op, dim uint32 }

// intern returns the number of s, adding s to the table if it is new.
func intern(s string) uint32 {
	if id, ok := number(s); ok {
		return id
	}
	names.Lock()
	defer names.Unlock()
	if id, ok := names.ids[s]; ok {
		return id
	}
	id := uint32(len(names.strs))
	names.ids[s] = id
	names.strs = append(names.strs, s)
	return id
}

// number returns the number of s, ok=false when s was never interned.
func number(s string) (uint32, bool) {
	names.RLock()
	defer names.RUnlock()
	id, ok := names.ids[s]
	return id, ok
}

// storeCell returns the cell of k, interning its names.
func storeCell(k key) cell {
	if c, ok := findCell(k); ok {
		return c
	}
	return cell{intern(string(k.Variant)), intern(string(k.Op)), intern(string(k.Dim))}
}

// findCell returns the cell of k without interning anything: ok is false
// when one of its names was never stored, so no model set has the curve.
func findCell(k key) (c cell, ok bool) {
	names.RLock()
	defer names.RUnlock()
	var okV, okO, okD bool
	c.variant, okV = names.ids[string(k.Variant)]
	c.op, okO = names.ids[string(k.Op)]
	c.dim, okD = names.ids[string(k.Dim)]
	return c, okV && okO && okD
}

// key returns the names c was interned from.
func (c cell) key() key {
	names.RLock()
	defer names.RUnlock()
	return key{collections.VariantID(names.strs[c.variant]), Op(names.strs[c.op]), Dimension(names.strs[c.dim])}
}

// segment is one stored piece: poly applies for sizes up to upTo, with its
// n coefficients at coef[off:] followed by the nv of its variance
// polynomial.
type segment struct {
	upTo  float64
	off   uint32
	n, nv uint32
}

// span locates a stored curve: its pieces are segs[first : first+n].
type span struct{ first, n uint32 }

// tables holds a model set's segments and coefficients. Each slice spans
// its whole array; the set's counts say how much of it is written. An
// entry is written once, past every count a handle was resolved at, and a
// set that outgrows an array copies into a new tables value rather than
// change this one, so a handle keeps reading what it resolved.
type tables struct {
	segs []segment
	coef []float64
}

// segments returns the segments of sp.
func (t *tables) segments(sp span) []segment {
	return t.segs[sp.first : sp.first+sp.n : sp.first+sp.n]
}

// polyAt returns the n coefficients at coef[off:] as a polynomial whose
// capacity is cut to its length, so appending to it cannot reach another
// piece; n == 0 gives the empty polynomial, as a piece stored without
// variance had.
func polyAt(coef []float64, off, n uint32) polyfit.Poly {
	if n == 0 {
		return polyfit.Poly{}
	}
	return polyfit.Poly{Coeffs: coef[off : off+n : off+n]}
}

// reserve makes room for exactly pieces more segments and coeffs more
// coefficients, moving to a new tables value if the current one is short.
func (m *Models) reserve(pieces, coeffs int) {
	t := m.tab
	if t == nil {
		t = &tables{}
	}
	segFree, coefFree := len(t.segs)-int(m.nseg), len(t.coef)-int(m.ncoef)
	if m.tab != nil && segFree >= pieces && coefFree >= coeffs {
		return
	}
	grown := *t
	if segFree < pieces {
		grown.segs = make([]segment, int(m.nseg)+pieces)
		copy(grown.segs, t.segs[:m.nseg])
	}
	if coefFree < coeffs {
		grown.coef = make([]float64, int(m.ncoef)+coeffs)
		copy(grown.coef, t.coef[:m.ncoef])
	}
	m.tab = &grown
}

// put packs cv, the build form every fit, combination, overlay and decode
// produces, as the curve of k, replacing any earlier one.
func (m *Models) put(k key, cv curve) {
	m.putCell(storeCell(k), cv)
}

// putCell is put for an interned key. A full table at least doubles, so a
// run of stores copies each entry a bounded number of times.
func (m *Models) putCell(c cell, cv curve) {
	pieces, coeffs := len(cv.pieces), 0
	for _, p := range cv.pieces {
		coeffs += len(p.poly.Coeffs) + len(p.vp.Coeffs)
	}
	if m.tab == nil || len(m.tab.segs)-int(m.nseg) < pieces || len(m.tab.coef)-int(m.ncoef) < coeffs {
		m.reserve(max(pieces, int(m.nseg)), max(coeffs, int(m.ncoef)))
	}
	t := m.tab
	m.index[c] = span{first: m.nseg, n: uint32(pieces)}
	for _, p := range cv.pieces {
		s := segment{upTo: p.upTo, off: m.ncoef, n: uint32(len(p.poly.Coeffs)), nv: uint32(len(p.vp.Coeffs))}
		copy(t.coef[s.off:], p.poly.Coeffs)
		copy(t.coef[s.off+s.n:], p.vp.Coeffs)
		m.ncoef += s.n + s.nv
		t.segs[m.nseg] = s
		m.nseg++
	}
}

// copyCurve writes the curve src stores at sp as m's curve of c, into room
// the caller reserved.
func (m *Models) copyCurve(c cell, src *Models, sp span) {
	t := m.tab
	m.index[c] = span{first: m.nseg, n: sp.n}
	for _, s := range src.tab.segments(sp) {
		from := s.off
		s.off = m.ncoef
		m.ncoef += uint32(copy(t.coef[s.off:], src.tab.coef[from:from+s.n+s.nv]))
		t.segs[m.nseg] = s
		m.nseg++
	}
}

// liveSize returns the segments and coefficients of the curves the index
// reaches.
func (m *Models) liveSize() (pieces, coeffs int) {
	for _, sp := range m.index {
		pieces += int(sp.n)
		for _, s := range m.tab.segments(sp) {
			coeffs += int(s.n + s.nv)
		}
	}
	return pieces, coeffs
}

// view returns the stored curve at sp in the build form, each polynomial a
// view into the coefficient table.
func (m *Models) view(sp span) curve {
	segs := m.tab.segments(sp)
	cv := curve{pieces: make([]piece, len(segs))}
	for i, s := range segs {
		cv.pieces[i] = piece{upTo: s.upTo, poly: polyAt(m.tab.coef, s.off, s.n), vp: polyAt(m.tab.coef, s.off+s.n, s.nv)}
	}
	return cv
}

// lookup returns the stored curve of k as view does.
func (m *Models) lookup(k key) (curve, bool) {
	sp, ok := m.find(k)
	if !ok {
		return curve{}, false
	}
	return m.view(sp), true
}

// all yields every stored curve as view does, in no particular order.
func (m *Models) all() iter.Seq2[key, curve] {
	return func(yield func(key, curve) bool) {
		for c, sp := range m.index {
			if !yield(c.key(), m.view(sp)) {
				return
			}
		}
	}
}
