package perfmodel

import (
	"math"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

// Energy is the cost dimension the paper names as future work (Section 7:
// "expand the performance model to other cost dimensions such as energy
// usage"). Direct energy measurement (RAPL counters, external meters — the
// instrumentation Hasan et al. used for the Java collection energy profiles
// the paper cites) is not available in this environment, so the dimension is
// *synthesized*: per-operation energy is modeled as execution time weighted
// by a data-structure power factor (pointer-chasing structures keep the
// memory subsystem busier per nanosecond than linear scans), plus an
// allocation term (each allocated byte costs GC work later). The synthesis
// preserves exactly what a selection rule needs: a consistent relative
// ordering of variants on the energy dimension.

// DimEnergy is the synthesized energy dimension, in nanojoule-equivalents.
const DimEnergy Dimension = "energy-nj"

// allocEnergyPerByte charges allocation-induced energy (allocator + GC).
const allocEnergyPerByte = 0.2

// defaultPowerFactor applies to variants without a specific entry.
const defaultPowerFactor = 1.1

// powerFactors maps variants to their relative power draw per unit time.
// Flat sequential scans are the 1.0 baseline; randomized pointer chasing
// stresses DRAM and caches hardest.
var powerFactors = map[collections.VariantID]float64{
	collections.ArrayListID:      1.0,
	collections.ArraySetID:       1.0,
	collections.ArrayMapID:       1.0,
	collections.SortedArraySetID: 1.0,
	collections.SortedArrayMapID: 1.0,

	collections.LinkedListID:    1.35,
	collections.HashSetID:       1.3,
	collections.HashMapID:       1.3,
	collections.LinkedHashSetID: 1.35,
	collections.LinkedHashMapID: 1.35,
	collections.AVLTreeSetID:    1.35,
	collections.AVLTreeMapID:    1.35,
	collections.SkipListSetID:   1.4,
	collections.SkipListMapID:   1.4,

	collections.OpenHashSetFastID: 1.08,
	collections.OpenHashMapFastID: 1.08,
	collections.OpenHashSetBalID:  1.1,
	collections.OpenHashMapBalID:  1.1,
	collections.OpenHashSetCmpID:  1.15,
	collections.OpenHashMapCmpID:  1.15,
	collections.CompactHashSetID:  1.12,
	collections.CompactHashMapID:  1.12,

	collections.HashArrayListID: 1.2,
	collections.AdaptiveListID:  1.1,
	collections.AdaptiveSetID:   1.05,
	collections.AdaptiveMapID:   1.05,
}

// PowerFactor returns the relative power draw of a variant.
func PowerFactor(v collections.VariantID) float64 {
	if f, ok := powerFactors[v]; ok {
		return f
	}
	return defaultPowerFactor
}

// SynthesizeEnergy derives the energy curves of every (variant, op) pair
// that has time and allocation curves:
//
//	energy = PowerFactor(V) · time + allocEnergyPerByte · alloc
//
// Piecewise curves (the adaptive variants') compose segment by segment.
// Both the default models and the machine-built models pass through this,
// so rules over DimEnergy (core.Renergy) work with either.
func SynthesizeEnergy(m *Models) {
	timeID, ok := number(string(DimTimeNS))
	if !ok {
		return // no model set has a time curve
	}
	allocID, hasAlloc := number(string(DimAllocB))
	energyID := intern(string(DimEnergy))
	// Collect first: inserting while ranging over a map has unspecified
	// iteration behavior.
	type pending struct {
		c  cell
		cv curve
	}
	adds := make([]pending, 0, len(m.index))
	for c, sp := range m.index {
		if c.dim != timeID {
			continue
		}
		pf := PowerFactor(c.key().Variant)
		allocCurve := curve{pieces: []piece{{upTo: math.Inf(1)}}}
		if hasAlloc {
			if asp, ok := m.index[cell{c.variant, c.op, allocID}]; ok {
				allocCurve = m.view(asp)
			}
		}
		energy := combine(m.view(sp), allocCurve, func(pt, pa polyfit.Poly) polyfit.Poly {
			return polyfit.Add(polyfit.Scale(pt, pf), polyfit.Scale(pa, allocEnergyPerByte))
		})
		adds = append(adds, pending{cell{c.variant, c.op, energyID}, energy})
	}
	for _, a := range adds {
		m.putCell(a.c, a.cv)
	}
}
