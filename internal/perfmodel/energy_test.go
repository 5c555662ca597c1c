package perfmodel

import (
	"math"
	"testing"

	"repro/internal/collections"
)

func TestEnergyDimensionInDimensions(t *testing.T) {
	found := false
	for _, d := range Dimensions() {
		if d == DimEnergy {
			found = true
		}
	}
	if !found {
		t.Fatal("DimEnergy missing from Dimensions()")
	}
}

func TestDefaultIncludesEnergyCurves(t *testing.T) {
	m := Default()
	for _, info := range collections.AllVariantInfos() {
		for _, op := range Ops() {
			if !m.Has(info.ID, op, DimEnergy) {
				t.Errorf("missing energy curve %s/%s", info.ID, op)
			}
		}
	}
	for _, info := range collections.ExtensionVariantInfos() {
		for _, op := range Ops() {
			if !m.Has(info.ID, op, DimEnergy) {
				t.Errorf("missing extension energy curve %s/%s", info.ID, op)
			}
		}
	}
}

func TestEnergySynthesisFormula(t *testing.T) {
	m := Default()
	// energy = PowerFactor·time + 0.2·alloc, verified pointwise.
	for _, v := range []collections.VariantID{
		collections.HashSetID, collections.ArraySetID, collections.AVLTreeSetID,
	} {
		pf := PowerFactor(v)
		for _, s := range []float64{50, 500} {
			timeC := m.Cost(v, OpPopulate, DimTimeNS, s)
			allocC := m.Cost(v, OpPopulate, DimAllocB, s)
			want := pf*timeC + allocEnergyPerByte*allocC
			got := m.Cost(v, OpPopulate, DimEnergy, s)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Errorf("%s energy at %g = %g, want %g", v, s, got, want)
			}
		}
	}
}

func TestPowerFactorOrdering(t *testing.T) {
	// Pointer-chasing structures must draw more than flat arrays.
	if PowerFactor(collections.LinkedListID) <= PowerFactor(collections.ArrayListID) {
		t.Error("linked list power <= array list")
	}
	if PowerFactor(collections.HashSetID) <= PowerFactor(collections.OpenHashSetFastID) {
		t.Error("chained hash power <= open hash")
	}
	// Unknown variants get the default.
	if PowerFactor("bogus/variant") != defaultPowerFactor {
		t.Error("unknown variant did not get the default power factor")
	}
}

func TestDefaultCoversExtensionVariants(t *testing.T) {
	m := Default()
	for _, info := range collections.ExtensionVariantInfos() {
		for _, op := range Ops() {
			for _, dim := range Dimensions() {
				if !m.Has(info.ID, op, dim) {
					t.Errorf("missing extension curve %s/%s/%s", info.ID, op, dim)
				}
			}
		}
	}
}

func TestExtensionModelShapes(t *testing.T) {
	m := Default()
	// Tree lookups grow slower than array-set scans.
	avlSmall := m.Cost(collections.AVLTreeSetID, OpContains, DimTimeNS, 50)
	avlLarge := m.Cost(collections.AVLTreeSetID, OpContains, DimTimeNS, 1000)
	arrLarge := m.Cost(collections.ArraySetID, OpContains, DimTimeNS, 1000)
	if avlLarge >= arrLarge {
		t.Errorf("AVL contains at 1000 (%g) should beat ArraySet scan (%g)", avlLarge, arrLarge)
	}
	if avlLarge > 4*avlSmall {
		t.Errorf("AVL contains grows too fast: %g -> %g", avlSmall, avlLarge)
	}
	// Sorted array keeps array-level footprint.
	saFoot := m.Cost(collections.SortedArraySetID, OpPopulate, DimFootprint, 500)
	avlFoot := m.Cost(collections.AVLTreeSetID, OpPopulate, DimFootprint, 500)
	if saFoot >= avlFoot {
		t.Errorf("sorted array footprint (%g) should undercut AVL (%g)", saFoot, avlFoot)
	}
	// Sync wrapper costs more time than its bare inner preset.
	syncC := m.Cost(collections.SyncSetID, OpContains, DimTimeNS, 500)
	bareC := m.Cost(collections.OpenHashSetBalID, OpContains, DimTimeNS, 500)
	if syncC <= bareC {
		t.Errorf("sync contains (%g) should cost more than bare (%g)", syncC, bareC)
	}
}

func TestBuilderModelsGetEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("builder benchmarks are slow")
	}
	built, err := quickLists()
	if err != nil {
		t.Fatal(err)
	}
	m := built.Clone()
	SynthesizeEnergy(m)
	for _, v := range collections.ListVariants[int]() {
		if !m.Has(v.ID, OpContains, DimEnergy) {
			t.Errorf("measured models missing energy curve for %s", v.ID)
		}
	}
}
