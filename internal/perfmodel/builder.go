package perfmodel

import (
	"math/rand"
	"testing"

	"repro/internal/collections"
	"repro/internal/obs"
	"repro/internal/polyfit"
)

// This file is the empirical model builder of Section 4.1: it measures every
// collection variant under every (critical operation × size) cell of the
// factorial plan and fits the cost polynomials. It plays the role JMH plays
// in the paper, using testing.Benchmark for steady-state timing and
// allocation profiling (ns/op and B/op).
//
// The driver is generic: it measures whatever collections.BenchTarget
// adapters the catalog hands it, so a user-registered variant is benchmarked
// by the same code path as the builtins (BuildLists/BuildSets/BuildMaps are
// thin projections over the catalog's default candidates).

// Builder runs the benchmark plan and produces Models.
type Builder struct {
	Plan Plan
	// Progress, if non-nil, receives a line per completed (variant, op)
	// pair — cmd/perfmodel wires this to stderr.
	Progress func(variant collections.VariantID, op Op)
	// Sink, if non-nil, receives an obs.BenchmarkProgress event per
	// completed (variant, op) pair with done/total counts.
	Sink obs.Sink
	// rng drives the uniform data distribution of Table 3.
	seed int64
	// progress counters across one Build run.
	done, total int
}

// NewBuilder returns a Builder over the given plan.
func NewBuilder(plan Plan) *Builder { return &Builder{Plan: plan, seed: 1} }

// sample is one measured cell of the factorial plan.
type sample struct {
	size  int
	ns    float64 // time per op (populate: per full population)
	alloc float64 // bytes allocated per op
}

// fit fits one dimension of a sample series with GCV-selected ridge
// regularization, so the stored curve carries its prediction variance.
func (b *Builder) fit(samples []sample, pick func(sample) float64) (polyfit.FitResult, error) {
	s := polyfit.NewSamples(len(samples))
	for _, sm := range samples {
		s.Add(float64(sm.size), pick(sm))
	}
	return polyfit.FitGCV(s, b.Plan.Degree)
}

// keysFor returns n distinct uniformly shuffled int keys, plus a probe set
// mixing present and absent keys (the uniform distribution of Table 3).
func keysFor(n int, seed int64) (keys, probes []int) {
	r := rand.New(rand.NewSource(seed))
	keys = r.Perm(n * 2)[:n] // values in [0, 2n): half the domain present
	probes = make([]int, 256)
	for i := range probes {
		probes[i] = r.Intn(n * 2)
	}
	return keys, probes
}

// benchNs runs fn under testing.Benchmark with allocation reporting and
// returns ns/op and B/op. Warm-up iterations run first, unmeasured
// (Section 4.1.2 methodology).
func (b *Builder) bench(warm func(), fn func(bi *testing.B)) (ns, alloc float64) {
	for i := 0; i < b.Plan.WarmupIters; i++ {
		warm()
	}
	res := testing.Benchmark(func(bi *testing.B) {
		bi.ReportAllocs()
		fn(bi)
	})
	return float64(res.NsPerOp()), float64(res.AllocedBytesPerOp())
}

// Build measures the given benchmark targets and returns their models
// (without the synthesized energy dimension; see SynthesizeEnergy).
func (b *Builder) Build(targets []collections.BenchTarget) (*Models, error) {
	b.done, b.total = 0, len(targets)*len(Ops())
	m := NewModels()
	for _, t := range targets {
		if err := b.buildTarget(m, t); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// buildTarget measures one variant across the factorial plan through its
// catalog bench adapter.
func (b *Builder) buildTarget(m *Models, t collections.BenchTarget) error {
	all := map[Op][]sample{}
	foot := make([]sample, 0, len(b.Plan.Sizes))
	for _, size := range b.Plan.Sizes {
		keys, probes := keysFor(size, b.seed)

		// populate: per full population to size (the adapter populates).
		ns, alloc := b.bench(func() { t.Adapter(keys) }, func(bi *testing.B) {
			for i := 0; i < bi.N; i++ {
				t.Adapter(keys)
			}
		})
		all[OpPopulate] = append(all[OpPopulate], sample{size, ns, alloc})

		h := t.Adapter(keys)
		// contains: per call at size, probing present and absent keys.
		ns, alloc = b.bench(func() { h.Contains(probes[0]) }, func(bi *testing.B) {
			for i := 0; i < bi.N; i++ {
				h.Contains(probes[i%len(probes)])
			}
		})
		all[OpContains] = append(all[OpContains], sample{size, ns, alloc})

		// iterate: per full traversal at size.
		ns, alloc = b.bench(func() {}, func(bi *testing.B) {
			for i := 0; i < bi.N; i++ {
				h.Iterate()
			}
		})
		all[OpIterate] = append(all[OpIterate], sample{size, ns, alloc})

		// middle: the abstraction's size-preserving middle mutation.
		ns, alloc = b.bench(func() {}, func(bi *testing.B) {
			for i := 0; i < bi.N; i++ {
				h.Middle()
			}
		})
		all[OpMiddle] = append(all[OpMiddle], sample{size, ns, alloc})

		if fp, ok := h.Footprint(); ok {
			foot = append(foot, sample{size, float64(fp), 0})
		}
	}
	return b.store(m, t.ID, all, foot)
}

// BuildLists measures every default list candidate and returns their models.
func (b *Builder) BuildLists() (*Models, error) {
	return b.Build(collections.BenchTargets(collections.ListAbstraction))
}

// BuildSets measures every default set candidate and returns their models.
func (b *Builder) BuildSets() (*Models, error) {
	return b.Build(collections.BenchTargets(collections.SetAbstraction))
}

// BuildMaps measures every default map candidate and returns their models.
func (b *Builder) BuildMaps() (*Models, error) {
	return b.Build(collections.BenchTargets(collections.MapAbstraction))
}

// fitSamples fits one dimension of a sample series; for adaptive variants
// it fits the two representation regimes separately (their cost functions
// kink at the transition threshold), falling back to a single fit when a
// regime has too few samples.
func (b *Builder) fitSamples(m *Models, id collections.VariantID, op Op, dim Dimension, samples []sample, pick func(sample) float64) error {
	if collections.IsAdaptive(id) {
		thr := float64(collections.AdaptiveThresholdOf(id))
		var below, above []sample
		for _, s := range samples {
			if float64(s.size) <= thr {
				below = append(below, s)
			} else {
				above = append(above, s)
			}
		}
		if len(below) >= 2 && len(above) >= 2 {
			fitSeg := func(seg []sample) (polyfit.FitResult, error) {
				degree := b.Plan.Degree
				if degree > len(seg)-1 {
					degree = len(seg) - 1
				}
				s := polyfit.NewSamples(len(seg))
				for _, sm := range seg {
					s.Add(float64(sm.size), pick(sm))
				}
				return polyfit.FitGCV(s, degree)
			}
			pb, err := fitSeg(below)
			if err != nil {
				return err
			}
			pa, err := fitSeg(above)
			if err != nil {
				return err
			}
			m.SetPiecewiseWithVar(id, op, dim, thr, pb.Poly, pb.VarPoly(), pa.Poly, pa.VarPoly())
			return nil
		}
	}
	r, err := b.fit(samples, pick)
	if err != nil {
		return err
	}
	m.SetWithVar(id, op, dim, r.Poly, r.VarPoly())
	return nil
}

// store fits and records the curves of one variant.
func (b *Builder) store(m *Models, id collections.VariantID, all map[Op][]sample, foot []sample) error {
	for op, samples := range all {
		if err := b.fitSamples(m, id, op, DimTimeNS, samples, func(s sample) float64 { return s.ns }); err != nil {
			return err
		}
		if err := b.fitSamples(m, id, op, DimAllocB, samples, func(s sample) float64 { return s.alloc }); err != nil {
			return err
		}
		b.done++
		if b.Progress != nil {
			b.Progress(id, op)
		}
		if b.Sink != nil {
			b.Sink.Emit(obs.BenchmarkProgress{
				Variant: string(id), Op: string(op), Done: b.done, Total: b.total,
			})
		}
	}
	if len(foot) > 0 {
		for _, op := range b.Plan.Ops {
			if err := b.fitSamples(m, id, op, DimFootprint, foot, func(s sample) float64 { return s.ns }); err != nil {
				return err
			}
		}
	}
	return nil
}
