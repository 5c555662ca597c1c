package core

import (
	"repro/internal/collections"
)

// The WithVariants constructors admit custom candidate pools — the way the
// future-work sorted and concurrent variants (and any user-supplied
// implementation) join the selection process. The engine requires a
// performance-model curve for every candidate; the default models cover all
// variants shipped by the collections package.

// NewListContextWithVariants registers a list context whose candidate pool
// is exactly the given variants (order matters only for tie display). The
// default variant is the first entry unless WithDefaultVariant overrides it.
func NewListContextWithVariants[T comparable](e *Engine, variants []collections.ListVariant[T], opts ...Option) *ListContext[T] {
	if len(variants) == 0 {
		panic("core: NewListContextWithVariants needs at least one variant")
	}
	ids, factories := listFactories(variants)
	o := resolveOptions(opts, variants[0].ID, ids, 2)
	if _, ok := factories[o.defaultVar]; !ok {
		panic("core: default variant " + string(o.defaultVar) + " not among supplied variants")
	}
	c := &ListContext[T]{}
	c.core.init(e, o, "list", factories, wrapList[T], collections.DefaultListThreshold)
	e.register(&c.core)
	return c
}

// NewSetContextWithVariants registers a set context over a custom candidate
// pool; see NewListContextWithVariants.
func NewSetContextWithVariants[T comparable](e *Engine, variants []collections.SetVariant[T], opts ...Option) *SetContext[T] {
	if len(variants) == 0 {
		panic("core: NewSetContextWithVariants needs at least one variant")
	}
	ids, factories := setFactories(variants)
	o := resolveOptions(opts, variants[0].ID, ids, 2)
	if _, ok := factories[o.defaultVar]; !ok {
		panic("core: default variant " + string(o.defaultVar) + " not among supplied variants")
	}
	c := &SetContext[T]{}
	c.core.init(e, o, "set", factories, wrapSet[T], collections.DefaultSetThreshold)
	e.register(&c.core)
	return c
}

// NewMapContextWithVariants registers a map context over a custom candidate
// pool; see NewListContextWithVariants.
func NewMapContextWithVariants[K comparable, V any](e *Engine, variants []collections.MapVariant[K, V], opts ...Option) *MapContext[K, V] {
	if len(variants) == 0 {
		panic("core: NewMapContextWithVariants needs at least one variant")
	}
	ids, factories := mapFactories(variants)
	o := resolveOptions(opts, variants[0].ID, ids, 2)
	if _, ok := factories[o.defaultVar]; !ok {
		panic("core: default variant " + string(o.defaultVar) + " not among supplied variants")
	}
	c := &MapContext[K, V]{}
	c.core.init(e, o, "map", factories, wrapMap[K, V], collections.DefaultMapThreshold)
	e.register(&c.core)
	return c
}
