package core

import (
	"repro/internal/collections"
)

// The public allocation-context types for the three abstractions. All
// selection logic lives in siteCore (sitecore.go); the wrappers below
// contribute exactly two abstraction-specific ingredients: the
// monitor-wrapping functions and the adaptive transition threshold.

// wrapList/wrapSet/wrapMap are the siteCore wrap hooks: each builds the
// abstraction's monitor and returns it twice, as the *M whose weak reference
// signals instance death and as the collection view handed to the user. The
// Sizer assertion is resolved here, once per instance, so FootprintBytes
// never re-asserts on the hot path.
func wrapList[T comparable](inner collections.List[T], p *profile) (*monitoredList[T], collections.List[T]) {
	s, _ := inner.(collections.Sizer)
	m := &monitoredList[T]{inner: inner, sizer: s, p: p}
	return m, m
}

func wrapSet[T comparable](inner collections.Set[T], p *profile) (*monitoredSet[T], collections.Set[T]) {
	s, _ := inner.(collections.Sizer)
	m := &monitoredSet[T]{inner: inner, sizer: s, p: p}
	return m, m
}

func wrapMap[K comparable, V any](inner collections.Map[K, V], p *profile) (*monitoredMap[K, V], collections.Map[K, V]) {
	s, _ := inner.(collections.Sizer)
	m := &monitoredMap[K, V]{inner: inner, sizer: s, p: p}
	return m, m
}

// listFactories/setFactories/mapFactories flatten a variant slice into the
// (ids, factory map) pair siteCore consumes.
func listFactories[T comparable](variants []collections.ListVariant[T]) ([]collections.VariantID, map[collections.VariantID]func(int) collections.List[T]) {
	ids := make([]collections.VariantID, 0, len(variants))
	factories := make(map[collections.VariantID]func(int) collections.List[T], len(variants))
	for _, v := range variants {
		ids = append(ids, v.ID)
		factories[v.ID] = v.New
	}
	return ids, factories
}

func setFactories[T comparable](variants []collections.SetVariant[T]) ([]collections.VariantID, map[collections.VariantID]func(int) collections.Set[T]) {
	ids := make([]collections.VariantID, 0, len(variants))
	factories := make(map[collections.VariantID]func(int) collections.Set[T], len(variants))
	for _, v := range variants {
		ids = append(ids, v.ID)
		factories[v.ID] = v.New
	}
	return ids, factories
}

func mapFactories[K comparable, V any](variants []collections.MapVariant[K, V]) ([]collections.VariantID, map[collections.VariantID]func(int) collections.Map[K, V]) {
	ids := make([]collections.VariantID, 0, len(variants))
	factories := make(map[collections.VariantID]func(int) collections.Map[K, V], len(variants))
	for _, v := range variants {
		ids = append(ids, v.ID)
		factories[v.ID] = v.New
	}
	return ids, factories
}

// ListContext is an adaptive allocation context for lists. Create it once
// per allocation site (typically in a package-level variable — the paper's
// "static context") and obtain collections through NewList.
type ListContext[T comparable] struct {
	core siteCore[collections.List[T], monitoredList[T]]
}

// NewListContext registers a list allocation context with the engine. The
// default variant is ArrayList (the JDK-dominant choice reported by the
// paper's empirical study) unless overridden with WithDefaultVariant.
func NewListContext[T comparable](e *Engine, opts ...Option) *ListContext[T] {
	ids, factories := listFactories(collections.ListVariants[T]())
	o := resolveOptions(opts, collections.ArrayListID, ids, 2)
	if _, ok := factories[o.defaultVar]; !ok {
		panic("core: unknown default list variant " + string(o.defaultVar))
	}
	c := &ListContext[T]{}
	c.core.init(e, o, "list", factories, wrapList[T], collections.DefaultListThreshold)
	e.register(&c.core)
	return c
}

// NewList returns a list of the context's current variant. The first
// WindowSize instances of each monitoring round are wrapped in monitors.
func (c *ListContext[T]) NewList() collections.List[T] { return c.core.newCollection() }

// CurrentVariant returns the variant future instantiations will use.
func (c *ListContext[T]) CurrentVariant() collections.VariantID { return c.core.currentVariant() }

// Round returns the number of completed analysis rounds.
func (c *ListContext[T]) Round() int { return c.core.completedRounds() }

// Name returns the context's site label.
func (c *ListContext[T]) Name() string { return c.core.contextName() }

// SetContext is an adaptive allocation context for sets.
type SetContext[T comparable] struct {
	core siteCore[collections.Set[T], monitoredSet[T]]
}

// NewSetContext registers a set allocation context with the engine; the
// default variant is the chained HashSet.
func NewSetContext[T comparable](e *Engine, opts ...Option) *SetContext[T] {
	ids, factories := setFactories(collections.SetVariants[T]())
	o := resolveOptions(opts, collections.HashSetID, ids, 2)
	if _, ok := factories[o.defaultVar]; !ok {
		panic("core: unknown default set variant " + string(o.defaultVar))
	}
	c := &SetContext[T]{}
	c.core.init(e, o, "set", factories, wrapSet[T], collections.DefaultSetThreshold)
	e.register(&c.core)
	return c
}

// NewSet returns a set of the context's current variant, monitored while
// the window has room.
func (c *SetContext[T]) NewSet() collections.Set[T] { return c.core.newCollection() }

// CurrentVariant returns the variant future instantiations will use.
func (c *SetContext[T]) CurrentVariant() collections.VariantID { return c.core.currentVariant() }

// Round returns the number of completed analysis rounds.
func (c *SetContext[T]) Round() int { return c.core.completedRounds() }

// Name returns the context's site label.
func (c *SetContext[T]) Name() string { return c.core.contextName() }

// MapContext is an adaptive allocation context for maps.
type MapContext[K comparable, V any] struct {
	core siteCore[collections.Map[K, V], monitoredMap[K, V]]
}

// NewMapContext registers a map allocation context with the engine; the
// default variant is the chained HashMap.
func NewMapContext[K comparable, V any](e *Engine, opts ...Option) *MapContext[K, V] {
	ids, factories := mapFactories(collections.MapVariants[K, V]())
	o := resolveOptions(opts, collections.HashMapID, ids, 2)
	if _, ok := factories[o.defaultVar]; !ok {
		panic("core: unknown default map variant " + string(o.defaultVar))
	}
	c := &MapContext[K, V]{}
	c.core.init(e, o, "map", factories, wrapMap[K, V], collections.DefaultMapThreshold)
	e.register(&c.core)
	return c
}

// NewMap returns a map of the context's current variant, monitored while
// the window has room.
func (c *MapContext[K, V]) NewMap() collections.Map[K, V] { return c.core.newCollection() }

// CurrentVariant returns the variant future instantiations will use.
func (c *MapContext[K, V]) CurrentVariant() collections.VariantID { return c.core.currentVariant() }

// Round returns the number of completed analysis rounds.
func (c *MapContext[K, V]) Round() int { return c.core.completedRounds() }

// Name returns the context's site label.
func (c *MapContext[K, V]) Name() string { return c.core.contextName() }
