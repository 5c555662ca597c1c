package collections

// This file maps the module's zero-argument constructor functions to the
// catalog variants they instantiate. The rewrite pipeline (internal/rewrite
// and its front end cmd/collopt) recognizes allocation sites through this
// table instead of a hard-coded constructor list, so a variant registered
// with WithConstructor is discovered — and rewritable — exactly like the
// builtins.
//
// Only no-argument constructors appear here: a call that passes a capacity
// hint or a preset (NewArrayListCap, NewOpenHashSetPreset, NewSyncSet, ...)
// is an explicit, parameterized choice the paper's parser leaves alone.

// builtinConstructor returns the zero-argument constructor name of a builtin
// variant, "" when the variant has none (the preset- and capacity-taking
// concurrent constructors).
func builtinConstructor(id VariantID) string {
	switch id {
	case ArrayListID:
		return "NewArrayList"
	case LinkedListID:
		return "NewLinkedList"
	case HashArrayListID:
		return "NewHashArrayList"
	case AdaptiveListID:
		return "NewAdaptiveList"
	case HashSetID:
		return "NewHashSet"
	case OpenHashSetBalID:
		return "NewOpenHashSet" // the no-arg form uses the balanced preset
	case LinkedHashSetID:
		return "NewLinkedHashSet"
	case ArraySetID:
		return "NewArraySet"
	case CompactHashSetID:
		return "NewCompactHashSet"
	case AdaptiveSetID:
		return "NewAdaptiveSet"
	case HashMapID:
		return "NewHashMap"
	case OpenHashMapBalID:
		return "NewOpenHashMap"
	case LinkedHashMapID:
		return "NewLinkedHashMap"
	case ArrayMapID:
		return "NewArrayMap"
	case CompactHashMapID:
		return "NewCompactHashMap"
	case AdaptiveMapID:
		return "NewAdaptiveMap"
	case AVLTreeSetID:
		return "NewAVLTreeSet"
	case SkipListSetID:
		return "NewSkipListSet"
	case SortedArraySetID:
		return "NewSortedArraySet"
	case AVLTreeMapID:
		return "NewAVLTreeMap"
	case SkipListMapID:
		return "NewSkipListMap"
	case SortedArrayMapID:
		return "NewSortedArrayMap"
	}
	return ""
}

// WithConstructor names the zero-argument constructor function a custom
// variant is instantiated through, making its allocation sites recognizable
// to the source-rewriting pipeline.
func WithConstructor(name string) RegisterOption {
	return func(e *Entry) { e.Constructor = name }
}

// ConstructorIndex returns the constructor-name → catalog-entry mapping of
// the current catalog snapshot. The map is rebuilt per call from one atomic
// snapshot read; callers that process many sites (the rewriter) should build
// it once per run and reuse it.
func ConstructorIndex() map[string]Entry {
	s := snapshot()
	out := make(map[string]Entry, len(s.entries))
	for _, e := range s.entries {
		if e.Constructor != "" {
			out[e.Constructor] = e
		}
	}
	return out
}
