package collections

// DefaultListThreshold is the array→hash transition size for AdaptiveList,
// as derived by the paper's threshold analysis (Table 1). The analysis is
// re-runnable on this machine via the fig3 experiment.
const DefaultListThreshold = 80

// AdaptiveList is the instance-level adaptive list (paper Table 1,
// array→hash): a HashArrayList without its bag, so a plain array list, until
// the element count first exceeds the transition threshold. The instant
// transition then counts the elements into a bag sized for twice the list,
// without copying them, so that lookups stop being linear.
type AdaptiveList[T comparable] struct {
	HashArrayList[T]
	threshold int
}

// NewAdaptiveList returns an AdaptiveList with the default threshold.
func NewAdaptiveList[T comparable]() *AdaptiveList[T] {
	return NewAdaptiveListThreshold[T](DefaultListThreshold)
}

// NewAdaptiveListThreshold returns an AdaptiveList that transitions when its
// size first exceeds threshold.
func NewAdaptiveListThreshold[T comparable](threshold int) *AdaptiveList[T] {
	if threshold < 0 {
		threshold = 0
	}
	return &AdaptiveList[T]{threshold: threshold}
}

// Transitioned reports whether the instance has switched to its hash form.
func (l *AdaptiveList[T]) Transitioned() bool { return l.bag != nil }

func (l *AdaptiveList[T]) maybeTransition() {
	if l.bag == nil && len(l.elems) > l.threshold {
		l.buildBag()
	}
}

// Add appends v to the end of the list.
func (l *AdaptiveList[T]) Add(v T) {
	l.HashArrayList.Add(v)
	l.maybeTransition()
}

// Insert places v at index i.
func (l *AdaptiveList[T]) Insert(i int, v T) {
	l.HashArrayList.Insert(i, v)
	l.maybeTransition()
}

// Clear removes all elements and reverts to the array representation.
func (l *AdaptiveList[T]) Clear() {
	l.HashArrayList = HashArrayList[T]{}
}

// FootprintBytes estimates the active representation.
func (l *AdaptiveList[T]) FootprintBytes() int {
	return structBase + l.HashArrayList.FootprintBytes()
}
