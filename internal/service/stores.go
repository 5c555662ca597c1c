package service

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// storeSeed keys the shard hash; one process-wide seed is enough — shard
// placement only needs to be stable within a process.
var storeSeed = maphash.MakeSeed()

// keyedShards is the sharded key→collection table under each store: every
// shard guards its own map with an RWMutex and evicts its oldest keys FIFO
// once past the cap. Eviction is not just a memory bound — it is what makes
// selection work in a long-lived server: the engine's finished-ratio gate
// only closes a monitoring window when monitored instances have become
// unreachable, so collections must keep dying for windows to keep closing
// and new instances to adopt switched variants.
//
// Locking contract: collection variants (and their monitor wrappers) are not
// goroutine-safe for mutation, so mutating ops run under the shard's write
// lock and read-only ops under its read lock (monitor profile counters are
// atomic, so concurrent readers are safe).
type keyedShards[K comparable, C any] struct {
	max     int // per-shard key cap; <=0 disables eviction
	evicted atomic.Int64
	created atomic.Int64
	shards  []keyedShard[K, C]
}

type keyedShard[K comparable, C any] struct {
	mu    sync.RWMutex
	m     map[K]C
	order []K // insertion order; may contain keys already removed
}

func newKeyedShards[K comparable, C any](shards, maxPerShard int) *keyedShards[K, C] {
	if shards < 1 {
		shards = 1
	}
	k := &keyedShards[K, C]{max: maxPerShard, shards: make([]keyedShard[K, C], shards)}
	for i := range k.shards {
		k.shards[i].m = make(map[K]C)
	}
	return k
}

func (k *keyedShards[K, C]) shard(key K) *keyedShard[K, C] {
	if len(k.shards) == 1 {
		return &k.shards[0]
	}
	h := maphash.Comparable(storeSeed, key)
	return &k.shards[h%uint64(len(k.shards))]
}

// read runs fn on the collection under key while holding the shard read
// lock; fn must not mutate. It reports whether the key existed.
func (k *keyedShards[K, C]) read(key K, fn func(C)) bool {
	sh := k.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.m[key]
	if ok && fn != nil {
		fn(c)
	}
	return ok
}

// write runs fn on the collection under key while holding the shard write
// lock, creating the collection via create when the key is new (and evicting
// the shard's oldest keys past the cap).
func (k *keyedShards[K, C]) write(key K, create func() C, fn func(C)) {
	sh := k.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c, ok := sh.m[key]
	if !ok {
		c = create()
		sh.m[key] = c
		sh.order = append(sh.order, key)
		k.created.Add(1)
		for k.max > 0 && len(sh.m) > k.max && len(sh.order) > 0 {
			victim := sh.order[0]
			sh.order = sh.order[1:]
			if _, live := sh.m[victim]; live {
				delete(sh.m, victim)
				k.evicted.Add(1)
			}
		}
	}
	if fn != nil {
		fn(c)
	}
}

// remove drops the whole key, reporting whether it existed. The dropped
// collection becomes unreachable — exactly the churn the monitoring windows
// feed on.
func (k *keyedShards[K, C]) remove(key K) bool {
	sh := k.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[key]; !ok {
		return false
	}
	delete(sh.m, key)
	return true
}

// keys returns the current number of live keys across all shards.
func (k *keyedShards[K, C]) keys() int {
	n := 0
	for i := range k.shards {
		sh := &k.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
