package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Capacities of the two cache levels: a plan entry retains a whole
// core.Query, and an application has far fewer query shapes than texts. A
// shape takes two level-2 entries, its lifted key and the fingerprint of its
// texts (one, unless they differ in more than literal values), so level 2
// holds 256 shapes.
const (
	planCacheCap     = 1024
	templateCacheCap = 512
)

// clock is a string-keyed cache of fixed capacity with second-chance
// eviction: a put into a full cache advances the hand past slots hit since it
// last passed, clearing their bits, and takes the first other one. A hit
// holds the mutex for the map read only and sets its bit atomically after.
type clock[V comparable] struct {
	mu       sync.Mutex
	slots    map[string]*slot[V]
	ring     []*slot[V] // at most capacity, in insertion order; hand sweeps it
	hand     int
	capacity int
}

// slot is immutable but for ref; a changed value gets a new slot.
type slot[V comparable] struct {
	key string
	val V
	pos int // index in ring
	ref atomic.Bool
}

func newClock[V comparable](capacity int) *clock[V] {
	return &clock[V]{slots: map[string]*slot[V]{}, capacity: capacity}
}

func (c *clock[V]) get(key string) (v V, ok bool) {
	c.mu.Lock()
	s := c.slots[key]
	c.mu.Unlock()
	if s == nil {
		return v, false
	}
	if !s.ref.Load() {
		s.ref.Store(true)
	}
	return s.val, true
}

// put caches v under key: in the key's slot, else a free one, else a victim's.
func (c *clock[V]) put(key string, v V) {
	s := &slot[V]{key: key, val: v}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch old := c.slots[key]; {
	case old != nil:
		s.pos = old.pos
	case len(c.ring) < c.capacity:
		s.pos = len(c.ring)
		c.ring = append(c.ring, nil)
	default:
		for c.ring[c.hand].ref.Swap(false) {
			c.hand = (c.hand + 1) % c.capacity
		}
		s.pos = c.hand
		c.hand = (c.hand + 1) % c.capacity
		// A removed key's slot stays in the ring until the hand takes it;
		// by then the key may be cached again in another slot.
		if victim := c.ring[s.pos]; c.slots[victim.key] == victim {
			delete(c.slots, victim.key)
		}
	}
	c.ring[s.pos] = s
	c.slots[key] = s
}

// remove drops key if it still holds v.
func (c *clock[V]) remove(key string, v V) {
	c.mu.Lock()
	if s := c.slots[key]; s != nil && s.val == v {
		delete(c.slots, key)
	}
	c.mu.Unlock()
}

func (c *clock[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// templates is cache level 2, the core.TemplateCache of an engine: each
// template under its lifted key and under the fingerprints of the texts
// prepared from it.
type templates struct {
	cache *clock[*core.Template]
	// hits counts prepares that took a cached rewritten template, fpHits
	// those of them that took it by fingerprint, planReuses those that took
	// its plan, fpFallbacks those whose fingerprint was cached but that took
	// the full path.
	hits, fpHits, planReuses, fpFallbacks atomic.Int64
}

func (t *templates) Template(key []byte) *core.Template {
	v, _ := t.cache.get(string(key))
	return v
}

func (t *templates) Put(key []byte, v *core.Template) { t.cache.put(string(key), v) }

// count adds a prepare's reuse to the counters.
func (t *templates) count(r core.Reuse) {
	if r&core.FromTemplate != 0 {
		t.hits.Add(1)
	}
	if r&core.FromFingerprint != 0 {
		t.fpHits.Add(1)
	}
	if r&core.FromPlan != 0 {
		t.planReuses.Add(1)
	}
	if r&core.Fallback != 0 {
		t.fpFallbacks.Add(1)
	}
}
