package cache

import (
	"fmt"

	"hybrimoe/internal/moe"
)

// Cache is the GPU-resident expert set with a capacity measured in
// experts (the paper's "GPU expert cache ratio" × total routed experts).
// It tracks hits and misses and delegates replacement to a Policy.
//
// Pinned experts (kTransformers-style static placement) count against
// capacity but are never evicted.
type Cache struct {
	capacity int
	policy   Policy
	// resident lists the resident experts in no particular order;
	// slot[l][e] is 1 + expert (l, e)'s position in it, or 0 when the
	// expert is absent. Removal swaps the last entry into the hole.
	resident []moe.ExpertID
	slot     [][]int32
	// pinned[l][e] marks a pinned expert; npinned counts them, so the
	// victim scan of a cache without pins skips the lookup.
	pinned  [][]bool
	npinned int
	// candidates is pickVictim's reused scratch.
	candidates []moe.ExpertID

	hits   int64
	misses int64
}

// New returns an empty cache. Capacity 0 is a valid degenerate cache
// (every lookup misses, every insert fails) — the zero-cache baseline.
// Panics on negative capacity or nil policy.
func New(capacity int, policy Policy) *Cache {
	if capacity < 0 {
		panic(fmt.Sprintf("cache: capacity %d must be non-negative", capacity))
	}
	if policy == nil {
		panic("cache: nil policy")
	}
	return &Cache{capacity: capacity, policy: policy}
}

// Capacity reports the maximum resident expert count.
func (c *Cache) Capacity() int { return c.capacity }

// Len reports the current resident expert count (including pinned).
func (c *Cache) Len() int { return len(c.resident) }

// Policy exposes the replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// Contains reports residency without touching hit/miss accounting.
func (c *Cache) Contains(id moe.ExpertID) bool { return at(c.slot, id) != 0 }

// add appends id to the resident list. The caller checked it is absent.
func (c *Cache) add(id moe.ExpertID) {
	c.resident = append(c.resident, id)
	*cell(&c.slot, id) = int32(len(c.resident))
}

// remove swap-removes a resident id from the resident list.
func (c *Cache) remove(id moe.ExpertID) {
	i := c.slot[id.Layer][id.Index] - 1
	last := c.resident[len(c.resident)-1]
	c.resident[i] = last
	c.slot[last.Layer][last.Index] = i + 1
	c.resident = c.resident[:len(c.resident)-1]
	c.slot[id.Layer][id.Index] = 0
}

// Lookup reports residency and updates hit/miss statistics and the
// policy's recency state. Use it on the serving path; use Contains for
// planning lookups that must not skew statistics.
func (c *Cache) Lookup(id moe.ExpertID) bool {
	checkID(id)
	if c.Contains(id) {
		c.hits++
		c.policy.Touch(id)
		return true
	}
	c.misses++
	return false
}

// Insert makes id resident, evicting victims as needed. protected, when
// non-nil, marks experts that must not be evicted right now (e.g. the
// current layer's activated experts). It returns the evicted experts
// and reports whether the insert succeeded; inserting fails only when
// every resident expert is pinned or protected.
func (c *Cache) Insert(id moe.ExpertID, protected func(moe.ExpertID) bool) (evicted []moe.ExpertID, ok bool) {
	checkID(id)
	if c.Contains(id) {
		return nil, true
	}
	for len(c.resident) >= c.capacity {
		victim, found := c.pickVictim(protected)
		if !found {
			return evicted, false
		}
		c.remove(victim)
		c.policy.Forget(victim)
		evicted = append(evicted, victim)
	}
	c.add(id)
	c.policy.Admit(id)
	return evicted, true
}

func (c *Cache) pickVictim(protected func(moe.ExpertID) bool) (moe.ExpertID, bool) {
	candidates := c.candidates[:0]
	for _, id := range c.resident {
		if (c.npinned > 0 && at(c.pinned, id)) || (protected != nil && protected(id)) {
			continue
		}
		candidates = append(candidates, id)
	}
	c.candidates = candidates
	if len(candidates) == 0 {
		return moe.ExpertID{}, false
	}
	// Policies tie-break on expert ID, so the resident list's
	// swap-remove order never influences the chosen victim.
	return c.policy.Victim(candidates), true
}

// Pin marks id as permanently resident, inserting it if absent. It
// fails (returns false) when the cache is full of other pinned experts.
func (c *Cache) Pin(id moe.ExpertID) bool {
	checkID(id)
	if !c.Contains(id) {
		if _, ok := c.Insert(id, nil); !ok {
			return false
		}
	}
	if p := cell(&c.pinned, id); !*p {
		*p = true
		c.npinned++
	}
	return true
}

// Pinned reports whether id is pinned.
func (c *Cache) Pinned(id moe.ExpertID) bool { return at(c.pinned, id) }

// ObserveScores forwards one iteration's routing scores for a layer to
// the policy (MRS uses them; LRU/LFU ignore them).
func (c *Cache) ObserveScores(layer int, scores []float64) {
	c.policy.ObserveScores(layer, scores)
}

// TouchHistorical records a historical access in the policy without
// touching residency or hit/miss statistics. Warm-up replays the
// history window through it so frequency/recency policies start with
// the state a long-running server would have, instead of treating every
// warm expert as a one-hit wonder.
func (c *Cache) TouchHistorical(id moe.ExpertID) { c.policy.Touch(id) }

// Hits reports the lookup hit count.
func (c *Cache) Hits() int64 { return c.hits }

// Misses reports the lookup miss count.
func (c *Cache) Misses() int64 { return c.misses }

// HitRate reports hits/(hits+misses), or 0 before any lookup.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// ResetStats clears hit/miss counters without touching residency, so
// experiments can exclude warm-up from measurements.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Warm fills the cache with ids (stopping at capacity) without counting
// statistics, for experiment warm starts. It reports how many were
// admitted.
func (c *Cache) Warm(ids []moe.ExpertID) int {
	n := 0
	for _, id := range ids {
		checkID(id)
		if len(c.resident) >= c.capacity {
			break
		}
		if c.Contains(id) {
			continue
		}
		c.add(id)
		c.policy.Admit(id)
		n++
	}
	return n
}
