package cache

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/stats"
)

// The reference model below keeps every piece of per-expert state in
// maps, the straightforward shape the dense tables replace. The
// differential tests drive both with the same random operations and
// require identical victims, hits, misses and residency.

type refPolicy interface {
	touch(id moe.ExpertID)
	admit(id moe.ExpertID)
	forget(id moe.ExpertID)
	victim(candidates []moe.ExpertID) moe.ExpertID
	observe(layer int, scores []float64)
}

type refLRU struct {
	clock int64
	last  map[moe.ExpertID]int64
}

func (p *refLRU) touch(id moe.ExpertID)  { p.clock++; p.last[id] = p.clock }
func (p *refLRU) admit(id moe.ExpertID)  { p.touch(id) }
func (p *refLRU) forget(id moe.ExpertID) { delete(p.last, id) }
func (p *refLRU) observe(int, []float64) {}
func (p *refLRU) victim(cands []moe.ExpertID) moe.ExpertID {
	return refMin(cands, func(a, b moe.ExpertID) bool { return p.last[a] < p.last[b] })
}

type refLFU struct {
	clock       int64
	count, last map[moe.ExpertID]int64
}

func (p *refLFU) touch(id moe.ExpertID)  { p.count[id]++; p.clock++; p.last[id] = p.clock }
func (p *refLFU) admit(id moe.ExpertID)  { p.touch(id) }
func (p *refLFU) forget(moe.ExpertID)    {}
func (p *refLFU) observe(int, []float64) {}
func (p *refLFU) victim(cands []moe.ExpertID) moe.ExpertID {
	return refMin(cands, func(a, b moe.ExpertID) bool {
		if p.count[a] != p.count[b] {
			return p.count[a] < p.count[b]
		}
		return p.last[a] < p.last[b]
	})
}

type refMRS struct {
	alpha float64
	topP  int
	prio  map[moe.ExpertID]float64
}

func (p *refMRS) touch(moe.ExpertID)  {}
func (p *refMRS) admit(moe.ExpertID)  {}
func (p *refMRS) forget(moe.ExpertID) {}
func (p *refMRS) victim(cands []moe.ExpertID) moe.ExpertID {
	return refMin(cands, func(a, b moe.ExpertID) bool { return p.prio[a] < p.prio[b] })
}
func (p *refMRS) observe(layer int, scores []float64) {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	inTop := map[int]bool{}
	for _, e := range idx[:min(p.topP, len(scores))] {
		inTop[e] = true
	}
	for e, v := range scores {
		id := moe.ExpertID{Layer: layer, Index: e}
		if !inTop[e] {
			v = 0
		}
		p.prio[id] = p.alpha*v + (1-p.alpha)*p.prio[id]
	}
}

// refMin returns the candidate smallest under less, ties broken by
// expert ID, whatever the candidates' order.
func refMin(cands []moe.ExpertID, less func(a, b moe.ExpertID) bool) moe.ExpertID {
	best := cands[0]
	for _, c := range cands[1:] {
		if less(c, best) || (!less(best, c) && idLess(c, best)) {
			best = c
		}
	}
	return best
}

type refShard struct {
	capacity         int
	policy           refPolicy
	resident, pinned map[moe.ExpertID]bool
	hits, misses     int64
}

func (s *refShard) insert(id moe.ExpertID, protected func(moe.ExpertID) bool) (evicted []moe.ExpertID, ok bool) {
	if s.resident[id] {
		return nil, true
	}
	for len(s.resident) >= s.capacity {
		var cands []moe.ExpertID
		for r := range s.resident {
			if !s.pinned[r] && (protected == nil || !protected(r)) {
				cands = append(cands, r)
			}
		}
		if len(cands) == 0 {
			return evicted, false
		}
		v := s.policy.victim(cands)
		delete(s.resident, v)
		s.policy.forget(v)
		evicted = append(evicted, v)
	}
	s.resident[id] = true
	s.policy.admit(id)
	return evicted, true
}

func (s *refShard) pin(id moe.ExpertID) bool {
	if _, ok := s.insert(id, nil); !ok {
		return false
	}
	s.pinned[id] = true
	return true
}

// refMulti mirrors Multi over reference shards; with one shard it is
// the bare Cache's semantics.
type refMulti struct {
	shards []*refShard
	cursor int
}

func (m *refMulti) owner(id moe.ExpertID) (int, bool) {
	for d, s := range m.shards {
		if s.resident[id] {
			return d, true
		}
	}
	return 0, false
}

func (m *refMulti) lookup(id moe.ExpertID, home int) bool {
	if d, ok := m.owner(id); ok {
		m.shards[d].hits++
		m.shards[d].policy.touch(id)
		return true
	}
	m.shards[home].misses++
	return false
}

func (m *refMulti) insert(id moe.ExpertID, d int, protected func(moe.ExpertID) bool) ([]moe.ExpertID, bool) {
	if _, ok := m.owner(id); ok {
		return nil, true
	}
	return m.shards[d].insert(id, protected)
}

func (m *refMulti) pin(id moe.ExpertID) bool {
	if d, ok := m.owner(id); ok {
		return m.shards[d].pin(id)
	}
	for i := range m.shards {
		d := (m.cursor + i) % len(m.shards)
		if m.shards[d].pin(id) {
			m.cursor = (d + 1) % len(m.shards)
			return true
		}
	}
	return false
}

func (m *refMulti) warm(ids []moe.ExpertID) int {
	n := 0
	for _, id := range ids {
		if _, ok := m.owner(id); ok {
			continue
		}
		admitted := false
		for i := range m.shards {
			d := (m.cursor + i) % len(m.shards)
			if s := m.shards[d]; len(s.resident) < s.capacity {
				s.resident[id] = true
				s.policy.admit(id)
				m.cursor = (d + 1) % len(m.shards)
				admitted = true
				n++
				break
			}
		}
		if !admitted {
			break
		}
	}
	return n
}

func (m *refMulti) touchHistorical(id moe.ExpertID) {
	d, _ := m.owner(id)
	m.shards[d].policy.touch(id)
}

// denseSubject adapts the bare Cache (one shard, device ignored) and
// Multi to one operation set.
type denseSubject interface {
	Lookup(id moe.ExpertID, home int) bool
	Insert(id moe.ExpertID, d int, protected func(moe.ExpertID) bool) ([]moe.ExpertID, bool)
	Pin(id moe.ExpertID) bool
	Warm(ids []moe.ExpertID) int
	TouchHistorical(id moe.ExpertID)
	ObserveScores(layer int, scores []float64)
	Owner(id moe.ExpertID) (int, bool)
	shard(d int) *Cache
}

type singleSubject struct{ *Cache }

func (s singleSubject) Lookup(id moe.ExpertID, _ int) bool { return s.Cache.Lookup(id) }
func (s singleSubject) Insert(id moe.ExpertID, _ int, protected func(moe.ExpertID) bool) ([]moe.ExpertID, bool) {
	return s.Cache.Insert(id, protected)
}
func (s singleSubject) Owner(id moe.ExpertID) (int, bool) { return 0, s.Contains(id) }
func (s singleSubject) shard(int) *Cache                  { return s.Cache }

type multiSubject struct{ *Multi }

func (m multiSubject) shard(d int) *Cache { return m.Shard(d) }

const (
	diffLayers  = 3
	diffExperts = 9
)

// newDiffPair builds the dense subject and its reference over the same
// policy kind and shard capacities.
func newDiffPair(policy string, caps []int) (denseSubject, *refMulti) {
	ref := &refMulti{}
	var shards []*Cache
	for _, c := range caps {
		var dp Policy
		var rp refPolicy
		switch policy {
		case "LRU":
			dp, rp = NewLRU(), &refLRU{last: map[moe.ExpertID]int64{}}
		case "LFU":
			dp, rp = NewLFU(), &refLFU{count: map[moe.ExpertID]int64{}, last: map[moe.ExpertID]int64{}}
		case "MRS":
			dp, rp = NewMRS(DefaultAlpha, 3), &refMRS{alpha: DefaultAlpha, topP: 3, prio: map[moe.ExpertID]float64{}}
		}
		shards = append(shards, New(c, dp))
		ref.shards = append(ref.shards, &refShard{capacity: c, policy: rp,
			resident: map[moe.ExpertID]bool{}, pinned: map[moe.ExpertID]bool{}})
	}
	if len(shards) == 1 {
		return singleSubject{shards[0]}, ref
	}
	return multiSubject{NewMulti(shards...)}, ref
}

func fmtIDs(ids []moe.ExpertID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestDenseCacheMatchesMapReference drives the dense cache and the
// map-backed reference with random Insert/Lookup/Pin/Warm/protected
// sequences under every policy, on one shard and on a 2-shard Multi.
func TestDenseCacheMatchesMapReference(t *testing.T) {
	for _, policy := range []string{"LRU", "LFU", "MRS"} {
		for _, caps := range [][]int{{5}, {4, 3}} {
			for seed := uint64(1); seed <= 20; seed++ {
				t.Run(fmt.Sprintf("%s/%dshard/seed%d", policy, len(caps), seed), func(t *testing.T) {
					checkDenseAgainstRef(t, policy, caps, seed)
				})
			}
		}
	}
}

func checkDenseAgainstRef(t *testing.T, policy string, caps []int, seed uint64) {
	rng := stats.NewRNG(seed)
	dense, ref := newDiffPair(policy, caps)
	randID := func() moe.ExpertID {
		return moe.ExpertID{Layer: rng.Intn(diffLayers), Index: rng.Intn(diffExperts)}
	}
	// The protected set is one layer's "activated" experts, redrawn
	// now and then, as the engine protects the current layer.
	protLayer, prot := 0, make([]bool, diffExperts)
	protected := func(id moe.ExpertID) bool { return id.Layer == protLayer && prot[id.Index] }
	pins := 0
	for op := 0; op < 400; op++ {
		switch k := rng.Intn(10); {
		case k < 3:
			id, d := randID(), rng.Intn(len(caps))
			var p func(moe.ExpertID) bool
			if rng.Intn(2) == 0 {
				p = protected
			}
			gotEv, gotOK := dense.Insert(id, d, p)
			wantEv, wantOK := ref.insert(id, d, p)
			if gotOK != wantOK || fmtIDs(gotEv) != fmtIDs(wantEv) {
				t.Fatalf("op %d Insert(%v, %d): evicted %s ok %v, reference %s ok %v",
					op, id, d, fmtIDs(gotEv), gotOK, fmtIDs(wantEv), wantOK)
			}
		case k < 6:
			id, home := randID(), rng.Intn(len(caps))
			if got, want := dense.Lookup(id, home), ref.lookup(id, home); got != want {
				t.Fatalf("op %d Lookup(%v): %v, reference %v", op, id, got, want)
			}
		case k == 6:
			// Leave each shard room for unpinned traffic.
			if pins < 2 {
				id := randID()
				got, want := dense.Pin(id), ref.pin(id)
				if got != want {
					t.Fatalf("op %d Pin(%v): %v, reference %v", op, id, got, want)
				}
				if got {
					pins++
				}
			}
		case k == 7:
			ids := make([]moe.ExpertID, 1+rng.Intn(4))
			for i := range ids {
				ids[i] = randID()
			}
			if got, want := dense.Warm(ids), ref.warm(ids); got != want {
				t.Fatalf("op %d Warm(%s): %d, reference %d", op, fmtIDs(ids), got, want)
			}
		case k == 8:
			// Scores from a few levels, so top-p ties are common.
			layer := rng.Intn(diffLayers)
			scores := make([]float64, diffExperts)
			for i := range scores {
				scores[i] = float64(rng.Intn(4)) / 4
			}
			dense.ObserveScores(layer, scores)
			for _, s := range ref.shards {
				s.policy.observe(layer, scores)
			}
			protLayer = layer
			for i := range prot {
				prot[i] = scores[i] >= 0.75
			}
		default:
			id := randID()
			dense.TouchHistorical(id)
			ref.touchHistorical(id)
		}
		for d, s := range ref.shards {
			got := dense.shard(d)
			if got.Len() != len(s.resident) || got.Hits() != s.hits || got.Misses() != s.misses {
				t.Fatalf("op %d shard %d: len %d hits %d misses %d, reference %d %d %d",
					op, d, got.Len(), got.Hits(), got.Misses(), len(s.resident), s.hits, s.misses)
			}
		}
		for l := 0; l < diffLayers; l++ {
			for e := 0; e < diffExperts; e++ {
				id := moe.ExpertID{Layer: l, Index: e}
				gd, gok := dense.Owner(id)
				wd, wok := ref.owner(id)
				if gok != wok || (gok && gd != wd) {
					t.Fatalf("op %d Owner(%v): %d %v, reference %d %v", op, id, gd, gok, wd, wok)
				}
				if wok && dense.shard(wd).Pinned(id) != ref.shards[wd].pinned[id] {
					t.Fatalf("op %d Pinned(%v) differs from reference", op, id)
				}
			}
		}
	}
}

// TestInvalidIDPanicsNamingIt guards the dense tables: a negative layer
// or index must panic with a message naming the ID, not with a bare
// index-out-of-range from deep inside a table.
func TestInvalidIDPanicsNamingIt(t *testing.T) {
	bad := []moe.ExpertID{{Layer: -1, Index: 0}, {Layer: 0, Index: -2}, {Layer: -3, Index: -4}}
	ops := []struct {
		name string
		fn   func(c *Cache, id moe.ExpertID)
	}{
		{"Insert", func(c *Cache, id moe.ExpertID) { c.Insert(id, nil) }},
		{"Pin", func(c *Cache, id moe.ExpertID) { c.Pin(id) }},
		{"Warm", func(c *Cache, id moe.ExpertID) { c.Warm([]moe.ExpertID{id}) }},
		{"Lookup", func(c *Cache, id moe.ExpertID) { c.Lookup(id) }},
		{"Multi.Insert", func(c *Cache, id moe.ExpertID) { NewMulti(c).Insert(id, 0, nil) }},
		{"Multi.Pin", func(c *Cache, id moe.ExpertID) { NewMulti(c).Pin(id) }},
		{"Multi.Warm", func(c *Cache, id moe.ExpertID) { NewMulti(c).Warm([]moe.ExpertID{id}) }},
		{"Multi.Lookup", func(c *Cache, id moe.ExpertID) { NewMulti(c).Lookup(id, 0) }},
	}
	for _, op := range ops {
		for _, id := range bad {
			t.Run(op.name+"/"+id.String(), func(t *testing.T) {
				c := New(4, NewMRS(DefaultAlpha, 2))
				defer func() {
					r := recover()
					msg, _ := r.(string)
					if r == nil || !strings.Contains(msg, id.String()) {
						t.Fatalf("%s(%v) panicked with %v, want a message naming %v", op.name, id, r, id)
					}
					if c.Len() != 0 || c.Hits() != 0 || c.Misses() != 0 {
						t.Fatalf("%s(%v) changed the cache before panicking", op.name, id)
					}
				}()
				op.fn(c, id)
			})
		}
	}
}
