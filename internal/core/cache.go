package core

import (
	"fmt"
	"sync"

	"repro/internal/physical"
)

// RequestCache memoizes the per-statement optimal configuration fragments
// derived by the §2 instrumented optimization. The fragment for a
// statement depends only on the catalog (schema + statistics, captured
// by its fingerprint), the statement text, and whether views are
// enabled — so across successive tuning sessions over an evolving
// workload (the online retuning path), statements that were already
// seen can reuse their fragment and cost zero additional optimizer
// calls.
//
// Because the key includes the catalog fingerprint, one RequestCache
// may be shared by sessions over *different* databases — the fleet
// case, where N tenants tune concurrently: tenants with identical
// catalogs and overlapping statement shapes reuse each other's
// fragments, while tenants whose statistics differ never collide.
// Lookups carry the session's origin (Options.CacheOrigin, typically a
// tenant ID), so hits on entries stored by a different origin are
// counted separately as shared hits — the measurable proof of
// cross-tenant reuse.
//
// A RequestCache is safe for concurrent use by any number of sessions.
type RequestCache struct {
	mu    sync.Mutex
	frags map[string]*fragEntry

	hits, misses           int64
	sharedHits             int64
	callsSaved, callsSpent int64
	origins                map[string]*OriginStats
}

// fragEntry is one cached fragment plus the optimizer calls that were
// spent deriving it (the amount a cache hit saves) and the origin that
// stored it (for shared-hit attribution).
type fragEntry struct {
	cfg    *physical.Configuration
	calls  int64
	origin string
}

// NewRequestCache returns an empty cache.
func NewRequestCache() *RequestCache {
	return &RequestCache{
		frags:   map[string]*fragEntry{},
		origins: map[string]*OriginStats{},
	}
}

// OriginStats attributes cache activity to one origin (tenant).
// SharedHits counts this origin's hits on entries another origin
// stored — the cross-tenant reuse an isolated process could never get.
type OriginStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	SharedHits int64 `json:"shared_hits"`
}

// CacheStats is a point-in-time snapshot of cache activity.
type CacheStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// SharedHits counts hits whose entry was stored by a different
	// origin than the one looking it up (cross-tenant reuse).
	SharedHits int64 `json:"shared_hits"`
	// CallsSaved is the cumulative optimizer calls avoided by hits;
	// CallsSpent the calls invested building the cached fragments.
	CallsSaved int64 `json:"calls_saved"`
	CallsSpent int64 `json:"calls_spent"`
	// Origins breaks hits/misses/shared hits down per origin; empty
	// origins (single-tenant sessions) accumulate under "".
	Origins map[string]OriginStats `json:"origins,omitempty"`
}

// Stats returns a snapshot of the cache counters.
func (c *RequestCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	origins := make(map[string]OriginStats, len(c.origins))
	for k, v := range c.origins {
		origins[k] = *v
	}
	return CacheStats{
		Entries:    len(c.frags),
		Hits:       c.hits,
		Misses:     c.misses,
		SharedHits: c.sharedHits,
		CallsSaved: c.callsSaved,
		CallsSpent: c.callsSpent,
		Origins:    origins,
	}
}

// originLocked returns the per-origin accounting slot. Callers hold
// c.mu.
func (c *RequestCache) originLocked(origin string) *OriginStats {
	os, ok := c.origins[origin]
	if !ok {
		os = &OriginStats{}
		c.origins[origin] = os
	}
	return os
}

// Len returns the number of cached fragments.
func (c *RequestCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frags)
}

// lookup returns an independent copy of the cached fragment for key
// plus the optimizer calls the hit saves, attributing the hit or miss
// to origin. A hit on an entry stored by a different origin
// additionally counts as a shared hit.
func (c *RequestCache) lookup(key, origin string) (*physical.Configuration, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	os := c.originLocked(origin)
	e, ok := c.frags[key]
	if !ok {
		c.misses++
		os.Misses++
		return nil, 0, false
	}
	c.hits++
	os.Hits++
	if e.origin != origin {
		c.sharedHits++
		os.SharedHits++
	}
	c.callsSaved += e.calls
	return deepCloneConfig(e.cfg), e.calls, true
}

// store records the fragment derived for key at a cost of calls optimizer
// invocations, tagged with the storing origin. The fragment is copied,
// so the caller may keep mutating it.
func (c *RequestCache) store(key string, frag *physical.Configuration, calls int64, origin string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.frags[key]; ok {
		return
	}
	c.frags[key] = &fragEntry{cfg: deepCloneConfig(frag), calls: calls, origin: origin}
	c.callsSpent += calls
}

// deepCloneConfig copies a configuration down to its indexes and views so
// no structure is shared across sessions (sessions may set estimated
// cardinalities on views they own).
func deepCloneConfig(cfg *physical.Configuration) *physical.Configuration {
	out := physical.NewConfiguration()
	for _, v := range cfg.Views() {
		out.AddView(v.Clone())
	}
	for _, ix := range cfg.Indexes() {
		// NewIndex rather than Clone: the rebuilt copy carries a sealed
		// identity cache, so configurations assembled from cached fragments
		// keep allocation-free ID lookups on the search hot path.
		out.AddIndex(physical.NewIndex(ix.Table, ix.Keys, ix.Suffix, ix.Clustered))
	}
	return out
}

// cacheKey identifies one statement's fragment: same catalog (schema +
// statistics, via the fingerprint), same statement text, same view
// setting → same optimal fragment. Keying on the fingerprint rather
// than the database name is what lets a fleet of tenants share one
// cache safely: two tenants named "tpch" at different scale factors
// hash apart, while identical catalogs hash together and reuse.
func (t *Tuner) cacheKey(tq *TunedQuery) string {
	return fmt.Sprintf("%s|noviews=%v|%s", t.DB.Fingerprint(), t.Options.NoViews, tq.Query.SQL)
}
