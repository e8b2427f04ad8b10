package server

import (
	"container/list"
	"sync"

	"repro/internal/sql"
)

// planCache is an LRU of prepared statements keyed by SQL text. Entries
// record the catalog version they were compiled against: re-registering
// a table bumps the version, so a cached plan can never execute against
// a table object it was not bound to (same SQL text, changed catalog).
// Hit/miss/eviction counters feed GET /stats.
type planCache struct {
	mu    sync.Mutex
	max   int
	lru   *list.List // front = most recently used, values are *cacheEntry
	byKey map[string]*list.Element

	hits, misses, evictions, invalidations int64
	// staleHits counts lookups that found an entry invalidated purely by
	// a data-version advance (same catalog word): the plan was reusable
	// yesterday, but delta growth moved the statistics under it.
	staleHits int64
}

type cacheEntry struct {
	key     string
	version uint64
	prep    *sql.Prepared
}

func newPlanCache(max int) *planCache {
	if max <= 0 {
		return nil
	}
	return &planCache{max: max, lru: list.New(), byKey: make(map[string]*list.Element)}
}

// get returns the cached statement compiled at the given catalog
// version. A stale entry (older version) is dropped and counted as an
// invalidation plus a miss.
func (c *planCache) get(key string, version uint64) (*sql.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.version != version {
		c.lru.Remove(el)
		delete(c.byKey, key)
		c.invalidations++
		if e.version>>32 == version>>32 {
			c.staleHits++
		}
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.prep, true
}

// put stores a freshly compiled statement, evicting the least recently
// used entry beyond capacity.
func (c *planCache) put(key string, version uint64, prep *sql.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// A concurrent compile raced us; keep whichever entry was built
		// against the newer catalog (an older plan is never served — the
		// version check in get rejects it — but storing it would force a
		// pointless recompile).
		e := el.Value.(*cacheEntry)
		if version >= e.version {
			e.prep = prep
			e.version = version
		}
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, version: version, prep: prep})
	for c.lru.Len() > c.max {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.byKey, el.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// PlanCacheStats is the exported snapshot served by GET /stats.
type PlanCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// StaleHits counts invalidations caused by data-version advances
	// alone (ingest crossing the stats-refresh threshold), as opposed to
	// catalog changes.
	StaleHits int64   `json:"stale_hits"`
	Size      int     `json:"size"`
	Max       int     `json:"max"`
	HitRate   float64 `json:"hit_rate"`
}

func (c *planCache) stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := PlanCacheStats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Invalidations: c.invalidations,
		StaleHits: c.staleHits,
		Size:      c.lru.Len(), Max: c.max,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
