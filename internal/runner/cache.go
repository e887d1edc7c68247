package runner

import (
	"sync"

	"tm3270/internal/config"
	"tm3270/internal/workloads"
)

// cacheKey identifies one compilation: the workload registry name, the
// parameter set it was built with, and the full target configuration.
// Params and Target are plain comparable structs, so a sweep that
// mutates cache geometry or frequency gets its own entries even when
// the target name collides.
type cacheKey struct {
	name   string
	params workloads.Params
	target config.Target
}

// cacheEntry memoizes one compilation and the spec it was compiled
// from. The once gives singleflight semantics: concurrent requests for
// the same key share a single build instead of duplicating the work.
type cacheEntry struct {
	once sync.Once
	spec *workloads.Spec
	art  *Artifact
	err  error
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Hits     int64 // lookups served from a completed or in-flight compile
	Misses   int64 // lookups that created the entry (and ran the compile)
	Failures int64 // entries whose compile failed (counted once per key)
}

// Cache memoizes workload specs and their compile artifacts by
// (workload name, params, target). Both are immutable values: one
// cached spec and artifact back every run of their key, concurrent
// runs included, and each run still owns its image, machine and
// telemetry. The zero value is not usable; use NewCache. All methods
// are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	entries  map[cacheKey]*cacheEntry
	hits     int64
	misses   int64
	failures int64
}

// NewCache returns an empty artifact cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// Lookup returns the named workload's spec and its compilation for
// the target, building both at most once per key. hit is true when the
// lookup was served by an existing (completed or in-flight) entry,
// false when this call created the entry and ran the build; the
// service's request span trees annotate the compile stage with it.
func (c *Cache) Lookup(name string, p workloads.Params, t config.Target) (w *workloads.Spec, art *Artifact, hit bool, err error) {
	key := cacheKey{name: name, params: p, target: t}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.spec, e.err = workloads.ByName(name, p)
		if e.err == nil {
			e.art, e.err = CompileWorkload(e.spec, t)
		}
	})
	// once.Do returns only after the build completed, so e.err is
	// stable here for every caller; the creator records the failure.
	if !ok && e.err != nil {
		c.mu.Lock()
		c.failures++
		c.mu.Unlock()
	}
	return e.spec, e.art, ok, e.err
}

// Stats returns the cache's hit/miss counts.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Failures: c.failures}
}

// Len returns the number of cached compilations (failed ones included).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
