package store

import (
	"container/list"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"powder/internal/obs"
)

// CacheEntry is one cached optimization outcome: everything needed to
// answer a duplicate submission without touching the worker pool.
type CacheEntry struct {
	// Key is the content address: the structural hash of the submitted
	// circuit combined with the effective option set (the serving layer
	// defines the exact derivation).
	Key     string `json:"key"`
	Circuit string `json:"circuit,omitempty"`
	// Result and Ledger are opaque serving-layer JSON.
	Result     json.RawMessage `json:"result,omitempty"`
	ResultBLIF []byte          `json:"result_blif,omitempty"`
	Ledger     json.RawMessage `json:"ledger,omitempty"`
	CreatedAt  time.Time       `json:"created_at"`
}

// Cache is a bounded LRU of optimization results, content-addressed by
// cache key. With a directory it persists each entry as one JSON file
// (written atomically) and reloads them on open; with an empty
// directory it is memory-only. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	dir     string // "" = memory-only
	max     int
	entries map[string]*list.Element // -> *CacheEntry, lru order
	lru     *list.List               // front = most recently used
	log     *slog.Logger

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

// OpenCache builds a cache bounded to max entries (<= 0: 1024). dir may
// be empty for a memory-only cache; otherwise existing entries are
// loaded, oldest-first so the LRU order survives restarts (unreadable
// entry files are deleted, not trusted). reg receives the hit/miss/
// eviction counters (nil: dropped).
func OpenCache(dir string, max int, reg *obs.Registry, log *slog.Logger) (*Cache, error) {
	if max <= 0 {
		max = 1024
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if log == nil {
		log = slog.Default()
	}
	c := &Cache{
		dir:       dir,
		max:       max,
		entries:   make(map[string]*list.Element),
		lru:       list.New(),
		log:       log,
		hits:      reg.Counter("store.cache.hits"),
		misses:    reg.Counter("store.cache.misses"),
		evictions: reg.Counter("store.cache.evictions"),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := c.load(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// entryPath is the on-disk location of a key's entry file.
func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// load scans the cache directory into the LRU, oldest mtime first.
func (c *Cache) load() error {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	type onDisk struct {
		path string
		mod  time.Time
	}
	var files []onDisk
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		info, ierr := de.Info()
		if ierr != nil {
			continue
		}
		files = append(files, onDisk{filepath.Join(c.dir, de.Name()), info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for _, f := range files {
		b, rerr := os.ReadFile(f.path)
		var e CacheEntry
		if rerr != nil || json.Unmarshal(b, &e) != nil || e.Key == "" {
			// An entry file is pure derived data: deleting a damaged one
			// is always safe and self-healing.
			c.log.Warn("store: removing unreadable cache entry", "path", f.path)
			_ = os.Remove(f.path)
			continue
		}
		c.insertLocked(&e)
	}
	return nil
}

// insertLocked puts an entry at the front of the LRU, evicting from the
// back past the bound. Callers hold mu (or are in single-threaded open).
func (c *Cache) insertLocked(e *CacheEntry) {
	if el, ok := c.entries[e.Key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[e.Key] = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		old := back.Value.(*CacheEntry)
		c.lru.Remove(back)
		delete(c.entries, old.Key)
		c.evictions.Inc()
		if c.dir != "" {
			_ = os.Remove(c.entryPath(old.Key))
		}
	}
}

// Get returns the entry for key, refreshing its recency. The second
// return distinguishes a hit from a miss; both are counted.
func (c *Cache) Get(key string) (*CacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Inc()
	e := el.Value.(*CacheEntry)
	if c.dir != "" {
		// Refresh the file's mtime so LRU recency survives a restart.
		now := time.Now()
		_ = os.Chtimes(c.entryPath(key), now, now)
	}
	return e, true
}

// Put stores an entry, persisting it when the cache is disk-backed. A
// persistence failure downgrades the entry to memory-only with a
// warning — caching is an optimization, never a reason to fail a job.
func (c *Cache) Put(e *CacheEntry) {
	if e == nil || e.Key == "" {
		return
	}
	if e.CreatedAt.IsZero() {
		e.CreatedAt = time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dir != "" {
		if err := c.persist(e); err != nil {
			c.log.Warn("store: cache entry not persisted", "key", e.Key, "err", err)
		}
	}
	c.insertLocked(e)
}

// persist writes an entry file atomically (temp + rename).
func (c *Cache) persist(e *CacheEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	tmp := c.entryPath(e.Key) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.entryPath(e.Key)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(c.dir)
	return nil
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Errors are ignored: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
