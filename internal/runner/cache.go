package runner

import (
	"container/list"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"fdp/internal/obs"
	"fdp/internal/stats"
)

// DefaultCacheCapacity bounds the in-memory LRU when NewCache is given a
// non-positive capacity. A full `experiments -full` invocation issues a
// few thousand (config, workload) jobs, so the default keeps every result
// of one invocation resident.
const DefaultCacheCapacity = 8192

// Cache is a content-addressed store of finished simulation results,
// keyed by Spec.Key(): an in-memory LRU always, plus an optional on-disk
// JSON store (one file per key) that survives the process — that is what
// makes an interrupted `experiments -full` run resumable. All methods are
// safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	dir   string // "" = memory only

	// Checkpoint store (see ckpt.go): post-warmup snapshots in their own
	// small LRU and <key>.ckpt files, lazily initialized on first use.
	ckptLL    *list.List
	ckptItems map[string]*list.Element

	hits, misses, diskErrs, quarantined uint64
	// onQuarantine, when set, is called (under the cache lock) for every
	// corrupt disk entry set aside — Execute uses it to surface the
	// runner_cache_quarantined metric live.
	onQuarantine func()
}

// cacheEntry is one cached result. Runs and manifests are copied on Put
// and Get, so callers can never mutate the cached state.
type cacheEntry struct {
	key      string
	run      *stats.Run
	manifest *obs.Manifest
}

// diskEntry is the on-disk JSON layout (cacheSchema 2). Epoch pins the
// simulator semantics the result was produced under; entries from
// another epoch are misses (see Epoch). The result itself is nested as a
// raw payload covered by a CRC-32, so a bit flip anywhere in the result
// — even one that still parses as JSON — is detected and the entry
// quarantined instead of served.
type diskEntry struct {
	Schema  int             `json:"schema"`
	Epoch   int             `json:"epoch"`
	Key     string          `json:"key"`
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

// diskPayload is the CRC-covered part of a disk entry.
type diskPayload struct {
	Run      *stats.Run    `json:"run"`
	Manifest *obs.Manifest `json:"manifest,omitempty"`
}

// NewCache creates a cache holding up to capacity results in memory
// (non-positive = DefaultCacheCapacity). A non-empty dir additionally
// persists every entry as dir/<key>.json; the directory is created if
// missing.
func NewCache(capacity int, dir string) (*Cache, error) {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: cache dir: %w", err)
		}
	}
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		dir:   dir,
	}, nil
}

// Get returns the cached run (and manifest) for key. A memory miss falls
// through to the disk store when one is configured. needManifest guards
// observed consumers: an entry recorded without probes cannot satisfy a
// run that must report a manifest, so it is a miss for that caller.
// Wrong-epoch disk entries are silent misses; corrupt ones are
// quarantined (renamed to *.corrupt) and then treated as misses — Get
// itself never errors.
func (c *Cache) Get(key string, needManifest bool) (*stats.Run, *obs.Manifest, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		if !needManifest || ent.manifest != nil {
			c.ll.MoveToFront(el)
			c.hits++
			return copyRun(ent.run), copyManifest(ent.manifest), true
		}
	}
	if ent := c.loadDisk(key); ent != nil && (!needManifest || ent.manifest != nil) {
		c.install(ent)
		c.hits++
		return copyRun(ent.run), copyManifest(ent.manifest), true
	}
	c.misses++
	return nil, nil, false
}

// Put stores a finished result under key, evicting the least recently
// used in-memory entry beyond capacity and (when a directory is
// configured) persisting the entry to disk. Disk write failures degrade
// the cache, never the run; they are counted in Stats.
func (c *Cache) Put(key string, run *stats.Run, m *obs.Manifest) {
	if run == nil {
		return
	}
	ent := &cacheEntry{key: key, run: copyRun(run), manifest: copyManifest(m)}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.install(ent)
	if c.dir != "" {
		if err := c.writeDisk(ent); err != nil {
			c.diskErrs++
		}
	}
}

// install adds or replaces the in-memory entry for ent.key (caller holds
// the lock).
func (c *Cache) install(ent *cacheEntry) {
	if el, ok := c.items[ent.key]; ok {
		el.Value = ent
		c.ll.MoveToFront(el)
		return
	}
	c.items[ent.key] = c.ll.PushFront(ent)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit/miss counts and the number of failed disk
// writes.
func (c *Cache) Stats() (hits, misses, diskErrs uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.diskErrs
}

// Quarantined returns how many corrupt disk entries were set aside as
// *.corrupt files.
func (c *Cache) Quarantined() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined
}

// SetQuarantineHook registers f to be called once per quarantined entry
// (Execute wires this to the runner_cache_quarantined metric and live
// status). One hook at a time; the last call wins.
func (c *Cache) SetQuarantineHook(f func()) {
	c.mu.Lock()
	c.onQuarantine = f
	c.mu.Unlock()
}

// path returns the disk file for key.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// loadDisk reads and validates the disk entry for key, returning nil on
// any problem. The failure modes are deliberately split: a missing file
// or a valid-but-foreign entry (older schema, different epoch) is a plain
// miss, while a *corrupt* entry — unparsable JSON, a key that does not
// match the filename, or a CRC mismatch over the payload — is
// quarantined: renamed to <file>.corrupt so it is preserved for
// inspection, counted, and never consulted again.
func (c *Cache) loadDisk(key string) *cacheEntry {
	if c.dir == "" {
		return nil
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil
	}
	var d diskEntry
	if err := json.Unmarshal(b, &d); err != nil {
		c.quarantine(key)
		return nil
	}
	if d.Schema != cacheSchema || d.Epoch != Epoch {
		// A well-formed entry from another simulator version: a miss, not
		// corruption (it will be overwritten by this run's Put).
		return nil
	}
	if d.Key != key || crc32.ChecksumIEEE(d.Payload) != d.CRC {
		c.quarantine(key)
		return nil
	}
	var p diskPayload
	if err := json.Unmarshal(d.Payload, &p); err != nil || p.Run == nil {
		c.quarantine(key)
		return nil
	}
	return &cacheEntry{key: key, run: p.Run, manifest: p.Manifest}
}

// quarantine sets aside the corrupt disk entry for key (caller holds the
// lock). The rename is best-effort: if it fails the file simply stays in
// place and will be quarantined again on the next Get.
func (c *Cache) quarantine(key string) {
	c.quarantineFile(c.path(key))
}

// quarantineFile renames path to path+".corrupt" (caller holds the lock) —
// shared by result entries and checkpoint files.
func (c *Cache) quarantineFile(path string) {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		c.diskErrs++
		return
	}
	c.quarantined++
	if c.onQuarantine != nil {
		c.onQuarantine()
	}
}

// writeDisk persists ent with writeFileAtomic.
func (c *Cache) writeDisk(ent *cacheEntry) error {
	payload, err := json.Marshal(diskPayload{Run: ent.run, Manifest: ent.manifest})
	if err != nil {
		return err
	}
	b, err := json.Marshal(diskEntry{
		Schema:  cacheSchema,
		Epoch:   Epoch,
		Key:     ent.key,
		CRC:     crc32.ChecksumIEEE(payload),
		Payload: payload,
	})
	if err != nil {
		return err
	}
	return writeFileAtomic(c.path(ent.key), append(b, '\n'))
}

// writeFileAtomic publishes b at path durably: temp file in the same
// directory + fsync + rename + directory fsync. A crash mid-write leaves
// either the old file or none — never a torn one — the rename never
// publishes data the kernel hasn't flushed, and the directory fsync makes
// the rename itself survive a power loss.
func writeFileAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// copyRun deep-copies a run record so cached state cannot alias caller
// state (WindowIPC is the only reference field).
func copyRun(r *stats.Run) *stats.Run {
	if r == nil {
		return nil
	}
	cp := *r
	if r.WindowIPC != nil {
		cp.WindowIPC = append([]float64(nil), r.WindowIPC...)
	}
	return &cp
}

// copyManifest shallow-copies the manifest document. The maps inside are
// shared — consumers treat them as read-only — while the copied struct
// lets each consumer stamp its own Tool/Git fields without touching the
// cached original.
func copyManifest(m *obs.Manifest) *obs.Manifest {
	if m == nil {
		return nil
	}
	cp := *m
	return &cp
}
