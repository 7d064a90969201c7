package runner

import (
	"container/list"
	"context"
	"encoding/json"
	"hash/crc32"
	"os"
	"sync"
)

// Checkpoint store: the runner side of fast-forward warmup. A checkpoint
// is the serialized post-warmup core state (core.Snapshot bytes) keyed by
// Spec.CheckpointKey() — workload identity, warmup budget and the
// training-relevant configuration subset. It lives next to the result
// cache (same directory, same quarantine discipline) but in its own
// <key>.ckpt files with its own envelope, because its lifecycle differs:
// a result answers one spec, a checkpoint seeds every spec of a timing
// sweep over one workload.

// ckptSchema versions the on-disk checkpoint envelope and the snapshot
// layout inside it. The Epoch field pins simulator semantics exactly like
// result entries do: training semantics changes regenerate goldens, bump
// Epoch, and orphan stale checkpoints into silent misses. Schema 2 added
// the oracle's position to the snapshot; schema-1 files are silent misses.
const ckptSchema = 2

// ckptMemCapacity bounds in-memory checkpoints. They are megabytes each
// (full predictor tables plus cache tag state), so the resident set is
// kept small; a sweep touches one or a handful of keys at a time anyway.
const ckptMemCapacity = 8

// ckptDiskEntry is the on-disk JSON envelope of one checkpoint. Data is
// the raw core snapshot (base64 in JSON) covered by CRC, so bit flips are
// detected here — before the snapshot decoder ever sees the bytes — and
// quarantined exactly like corrupt result entries.
type ckptDiskEntry struct {
	Schema int    `json:"schema"`
	Epoch  int    `json:"epoch"`
	Key    string `json:"key"`
	CRC    uint32 `json:"crc"`
	Data   []byte `json:"data"`
}

// ckptMemEntry is one in-memory checkpoint.
type ckptMemEntry struct {
	key  string
	data []byte
}

// GetCheckpoint returns the stored post-warmup snapshot for key. A memory
// miss falls through to the disk store when one is configured. Wrong
// schema/epoch entries are silent misses; unparsable, mislabeled or
// CRC-failing files are quarantined (renamed to *.corrupt) and treated as
// misses — like Get, this never errors.
func (c *Cache) GetCheckpoint(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ckptItems[key]; ok {
		c.ckptLL.MoveToFront(el)
		return append([]byte(nil), el.Value.(*ckptMemEntry).data...), true
	}
	if data := c.loadCkptDisk(key); data != nil {
		c.installCkpt(&ckptMemEntry{key: key, data: data})
		return append([]byte(nil), data...), true
	}
	return nil, false
}

// PutCheckpoint stores the snapshot under key, in memory and (when a
// directory is configured) on disk. Disk write failures degrade the
// store, never the run.
func (c *Cache) PutCheckpoint(key string, data []byte) {
	if len(data) == 0 {
		return
	}
	ent := &ckptMemEntry{key: key, data: append([]byte(nil), data...)}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.installCkpt(ent)
	if c.dir != "" {
		if err := c.writeCkptDisk(key, ent.data); err != nil {
			c.diskErrs++
		}
	}
}

// installCkpt adds or replaces the in-memory checkpoint (caller holds the
// lock), evicting LRU entries beyond ckptMemCapacity.
func (c *Cache) installCkpt(ent *ckptMemEntry) {
	if c.ckptItems == nil {
		c.ckptItems = make(map[string]*list.Element)
		c.ckptLL = list.New()
	}
	if el, ok := c.ckptItems[ent.key]; ok {
		el.Value = ent
		c.ckptLL.MoveToFront(el)
		return
	}
	c.ckptItems[ent.key] = c.ckptLL.PushFront(ent)
	for c.ckptLL.Len() > ckptMemCapacity {
		oldest := c.ckptLL.Back()
		c.ckptLL.Remove(oldest)
		delete(c.ckptItems, oldest.Value.(*ckptMemEntry).key)
	}
}

// ckptPath returns the disk file for a checkpoint key.
func (c *Cache) ckptPath(key string) string {
	return c.path(key) + ".ckpt"
}

// loadCkptDisk reads and validates the checkpoint for key, returning nil
// on any problem (caller holds the lock). Failure modes mirror loadDisk:
// missing file or foreign schema/epoch = miss; unparsable JSON, key
// mismatch or CRC mismatch = quarantine then miss.
func (c *Cache) loadCkptDisk(key string) []byte {
	if c.dir == "" {
		return nil
	}
	b, err := os.ReadFile(c.ckptPath(key))
	if err != nil {
		return nil
	}
	var d ckptDiskEntry
	if err := json.Unmarshal(b, &d); err != nil {
		c.quarantineFile(c.ckptPath(key))
		return nil
	}
	if d.Schema != ckptSchema || d.Epoch != Epoch {
		return nil
	}
	if d.Key != key || crc32.ChecksumIEEE(d.Data) != d.CRC || len(d.Data) == 0 {
		c.quarantineFile(c.ckptPath(key))
		return nil
	}
	return d.Data
}

// writeCkptDisk persists the checkpoint with writeFileAtomic (caller
// holds the lock).
func (c *Cache) writeCkptDisk(key string, data []byte) error {
	b, err := json.Marshal(ckptDiskEntry{
		Schema: ckptSchema,
		Epoch:  Epoch,
		Key:    key,
		CRC:    crc32.ChecksumIEEE(data),
		Data:   data,
	})
	if err != nil {
		return err
	}
	return writeFileAtomic(c.ckptPath(key), append(b, '\n'))
}

// ckptGroup deduplicates concurrent checkpoint builds within one Execute
// call: when N jobs of a sweep share one CheckpointKey and none is cached
// yet, exactly one job fast-forwards (the builder) while the others wait
// and restore from its snapshot. A failed builder wakes the waiters to
// retry — the next one through becomes the builder — so a build failure
// never strands a sweep.
type ckptGroup struct {
	mu    sync.Mutex
	calls map[string]*ckptCall
}

// ckptCall is one in-flight build. done is closed by finish/fail; data is
// valid only after done is closed and is nil when the builder failed.
type ckptCall struct {
	done chan struct{}
	data []byte
}

func newCkptGroup() *ckptGroup {
	return &ckptGroup{calls: make(map[string]*ckptCall)}
}

// acquire resolves the checkpoint for key: from the cache (restore
// returned, build false), by electing the caller as builder (restore nil,
// build true — the caller MUST later call finish or fail exactly once),
// or by waiting on the in-flight builder. Waiting honours ctx.
func (g *ckptGroup) acquire(ctx context.Context, cache *Cache, key string) (restore []byte, build bool, err error) {
	for {
		if data, ok := cache.GetCheckpoint(key); ok {
			return data, false, nil
		}
		g.mu.Lock()
		call, inflight := g.calls[key]
		if !inflight {
			g.calls[key] = &ckptCall{done: make(chan struct{})}
			g.mu.Unlock()
			return nil, true, nil
		}
		g.mu.Unlock()
		select {
		case <-call.done:
			if call.data != nil {
				return call.data, false, nil
			}
			// Builder failed; loop — either the cache has it by now (a
			// later builder finished) or this caller becomes the builder.
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// finish publishes the builder's snapshot to its waiters. Call after
// PutCheckpoint so late arrivals that missed the group hit the cache.
func (g *ckptGroup) finish(key string, data []byte) {
	g.mu.Lock()
	call := g.calls[key]
	delete(g.calls, key)
	g.mu.Unlock()
	if call != nil {
		call.data = data
		close(call.done)
	}
}

// fail wakes the waiters empty-handed; each retries acquire.
func (g *ckptGroup) fail(key string) {
	g.mu.Lock()
	call := g.calls[key]
	delete(g.calls, key)
	g.mu.Unlock()
	if call != nil {
		close(call.done)
	}
}
