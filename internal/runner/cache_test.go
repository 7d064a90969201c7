package runner

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fdp/internal/obs"
	"fdp/internal/stats"
)

func testRun(workload string, cycles uint64) *stats.Run {
	return &stats.Run{
		Config:       "test",
		Workload:     workload,
		Cycles:       cycles,
		Instructions: 2 * cycles,
		WindowIPC:    []float64{1.5, 2.0},
	}
}

func TestCacheHitMiss(t *testing.T) {
	c, err := NewCache(4, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get("k1", false); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k1", testRun("a", 100), nil)
	run, m, ok := c.Get("k1", false)
	if !ok || run == nil || m != nil {
		t.Fatalf("Get = (%v, %v, %v), want run hit without manifest", run, m, ok)
	}
	if run.Cycles != 100 || run.Workload != "a" {
		t.Fatalf("wrong cached run: %+v", run)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// TestCacheIsolation asserts mutating a returned run cannot corrupt the
// cached copy (and vice versa for the stored run).
func TestCacheIsolation(t *testing.T) {
	c, _ := NewCache(4, "")
	orig := testRun("a", 100)
	c.Put("k", orig, nil)
	orig.Cycles = 999
	orig.WindowIPC[0] = -1

	got, _, _ := c.Get("k", false)
	if got.Cycles != 100 || got.WindowIPC[0] != 1.5 {
		t.Fatalf("cache aliased caller state: %+v", got)
	}
	got.WindowIPC[1] = -2
	again, _, _ := c.Get("k", false)
	if again.WindowIPC[1] != 2.0 {
		t.Fatal("cache aliased returned state")
	}
}

// TestCacheNeedManifest: an entry stored without a manifest cannot serve
// an observed consumer.
func TestCacheNeedManifest(t *testing.T) {
	c, _ := NewCache(4, "")
	c.Put("k", testRun("a", 1), nil)
	if _, _, ok := c.Get("k", true); ok {
		t.Fatal("manifest-less entry served an observed consumer")
	}
	m := &obs.Manifest{Schema: obs.ManifestSchema, Workload: "a"}
	c.Put("k", testRun("a", 1), m)
	if _, got, ok := c.Get("k", true); !ok || got == nil || got.Workload != "a" {
		t.Fatalf("manifest entry not served: ok=%v m=%+v", ok, got)
	}
}

func TestCacheEviction(t *testing.T) {
	c, _ := NewCache(2, "")
	c.Put("k1", testRun("a", 1), nil)
	c.Put("k2", testRun("b", 2), nil)
	if _, _, ok := c.Get("k1", false); !ok { // k1 now most recent
		t.Fatal("k1 missing before eviction")
	}
	c.Put("k3", testRun("c", 3), nil) // evicts k2 (least recently used)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, _, ok := c.Get("k2", false); ok {
		t.Fatal("k2 survived eviction")
	}
	for _, k := range []string{"k1", "k3"} {
		if _, _, ok := c.Get(k, false); !ok {
			t.Fatalf("%s was evicted, want k2", k)
		}
	}
}

// TestCacheDiskRoundTrip: a second cache over the same directory serves
// results simulated by the first — the resume path.
func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &obs.Manifest{Schema: obs.ManifestSchema, Workload: "a", Counters: map[string]uint64{"run.cycles": 100}}
	c1.Put("k", testRun("a", 100), m)

	c2, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	run, gotM, ok := c2.Get("k", true)
	if !ok {
		t.Fatal("disk entry not found by fresh cache")
	}
	if run.Cycles != 100 || run.WindowIPC[1] != 2.0 {
		t.Fatalf("disk run corrupted: %+v", run)
	}
	if gotM == nil || gotM.Counters["run.cycles"] != 100 {
		t.Fatalf("disk manifest corrupted: %+v", gotM)
	}
}

// TestCacheDiskWritesLeaveNoTemp: a result Put and a PutCheckpoint on a
// disk cache each publish exactly their final file; the temp files they
// write through are renamed away, never left behind.
func TestCacheDiskWritesLeaveNoTemp(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", testRun("a", 100), nil)
	c.PutCheckpoint("k", []byte("post-warmup state bytes"))
	if _, _, errs := c.Stats(); errs != 0 {
		t.Fatalf("%d disk write errors", errs)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if want := []string{"k.json", "k.json.ckpt"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("cache dir holds %q, want %q", names, want)
	}
}

// writeRawEntry builds a well-formed v2 disk entry for key under the
// given schema/epoch/embedded key and writes it to dir.
func writeRawEntry(t *testing.T, dir, file, embeddedKey string, schema, epoch int, run *stats.Run) {
	t.Helper()
	payload, err := json.Marshal(diskPayload{Run: run})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(diskEntry{
		Schema:  schema,
		Epoch:   epoch,
		Key:     embeddedKey,
		CRC:     crc32.ChecksumIEEE(payload),
		Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, file+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheCorruptDiskEntry: garbage on disk is quarantined (renamed to
// *.corrupt, counted, hook fired) and treated as a miss, never a
// failure; a subsequent Put repairs it.
func TestCacheCorruptDiskEntry(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(4, dir)
	var hooked int
	c.SetQuarantineHook(func() { hooked++ })
	if err := os.WriteFile(filepath.Join(dir, "k.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get("k", false); ok {
		t.Fatal("corrupt entry served")
	}
	if got := c.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	if hooked != 1 {
		t.Fatalf("quarantine hook fired %d times, want 1", hooked)
	}
	if _, err := os.Stat(filepath.Join(dir, "k.json.corrupt")); err != nil {
		t.Fatalf("corrupt entry not set aside: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "k.json")); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still in place: %v", err)
	}
	c.Put("k", testRun("a", 7), nil)
	c2, _ := NewCache(4, dir)
	if run, _, ok := c2.Get("k", false); !ok || run.Cycles != 7 {
		t.Fatal("Put did not repair the corrupt entry")
	}
}

// TestCacheTruncatedDiskEntry: an entry cut short mid-write (as by a
// crash on a filesystem without atomic rename) is quarantined.
func TestCacheTruncatedDiskEntry(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(4, dir)
	c.Put("k", testRun("a", 9), nil)
	p := filepath.Join(dir, "k.json")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c2, _ := NewCache(4, dir)
	if _, _, ok := c2.Get("k", false); ok {
		t.Fatal("truncated entry served")
	}
	if got := c2.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
}

// TestCacheBitFlippedDiskEntry: a single flipped bit inside the payload
// — which can still parse as valid JSON — is caught by the CRC and
// quarantined rather than served as a wrong result.
func TestCacheBitFlippedDiskEntry(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(4, dir)
	c.Put("k", testRun("a", 100), nil)
	p := filepath.Join(dir, "k.json")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside a digit of the payload: "cycles":100 becomes a
	// different, still-valid number, so only the CRC can catch it.
	i := bytes.LastIndexByte(b, '1')
	if i < 0 {
		t.Fatal("no digit to flip")
	}
	b[i] ^= 0x02 // '1' -> '3'
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, _ := NewCache(4, dir)
	if _, _, ok := c2.Get("k", false); ok {
		t.Fatal("bit-flipped entry served")
	}
	if got := c2.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	if _, err := os.Stat(p + ".corrupt"); err != nil {
		t.Fatalf("bit-flipped entry not set aside: %v", err)
	}
}

// TestCacheEpochMismatch: well-formed entries written under another
// simulator epoch or cache schema are plain misses — not corruption, so
// nothing is quarantined. A mismatched embedded key (hand-copied file)
// IS quarantined: the file can never serve its name.
func TestCacheEpochMismatch(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(4, dir)
	writeRawEntry(t, dir, "k", "k", cacheSchema, Epoch+1, testRun("a", 5))
	if _, _, ok := c.Get("k", false); ok {
		t.Fatal("entry from a different epoch served")
	}
	writeRawEntry(t, dir, "k", "k", cacheSchema+1, Epoch, testRun("a", 5))
	if _, _, ok := c.Get("k", false); ok {
		t.Fatal("entry with a different schema served")
	}
	if got := c.Quarantined(); got != 0 {
		t.Fatalf("foreign entries quarantined: %d", got)
	}
	writeRawEntry(t, dir, "k", "other", cacheSchema, Epoch, testRun("a", 5))
	if _, _, ok := c.Get("k", false); ok {
		t.Fatal("entry with mismatched key served")
	}
	if got := c.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d after key mismatch, want 1", got)
	}
}
