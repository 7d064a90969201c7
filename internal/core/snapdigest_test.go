package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fdp/internal/synth"
)

// TestSnapshotDigestPinned pins the exact bytes of a post-warmup snapshot.
// A change to how any component lays out its checkpointed state (the raw
// history words, the folded registers, table entries) must bump
// snapVersion and the runner's ckptSchema; a representation-only change
// must leave these digests alone, so that checkpoints already on disk keep
// restoring as hits.
func TestSnapshotDigestPinned(t *testing.T) {
	w := synth.ByName("server_a")
	if w == nil {
		t.Fatal("server_a workload missing")
	}
	ghr := DefaultConfig()
	ghr.HistPolicy = HistGHRFix
	for _, tc := range []struct {
		name   string
		cfg    Config
		digest string
	}{
		{"default", DefaultConfig(), "285c8ecdbaec48c26c41e61c86f5c40ba9f4c57885fa53e2105ef990bcd0dd65"},
		{"ghr-fix", ghr, "185f7c82426597c43a740e162bbf7a76001c0c17bd2799bed0ff6108f3f4e458"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg, w.NewStream())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.FastForward(context.Background(), 150_000); err != nil {
				t.Fatal(err)
			}
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(snap)
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("snapshot digest = %s (%d bytes), want %s", got, len(snap), tc.digest)
			}
		})
	}
}
