package index

import (
	"testing"
)

// TestSnapshotRecordsTerms: SaveSnapshot exports each shard's
// vocabulary size (and the fleet total) in the manifest, so routers and
// fleet tooling can reason about df skew without loading shards.
func TestSnapshotRecordsTerms(t *testing.T) {
	part1, part2 := snapshotGraphs()
	sh1 := Build(part1, nil, 0)
	sh2 := Build(part2, nil, 0)
	dir := t.TempDir()
	man, err := SaveSnapshot(dir, []*Index{sh1, sh2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if man.Shards[0].Terms != sh1.NumTerms() || man.Shards[1].Terms != sh2.NumTerms() {
		t.Fatalf("manifest terms = %d/%d, shards have %d/%d",
			man.Shards[0].Terms, man.Shards[1].Terms, sh1.NumTerms(), sh2.NumTerms())
	}
	if man.Shards[0].Terms == 0 {
		t.Fatal("shard vocabulary size not recorded")
	}
	if want := sh1.NumTerms() + sh2.NumTerms(); man.TotalTerms != want {
		t.Fatalf("TotalTerms = %d, want %d", man.TotalTerms, want)
	}

	// The round trip preserves the record.
	loaded, _, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalTerms != man.TotalTerms || loaded.Shards[0].Terms != man.Shards[0].Terms {
		t.Fatalf("reloaded terms %d/%d, want %d/%d",
			loaded.TotalTerms, loaded.Shards[0].Terms, man.TotalTerms, man.Shards[0].Terms)
	}
}

// TestLoadSnapshotDetectsTermMismatch: a shard file whose vocabulary
// disagrees with the manifest record must fail the load, like the
// doc/state size checks.
func TestLoadSnapshotDetectsTermMismatch(t *testing.T) {
	part1, _ := snapshotGraphs()
	dir := t.TempDir()
	man, err := SaveSnapshot(dir, []*Index{Build(part1, nil, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the manifest claiming a different vocabulary size; doc and
	// state counts still match, so only the Terms cross-check can catch
	// it.
	man.Shards[0].Terms++
	if err := WriteManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(dir); err == nil {
		t.Fatal("term-count mismatch between manifest and shard must error")
	}
}
