package index

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ajaxcrawl/internal/model"
)

// snapshotGraphs builds a slightly larger corpus than twoVideoGraphs so
// multi-shard snapshots have distinct shard contents.
func snapshotGraphs() ([]*model.Graph, []*model.Graph) {
	g1 := model.NewGraph("site/watch?v=a")
	g1.AddState(hashOf(1), "alpha bravo charlie", 0)
	g1.AddState(hashOf(2), "alpha delta", 1)
	g2 := model.NewGraph("site/watch?v=b")
	g2.AddState(hashOf(3), "bravo echo", 0)
	g3 := model.NewGraph("site/watch?v=c")
	g3.AddState(hashOf(4), "charlie foxtrot alpha", 0)
	return []*model.Graph{g1, g2}, []*model.Graph{g3}
}

func TestSnapshotRoundTrip(t *testing.T) {
	part1, part2 := snapshotGraphs()
	sh1 := Build(part1, map[string]float64{"site/watch?v=a": 0.7}, 0)
	sh2 := Build(part2, nil, 0)
	dir := t.TempDir()

	man, err := SaveSnapshot(dir, []*Index{sh1, sh2}, append(append([]*model.Graph{}, part1...), part2...))
	if err != nil {
		t.Fatal(err)
	}
	if man.ID == "" || man.Version != ManifestVersion || !strings.HasSuffix(man.Shards[0].File, "-0000.bin") {
		t.Fatalf("bad manifest header: %+v", man)
	}
	if man.TotalDocs != 3 || man.TotalStates != 4 {
		t.Fatalf("totals = %d docs / %d states, want 3/4", man.TotalDocs, man.TotalStates)
	}
	if man.Models != model.ModelFileName {
		t.Fatalf("models = %q", man.Models)
	}

	loadedMan, shards, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loadedMan.ID != man.ID {
		t.Fatalf("reloaded ID %s != %s", loadedMan.ID, man.ID)
	}
	// The two files load as one index, file order kept: it is the
	// broker/ranking order.
	if len(shards) != 1 || shards[0].NumDocs() != 3 || shards[0].TotalStates != 4 {
		t.Fatalf("got %d indexes, the first with %d docs", len(shards), shards[0].NumDocs())
	}
	if got := shards[0].Docs[0].PageRank; got != 0.7 {
		t.Fatalf("pagerank lost: %v", got)
	}
	if shards[0].Docs[0].URL != "site/watch?v=a" || shards[0].Docs[2].URL != "site/watch?v=c" {
		t.Fatalf("file order changed: %s / %s", shards[0].Docs[0].URL, shards[0].Docs[2].URL)
	}

	graphs, err := model.LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 3 {
		t.Fatalf("got %d graphs", len(graphs))
	}
	// Models are stored URL-sorted for byte-stable snapshots.
	for i := 1; i < len(graphs); i++ {
		if graphs[i-1].URL >= graphs[i].URL {
			t.Fatalf("models not URL-sorted: %s before %s", graphs[i-1].URL, graphs[i].URL)
		}
	}

	// No stray temp files from the atomic manifest write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestSnapshotIDChangesPerSave(t *testing.T) {
	part1, _ := snapshotGraphs()
	sh := Build(part1, nil, 0)
	dir := t.TempDir()
	m1, err := SaveSnapshot(dir, []*Index{sh}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := SaveSnapshot(dir, []*Index{sh}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1.ID == m2.ID {
		t.Fatalf("re-save kept ID %s; watchers would never swap", m1.ID)
	}
	if m2.Models != "" {
		t.Fatalf("index-only snapshot recorded models %q", m2.Models)
	}
}

func TestLoadManifestRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadManifest(dir); err == nil {
		t.Fatal("missing manifest must error")
	}
	write := func(body string) {
		if err := os.WriteFile(filepath.Join(dir, ManifestFileName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]string{
		"garbage":      "{not json",
		"bad version":  `{"version":99,"id":"x","shards":[{"file":"s.bin"}]}`,
		"no shards":    `{"version":2,"id":"x","shards":[]}`,
		"traversal":    `{"version":2,"id":"x","shards":[{"file":"../../etc/passwd"}]}`,
		"hidden shard": `{"version":2,"id":"x","shards":[{"file":".evil"}]}`,
		"bad models":   `{"version":2,"id":"x","shards":[{"file":"s.bin"}],"models":"../m.gob"}`,
	}
	for name, body := range cases {
		write(body)
		if _, err := LoadManifest(dir); err == nil {
			t.Errorf("%s: LoadManifest accepted %q", name, body)
		}
	}
}

func TestLoadSnapshotDetectsShardMismatch(t *testing.T) {
	part1, part2 := snapshotGraphs()
	dir := t.TempDir()
	man, err := SaveSnapshot(dir, []*Index{Build(part1, nil, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the shard with a different index; the manifest's
	// recorded sizes no longer match.
	var other bytes.Buffer
	if err := Build(part2, nil, 0).Encode(&other); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, man.Shards[0].File), other.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(dir); err == nil {
		t.Fatal("size mismatch between manifest and shard must error")
	}
}

// TestLoadSnapshotRefusesGobEra: a version 1 manifest names gob shards
// this build cannot read. The load fails before touching them, and the
// error names the remedy.
func TestLoadSnapshotRefusesGobEra(t *testing.T) {
	dir := t.TempDir()
	old := `{"version":1,"id":"x","format":"gob","shards":[{"file":"shard-0000.gob","docs":1,"states":1}]}`
	if err := os.WriteFile(filepath.Join(dir, ManifestFileName), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadSnapshot(dir)
	if err == nil || !strings.Contains(err.Error(), "re-publish") {
		t.Fatalf("gob-era snapshot: err = %v, want a refusal naming the re-publish remedy", err)
	}
}

// TestFailedRepublishKeepsTheOldSnapshot: a re-publish into a directory
// that fails after writing its shard files leaves the old manifest naming
// the old bytes. B is A's graphs under another PageRank, so every count
// the manifest records matches and only the bytes could tell the two
// apart. A later successful publish removes the shard files no manifest
// names.
func TestFailedRepublishKeepsTheOldSnapshot(t *testing.T) {
	part1, part2 := snapshotGraphs()
	graphs := append(append([]*model.Graph{}, part1...), part2...)
	shards := func(pr float64) []*Index {
		rank := map[string]float64{"site/watch?v=a": pr, "site/watch?v=c": pr}
		return []*Index{Build(part1, rank, 0), Build(part2, rank, 0)}
	}
	a, b := shards(0.25), shards(0.75)
	dir := t.TempDir()
	if _, err := SaveSnapshot(dir, a, graphs); err != nil {
		t.Fatal(err)
	}
	models := filepath.Join(dir, model.ModelFileName)
	if err := os.Remove(models); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(models, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveSnapshot(dir, b, graphs); err == nil {
		t.Fatal("publishing over a models directory succeeded")
	}
	ref := t.TempDir()
	if _, err := SaveSnapshot(ref, a, nil); err != nil {
		t.Fatal(err)
	}
	_, got, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := LoadSnapshot(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, got[0]), encoded(t, want[0])) {
		t.Fatal("after a failed re-publish the directory serves other bytes than the snapshot it held")
	}

	if err := os.Remove(models); err != nil {
		t.Fatal(err)
	}
	man, err := SaveSnapshot(dir, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
	if len(files) != len(man.Shards) {
		t.Fatalf("after a publish the directory holds %d shard files, its manifest names %d", len(files), len(man.Shards))
	}
}
