package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
)

// TestCLIHandOff pins the on-disk contract between the three binaries:
// what `ajaxcrawl -out` and `-save-index` leave behind is what
// `ajaxsearch -models` and `ajaxmodel -models` read.
func TestCLIHandOff(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three binaries")
	}
	bin := t.TempDir()
	for _, name := range []string{"ajaxcrawl", "ajaxsearch", "ajaxmodel"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, name), "ajaxcrawl/cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}
	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(filepath.Join(bin, name), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}
	work := t.TempDir()
	d, s := filepath.Join(work, "d"), filepath.Join(work, "s")
	run("ajaxcrawl", "-sim", "40", "-pages", "25", "-lines", "3", "-out", d, "-save-index", s)

	entries, err := os.ReadDir(d)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "ajaxmodels.gob precrawl.gob" {
		t.Fatalf("-out holds %q, want exactly ajaxmodels.gob and precrawl.gob", got)
	}

	// A snapshot carries the same models (URL-sorted) but no PageRank;
	// with the precrawl beside them the two directories must rank alike.
	pre, err := os.ReadFile(filepath.Join(d, "precrawl.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s, "precrawl.gob"), pre, 0o644); err != nil {
		t.Fatal(err)
	}
	ranked := regexp.MustCompile(`(?m)^ *\d+\. .*$`)
	fromOut := ranked.FindAllString(run("ajaxsearch", "-models", d, "-q", "wow"), -1)
	fromSnap := ranked.FindAllString(run("ajaxsearch", "-models", s, "-q", "wow"), -1)
	if len(fromOut) == 0 || strings.Join(fromOut, "\n") != strings.Join(fromSnap, "\n") {
		t.Fatalf("ajaxsearch ranks the -out root and the snapshot differently:\n%s\nvs\n%s",
			strings.Join(fromOut, "\n"), strings.Join(fromSnap, "\n"))
	}

	if out := run("ajaxmodel", "-models", d); !strings.Contains(out, "(25 pages)") {
		t.Fatalf("ajaxmodel does not list 25 pages:\n%s", out)
	}
	sameBytesAsChunkedBuild(t, d, s)
}

// sameBytesAsChunkedBuild checks that the snapshot in snap, which
// `ajaxcrawl -save-index` encoded shard by shard, holds the bytes of
// index.Build per chunk of the crawl in out saved by index.SaveSnapshot,
// file by file in manifest order, models included.
func sameBytesAsChunkedBuild(t *testing.T, out, snap string) {
	t.Helper()
	pre, err := core.LoadPrecrawl(out)
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := model.LoadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	byURL := make(map[string]*model.Graph, len(graphs))
	for _, g := range graphs {
		byURL[g.URL] = g
	}
	var shards []*index.Index
	for lo := 0; lo < len(pre.URLs); lo += index.ShardPages {
		var chunk []*model.Graph
		for _, u := range pre.URLs[lo:min(lo+index.ShardPages, len(pre.URLs))] {
			if g := byURL[u]; g != nil {
				chunk = append(chunk, g)
			}
		}
		if len(chunk) > 0 {
			shards = append(shards, index.Build(chunk, pre.PageRank, 0))
		}
	}
	ref := t.TempDir()
	want, err := index.SaveSnapshot(ref, shards, graphs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := index.LoadManifest(snap)
	if err != nil {
		t.Fatal(err)
	}
	files := func(dir string, m *index.Manifest) (names []string) {
		for _, e := range m.Shards {
			names = append(names, filepath.Join(dir, e.File))
		}
		return append(names, filepath.Join(dir, m.Models))
	}
	gotFiles, wantFiles := files(snap, got), files(ref, want)
	if len(gotFiles) != len(wantFiles) || len(want.Shards) < 2 {
		t.Fatalf("-save-index published %d files, the chunked build %d", len(gotFiles), len(wantFiles))
	}
	for i := range wantFiles {
		g, err := os.ReadFile(gotFiles[i])
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(wantFiles[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("-save-index's %s differs from the chunked build's %s", filepath.Base(gotFiles[i]), filepath.Base(wantFiles[i]))
		}
	}
}
