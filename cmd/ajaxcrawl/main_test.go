package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ajaxcrawl/internal/index"
)

// TestCLIHandOff pins the on-disk contract between the three binaries:
// what `ajaxcrawl -out` leaves behind, a published snapshot beside the
// precrawl, is what `ajaxsearch -models` / `-load` and `ajaxmodel
// -models` read.
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
	d := filepath.Join(t.TempDir(), "d")
	run("ajaxcrawl", "-sim", "40", "-pages", "25", "-lines", "3", "-out", d)

	man, err := index.LoadManifest(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ajaxmodels.gob", "manifest.json", "precrawl.gob"}
	for _, e := range man.Shards {
		want = append(want, e.File)
	}
	sort.Strings(want)
	entries, err := os.ReadDir(d)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); len(man.Shards) != 2 || got != strings.Join(want, " ") {
		t.Fatalf("-out holds %q, want the precrawl and a snapshot of 2 shard files: %q", got, strings.Join(want, " "))
	}

	// The index rebuilt from the models with the precrawl's PageRank and
	// the published one ranks alike.
	ranked := regexp.MustCompile(`(?m)^ *\d+\. .*$`)
	fromModels := ranked.FindAllString(run("ajaxsearch", "-models", d, "-q", "wow"), -1)
	fromSnap := ranked.FindAllString(run("ajaxsearch", "-load", d, "-q", "wow"), -1)
	if len(fromModels) == 0 || strings.Join(fromModels, "\n") != strings.Join(fromSnap, "\n") {
		t.Fatalf("ajaxsearch ranks the models and the snapshot differently:\n%s\nvs\n%s",
			strings.Join(fromModels, "\n"), strings.Join(fromSnap, "\n"))
	}

	if out := run("ajaxmodel", "-models", d); !strings.Contains(out, "(25 pages)") {
		t.Fatalf("ajaxmodel does not list 25 pages:\n%s", out)
	}
}
