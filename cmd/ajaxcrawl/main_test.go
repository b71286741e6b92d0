package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
	run("ajaxcrawl", "-sim", "40", "-pages", "12", "-lines", "3", "-out", d, "-save-index", s)

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

	if out := run("ajaxmodel", "-models", d); !strings.Contains(out, "(12 pages)") {
		t.Fatalf("ajaxmodel does not list 12 pages:\n%s", out)
	}
}
