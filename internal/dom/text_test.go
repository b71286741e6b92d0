package dom_test

import (
	"testing"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/html"
)

// visibleTextOracle is VisibleText as two passes: concatenate, then
// collapse.
func visibleTextOracle(n *dom.Node) string {
	return dom.CollapseWhitespace(n.TextContent())
}

func checkVisibleText(t *testing.T, src string) {
	t.Helper()
	doc := html.Parse(src)
	if got, want := doc.VisibleText(), visibleTextOracle(doc); got != want {
		t.Fatalf("VisibleText = %q\n      want %q", got, want)
	}
	if got, want := doc.AppendText([]byte("<")), "<"+doc.TextContent(); string(got) != want {
		t.Fatalf("AppendText = %q\n    want %q", got, want)
	}
	for _, el := range doc.ElementsByTag("") {
		if got, want := el.VisibleText(), visibleTextOracle(el); got != want {
			t.Fatalf("<%s>.VisibleText = %q\n      want %q", el.Data, got, want)
		}
	}
}

var visibleTextSeeds = []string{
	"",
	"   \n\t ",
	"<p> a </p><p>b</p>c<script> x </script> d<style>e</style>",
	"<div>  a \n\t b  </div><div>c  </div><!-- c --><p>\f</p>z",
	"a<b>b</b>c <i> </i> d",
	"héllo wörld　x\u0085y \xff\xfe z",
}

func TestVisibleTextMatchesOracle(t *testing.T) {
	for _, src := range append(visibleTextSeeds, watchPage()) {
		checkVisibleText(t, src)
	}
}

func FuzzVisibleText(f *testing.F) {
	for _, src := range append(visibleTextSeeds, watchPage()) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip()
		}
		checkVisibleText(t, src)
	})
}

// VisibleText allocates the string it returns and nothing else;
// AppendText into a buffer already large enough allocates nothing.
func TestVisibleTextAllocs(t *testing.T) {
	doc := html.Parse(watchPage())
	if n := testing.AllocsPerRun(100, func() { doc.VisibleText() }); n > 1 {
		t.Fatalf("VisibleText of the watch page allocates %v times, want 1", n)
	}
	buf := doc.AppendText(nil)
	if n := testing.AllocsPerRun(100, func() { buf = doc.AppendText(buf[:0]) }); n != 0 {
		t.Fatalf("AppendText into a grown buffer allocates %v times, want 0", n)
	}
}
