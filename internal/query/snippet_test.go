package query

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSnippetHighlightsMatch(t *testing.T) {
	text := "one two three target four five"
	got := Snippet(text, "target", SnippetOptions{})
	if !strings.Contains(got, "[target]") {
		t.Fatalf("snippet = %q", got)
	}
	// All tokens fit: no ellipses.
	if strings.Contains(got, "...") {
		t.Fatalf("short text should not be elided: %q", got)
	}
}

func TestSnippetCentersOnWindow(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		b.WriteString("filler ")
	}
	b.WriteString("alpha beta")
	for i := 0; i < 100; i++ {
		b.WriteString(" trailer")
	}
	got := Snippet(b.String(), "alpha beta", SnippetOptions{MaxTokens: 10})
	if !strings.Contains(got, "[alpha] [beta]") {
		t.Fatalf("window missed the phrase: %q", got)
	}
	if !strings.HasPrefix(got, "... ") || !strings.HasSuffix(got, " ...") {
		t.Fatalf("mid-text snippet should be elided on both sides: %q", got)
	}
	if n := len(strings.Fields(got)); n > 14 { // 10 tokens + ellipses
		t.Fatalf("snippet too long: %d fields", n)
	}
}

func TestSnippetPicksClosestCooccurrence(t *testing.T) {
	// alpha appears early alone; the real co-occurrence is late.
	text := "alpha " + strings.Repeat("x ", 50) + "alpha near beta " + strings.Repeat("y ", 50)
	got := Snippet(text, "alpha beta", SnippetOptions{MaxTokens: 8})
	if !strings.Contains(got, "[alpha] near [beta]") {
		t.Fatalf("did not center on minimal window: %q", got)
	}
}

func TestSnippetPartialTerms(t *testing.T) {
	// Only one of two query terms occurs: still produce a snippet.
	got := Snippet("just alpha here", "alpha missing", SnippetOptions{})
	if !strings.Contains(got, "[alpha]") {
		t.Fatalf("partial-term snippet = %q", got)
	}
	// No terms at all: empty.
	if got := Snippet("nothing relevant", "absent", SnippetOptions{}); got != "" {
		t.Fatalf("no-match snippet = %q", got)
	}
	if got := Snippet("text", "", SnippetOptions{}); got != "" {
		t.Fatalf("empty query snippet = %q", got)
	}
}

func TestSnippetCustomHighlight(t *testing.T) {
	got := Snippet("a b c", "b", SnippetOptions{HighlightPre: "<b>", HighlightPost: "</b>"})
	if !strings.Contains(got, "<b>b</b>") {
		t.Fatalf("custom highlight = %q", got)
	}
}

func TestSnippetCaseInsensitive(t *testing.T) {
	got := Snippet("The Morcheeba Video", "morcheeba", SnippetOptions{})
	if !strings.Contains(got, "[morcheeba]") {
		t.Fatalf("case-insensitive snippet = %q", got)
	}
}

func TestAttachSnippets(t *testing.T) {
	ix := buildIndex(map[string][]string{
		"u1": {"the target phrase lives here"},
	}, nil)
	e := oneShard(ix)
	rs := e.Search("target")
	texts := map[string]string{"u1#0": "the target phrase lives here"}
	out := AttachSnippets(rs, func(url string, state int) string {
		return texts[url+"#"+itoa(state)]
	}, "target", SnippetOptions{})
	if len(out) != 1 || !strings.Contains(out[0].Snippet, "[target]") {
		t.Fatalf("attached = %+v", out)
	}
	// nil lookup: empty snippets, no panic.
	out = AttachSnippets(rs, nil, "target", SnippetOptions{})
	if out[0].Snippet != "" {
		t.Fatalf("nil lookup should yield empty snippet")
	}
}

// Property: the snippet never exceeds MaxTokens (+2 ellipsis markers) and
// always contains at least one highlighted term when any term matches.
func TestPropertySnippetBounds(t *testing.T) {
	f := func(words []uint8, qIdx uint8) bool {
		vocab := []string{"aa", "bb", "cc", "dd", "ee"}
		var toks []string
		for _, w := range words {
			toks = append(toks, vocab[int(w)%len(vocab)])
		}
		text := strings.Join(toks, " ")
		q := vocab[int(qIdx)%len(vocab)]
		got := Snippet(text, q, SnippetOptions{MaxTokens: 6})
		if got == "" {
			return !strings.Contains(" "+text+" ", " "+q+" ")
		}
		if !strings.Contains(got, "["+q+"]") {
			return false
		}
		fields := len(strings.Fields(got))
		return fields <= 8 // 6 tokens + up to 2 "..."
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
