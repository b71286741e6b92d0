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

// TestMinimalWindowSharedByProximityAndSnippet: the one minimalWindow,
// fed by proximity's k-way merge of position lists and by the snippet's
// token scan, reports the same (lo, hi) as the position-list oracle —
// the smallest window, the earliest on ties.
func TestMinimalWindowSharedByProximityAndSnippet(t *testing.T) {
	for _, lists := range [][][]int32{
		{{3}},
		{{0}, {1}},
		{{0}, {9}},
		{{0, 20}, {21}},
		{{5}, {6}, {7}},
		{{0, 10}, {1, 11}},           // tie: the earlier window
		{{0, 4, 8}, {2, 6, 10}, {3}}, // tie around a single occurrence
		{{9}, {0, 1, 2, 3, 8}},       // the opener's list is the long one
		{{0, 50}, {1, 2, 3, 49}, {30, 48}},
		{{7, 8}, {0, 1, 2, 3}}, // one list ends before the other starts
		{{1, 5, 9, 13}, {0, 14}, {6, 7}},
	} {
		var ints [][]int
		terms := make([]string, len(lists))
		tokens := 0
		for i, ps := range lists {
			terms[i] = "t" + itoa(i)
			list := make([]int, len(ps))
			for j, p := range ps {
				list[j] = int(p)
				tokens = max(tokens, int(p)+1)
			}
			ints = append(ints, list)
		}
		wantLo, wantHi := windowOracle(ints)

		ix, postings, text := placed(lists...)
		lo, hi := proximityWindow(ix, postings)
		if int(lo) != wantLo || int(hi) != wantHi {
			t.Errorf("%v: proximity window (%d, %d), oracle (%d, %d)", lists, lo, hi, wantLo, wantHi)
		}
		sLo, sHi, n := snippetWindow(text, terms)
		if sLo != wantLo || sHi != wantHi || n != tokens {
			t.Errorf("%v: snippet window (%d, %d) of %d tokens, oracle (%d, %d) of %d", lists, sLo, sHi, n, wantLo, wantHi, tokens)
		}
	}
	// More terms than the stack buffers hold.
	many := make([][]int32, 12)
	for i := range many {
		many[i] = []int32{int32(100 - i), int32(200 + 2*i)}
	}
	ix, postings, _ := placed(many...)
	if lo, hi := proximityWindow(ix, postings); lo != 89 || hi != 100 {
		t.Errorf("12 terms: window (%d, %d), want (89, 100)", lo, hi)
	}
}

// TestSnippetMatchesOracle sweeps window sizes and highlights over texts
// with the shapes the scanner must get right.
func TestSnippetMatchesOracle(t *testing.T) {
	texts := []string{
		"", "one", "The Morcheeba Video: ENJOY the ride, enjoy THE Ride!",
		"İstanbul STRASSE ẞ Ⱥⱥ KELVINK 2008 ٣٤", "bad \xff utf8 \x80tail bad",
		strings.Repeat("pad ", 30) + "alpha pad pad beta" + strings.Repeat(" pad", 30) + " alpha beta",
	}
	queries := []string{"", "!!!", "enjoy", "enjoy ride", "ride enjoy zzz", "the the", "alpha beta", "kelvink ⱥⱥ", "bad tail", "2008"}
	for _, text := range texts {
		for _, q := range queries {
			for _, max := range []int{1, 3, 24, 1000} {
				for _, o := range []SnippetOptions{{}, {HighlightPre: "<b>", HighlightPost: "</b>"}, {HighlightPost: "*"}} {
					o.MaxTokens = max
					if got, want := Snippet(text, q, o), snippetOracle(text, q, o); got != want {
						t.Fatalf("Snippet(%q, %q, %+v)\n got: %q\nwant: %q", text, q, o, got, want)
					}
				}
			}
		}
	}
}
