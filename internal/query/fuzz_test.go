package query

import (
	"strings"
	"testing"

	"ajaxcrawl/internal/index"
)

// FuzzTokenizeQueryParse checks the properties the result cache's key
// normalization stands on: Parse never panics, always agrees with
// index.Tokenize (queries and documents must tokenize identically or
// conjunctions silently miss), emits only lowercase separator-free
// terms, and is idempotent — re-parsing the normalized join of the terms
// yields the same terms, so CacheKey maps a query and its normal form to
// the same entry.
func FuzzTokenizeQueryParse(f *testing.F) {
	seeds := []string{
		"",
		"funny dance",
		"Funny  Dance!!",
		"morcheeba+singer",
		"ALPHA-bravo_charlie9",
		"漢字 と kana ｶﾀｶﾅ",
		"a\x00b\tc",
		"\xff\xfe broken utf8 \x80",
		strings.Repeat("long ", 64),
		"state=3&q=enjoy+the+ride",
		"İstanbul STRASSE ẞ",
	}
	for _, s := range seeds {
		f.Add(s, 10)
	}
	f.Fuzz(func(t *testing.T, q string, k int) {
		terms := Parse(q)
		ref := index.Tokenize(q)
		if len(terms) != len(ref) {
			t.Fatalf("Parse/Tokenize disagree: %d vs %d terms", len(terms), len(ref))
		}
		for i := range terms {
			if terms[i] != ref[i] {
				t.Fatalf("term %d: Parse %q vs Tokenize %q", i, terms[i], ref[i])
			}
		}
		for _, term := range terms {
			if term == "" {
				t.Fatalf("empty term from %q", q)
			}
			if strings.ContainsAny(term, " \x1f") {
				t.Fatalf("term %q contains separator bytes", term)
			}
			if term != strings.ToLower(term) {
				t.Fatalf("term %q not lowercase", term)
			}
		}
		norm := strings.Join(terms, " ")
		renorm := Parse(norm)
		if len(renorm) != len(terms) {
			t.Fatalf("normalization not idempotent: %q -> %v -> %v", q, terms, renorm)
		}
		for i := range renorm {
			if renorm[i] != terms[i] {
				t.Fatalf("normalization not idempotent at %d: %q vs %q", i, renorm[i], terms[i])
			}
		}
		if CacheKey(q, k) != CacheKey(norm, k) {
			t.Fatalf("CacheKey(%q) != CacheKey(%q)", q, norm)
		}
	})
}

// FuzzSnippet holds the scan-based Snippet to the tokenize-everything
// oracle, byte for byte: arbitrary text (upper case, digits, non-ASCII
// letters, invalid UTF-8, empty, one token), arbitrary query (absent,
// duplicated or no terms), window sizes below, at and beyond the text's
// length, default, custom and one-sided highlights.
func FuzzSnippet(f *testing.F) {
	seeds := []struct {
		text, q   string
		max       int
		pre, post string
	}{
		{"", "alpha", 24, "", ""},
		{"alpha", "alpha", 1, "", ""},
		{"The Morcheeba Video 2008", "MORCHEEBA 2008", 3, "", ""},
		{"a b c d e f g h i j k l m n o p", "c n", 3, "<b>", "</b>"},
		{"a b c d e f g h i j k l m n o p", "c d zzz", 24, "", ""},
		{"x alpha y alpha beta z beta alpha", "alpha beta alpha", 4, "", "*"},
		{"x alpha y alpha beta z", "", 24, "", ""},
		{"x alpha y", "!!!", 24, "", ""},
		{"İstanbul STRASSE ẞ Ⱥⱥ KELVINK", "i̇stanbul ⱥⱥ kelvink", 3, "", ""},
		{"bad \xff\xfe utf8 \x80tail and more bad \xc3", "utf8 bad", 1000, "«", "»"},
		{"漢字 と kana ｶﾀｶﾅ 漢字", "漢字 kana", 2, "", ""},
		{strings.Repeat("pad ", 40) + "Needle" + strings.Repeat(" pad", 40), "needle", 24, "", ""},
		{"one two three", "two", -3, "", ""},
	}
	for _, s := range seeds {
		f.Add(s.text, s.q, s.max, s.pre, s.post)
	}
	f.Fuzz(func(t *testing.T, text, q string, max int, pre, post string) {
		opts := SnippetOptions{MaxTokens: max % 4096, HighlightPre: pre, HighlightPost: post}
		got, want := Snippet(text, q, opts), snippetOracle(text, q, opts)
		if got != want {
			t.Fatalf("Snippet(%q, %q, %+v)\n got: %q\nwant: %q", text, q, opts, got, want)
		}
	})
}
