package index

import (
	"strings"
	"testing"
	"unicode"
	"unsafe"

	"ajaxcrawl/internal/model"
)

// tokenizeOracle is Tokenize as it was before the Scanner: one
// strings.Builder per token over a range loop. The differential tests
// hold the Scanner and its collector to it.
func tokenizeOracle(text string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

// FuzzTokenize: the collector returns the oracle's tokens, and the
// Scanner walks exactly those — same count, each one equal to (Is) and
// copied out as (AppendLower) the oracle's lower-cased token.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"",
		"one",
		"Funny  Dance!!",
		"ALPHA-bravo_charlie9 x",
		"漢字 と kana ｶﾀｶﾅ ٣٤",
		"a\x00b\tc",
		"\xff\xfe broken utf8 \x80tail\xc3",
		"İstanbul STRASSE ẞ Ⱥⱥ KELVINK ǅ",
		"� replacement ǅ",
		strings.Repeat("Long ", 64),
		"short " + strings.Repeat("LongerThanTheCompareBuffer", 4) + " tail",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want := tokenizeOracle(text)
		got := Tokenize(text)
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("Tokenize(%q) = %q, oracle %q", text, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Tokenize(%q)[%d] = %q, oracle %q", text, i, got[i], want[i])
			}
		}
		n := 0
		for sc := Scan(text); sc.Next(); n++ {
			if n >= len(want) {
				t.Fatalf("Scan(%q): more than the oracle's %d tokens", text, len(want))
			}
			if got := string(sc.AppendLower([]byte("^"))); got != "^"+want[n] || !sc.Is(want[n]) {
				t.Fatalf("Scan(%q) token %d: AppendLower %q, Is(%q)=%v", text, n, got, want[n], sc.Is(want[n]))
			}
			if sc.Is(want[n]+"x") || sc.Is(want[n][:len(want[n])-1]) {
				t.Fatalf("Scan(%q) token %d: Is accepts a longer or shorter term than %q", text, n, want[n])
			}
		}
		if n != len(want) {
			t.Fatalf("Scan(%q): %d tokens, oracle %d", text, n, len(want))
		}
	})
}

// TestVocabularyDoesNotPinText: a lower-case token is a substring of
// the text it was cut from (so Tokenize of such text allocates only its
// result slice), and the vocabulary's keys are clones of those — the
// index never keeps a state's text buffer alive.
func TestVocabularyDoesNotPinText(t *testing.T) {
	text := strings.Repeat("alpha beta alpha ", 4)
	if n := testing.AllocsPerRun(100, func() { Tokenize(text) }); n > 1 {
		t.Fatalf("Tokenize of lower-case text: %v allocations, want the result slice only", n)
	}
	g := model.NewGraph("u")
	g.AddState(hashOf(1), text, 0)
	ix := New()
	ix.AddGraph(g, 0, 0)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	for term := range ix.Terms {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(term))); p >= lo && p < lo+uintptr(len(text)) {
			t.Fatalf("vocabulary key %q points into the state text", term)
		}
	}
	if len(ix.Terms) != 2 {
		t.Fatalf("vocabulary %d terms, want 2", len(ix.Terms))
	}
}
