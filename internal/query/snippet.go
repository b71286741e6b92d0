package query

import "ajaxcrawl/internal/index"

// Snippet generation: result presentation needs an excerpt of the state
// text around the query terms (the thesis GUI lists raw results; any
// user-facing search front end wants KWIC-style snippets with the match
// highlighted).

// SnippetOptions tune snippet extraction.
type SnippetOptions struct {
	// MaxTokens is the excerpt length in tokens (default 24).
	MaxTokens int
	// HighlightPre/Post wrap matched terms (default "[" and "]").
	HighlightPre  string
	HighlightPost string
}

func (o SnippetOptions) withDefaults() SnippetOptions {
	if o.MaxTokens == 0 {
		o.MaxTokens = 24
	}
	if o.HighlightPre == "" && o.HighlightPost == "" {
		o.HighlightPre, o.HighlightPost = "[", "]"
	}
	return o
}

// Snippet extracts an excerpt of text centered on the smallest window
// containing all query terms (the same minimal-window the proximity
// ranking uses), with matches highlighted. It returns "" when no term
// occurs.
func Snippet(text, queryStr string, opts SnippetOptions) string {
	return snippet(text, Parse(queryStr), opts)
}

// termOf returns the first of terms the scanner's token equals, or -1.
func termOf(sc *index.Scanner, terms []string) int {
	for i, t := range terms {
		if sc.Is(t) {
			return i
		}
	}
	return -1
}

// snippetWindow scans text once and returns the smallest window of token
// positions covering every *present* term (absent terms are ignored so
// single-term matches still snippet) and the token count; hi is -1 when
// no term occurs.
func snippetWindow(text string, terms []string) (lo, hi, n int) {
	var buf [8]int32
	w := newMinimalWindow(buf[:], len(terms))
	for sc := index.Scan(text); sc.Next(); n++ {
		if t := termOf(&sc, terms); t >= 0 {
			w.observe(t, int32(n))
		}
	}
	return int(w.lo), int(w.hi), n
}

// snippet is Snippet for a parsed query. It scans the state text rather
// than reading index positions — the text is what the excerpt is cut
// from anyway, and a term the index and the model disagree about simply
// does not highlight — and tokenizes nothing into memory: the returned
// string is the only allocation.
func snippet(text string, terms []string, opts SnippetOptions) string {
	opts = opts.withDefaults()
	lo, hi, n := snippetWindow(text, terms)
	if hi < 0 {
		return ""
	}

	// Expand the window to MaxTokens, centered.
	span := hi - lo + 1
	pad := max((opts.MaxTokens-span)/2, 0)
	start := max(lo-pad, 0)
	end := start + opts.MaxTokens
	if end > n {
		end = n
		if start = end - opts.MaxTokens; start < 0 {
			start = 0
		}
	}

	// Second scan, up to the window's end. An excerpt longer than the
	// stack buffer spills to the heap.
	var buf [512]byte
	b := buf[:0]
	if start > 0 {
		b = append(b, "... "...)
	}
	sc := index.Scan(text)
	for i := 0; i < end && sc.Next(); i++ {
		if i < start {
			continue
		}
		if i > start {
			b = append(b, ' ')
		}
		if termOf(&sc, terms) < 0 {
			b = sc.AppendLower(b)
			continue
		}
		b = append(b, opts.HighlightPre...)
		b = sc.AppendLower(b)
		b = append(b, opts.HighlightPost...)
	}
	if end < n {
		b = append(b, " ..."...)
	}
	return string(b)
}

// ResultWithSnippet pairs a search result with its generated snippet.
type ResultWithSnippet struct {
	Result
	Snippet string `json:"snippet,omitempty"`
}

// AttachSnippets cuts each result's snippet from the text stateText
// returns for it (Broker.StateText, for a served snapshot). Results
// whose text is not available get an empty snippet.
func AttachSnippets(results []Result, stateText func(url string, state int) string, q string, opts SnippetOptions) []ResultWithSnippet {
	return attachSnippets(results, stateText, Parse(q), opts)
}

func attachSnippets(results []Result, stateText func(url string, state int) string, terms []string, opts SnippetOptions) []ResultWithSnippet {
	out := make([]ResultWithSnippet, len(results))
	for i, r := range results {
		out[i] = ResultWithSnippet{Result: r}
		if stateText != nil {
			if text := stateText(r.URL, int(r.State)); text != "" {
				out[i].Snippet = snippet(text, terms, opts)
			}
		}
	}
	return out
}
