// Package html implements a lenient HTML tokenizer and tree builder that
// produces dom trees. It plays the role the COBRA toolkit plays in the
// thesis implementation: turning fetched markup — full pages and AJAX
// response fragments — into a scriptable DOM.
//
// The parser is deliberately forgiving (real-world markup is messy): it
// auto-closes implied end tags (<li>, <p>, <td>, ...), treats script and
// style as raw text, tolerates unclosed elements at EOF, and decodes the
// common named and numeric character references.
package html

import (
	"strings"
)

// TokenType identifies a lexical token produced by the Tokenizer.
type TokenType int

// Token kinds.
const (
	ErrorToken TokenType = iota // end of input
	TextToken
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
)

// Token is one lexical token. Data holds the tag name (lower-case) for
// tag tokens and the (entity-decoded) text for text/comment tokens. Attr
// is the Tokenizer's own buffer, valid until the next call to Next.
type Token struct {
	Type TokenType
	Data string
	Attr []Attr
}

// Attr is a raw attribute parsed from a tag.
type Attr struct {
	Key string
	Val string
}

// Tokenizer splits HTML input into tokens. It never fails: malformed
// input degrades to text tokens.
type Tokenizer struct {
	src     string
	pos     int
	rawTag  string // non-empty inside script/style/textarea/title: consume until its end tag
	pending Token  // queued token (used when a raw-text element produces text then end tag)
	queued  bool   // pending holds a token
	attrs   []Attr // the attributes of the last tag, reused for every tag
}

// Next returns the next token. After the input is exhausted it returns
// tokens of type ErrorToken forever.
func (z *Tokenizer) Next() Token {
	if z.queued {
		z.queued = false
		return z.pending
	}
	if z.rawTag != "" {
		return z.rawText()
	}
	if z.pos >= len(z.src) {
		return Token{Type: ErrorToken}
	}
	if z.src[z.pos] == '<' {
		if t, ok := z.tryTag(); ok {
			return t
		}
		// A lone '<' that does not begin a tag: emit it as text.
	}
	return z.text()
}

// text consumes up to the next '<' (or EOF) and returns a TextToken.
func (z *Tokenizer) text() Token {
	start := z.pos
	if z.src[z.pos] == '<' {
		z.pos++ // the '<' that failed to parse as a tag
	}
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Type: TextToken, Data: UnescapeEntities(z.src[start:z.pos])}
}

// rawText consumes raw content until the matching </rawTag>. In title
// and textarea (RCDATA) character references are decoded, as in text:
// only tags are not recognized there.
func (z *Tokenizer) rawText() Token {
	tag := z.rawTag
	z.rawTag = ""
	end := indexEndTag(z.src[z.pos:], tag)
	if end < 0 {
		end = len(z.src) - z.pos // unterminated: consume the rest
	}
	text := z.src[z.pos : z.pos+end]
	z.pos += end
	if tag == "title" || tag == "textarea" {
		text = UnescapeEntities(text)
	}
	// Consume the end tag itself and queue it.
	if t, ok := z.tryTag(); ok {
		if text == "" {
			return t
		}
		z.pending, z.queued = t, true
	} else if text == "" {
		return Token{Type: ErrorToken}
	}
	return Token{Type: TextToken, Data: text}
}

// indexEndTag returns the index in s of the first "</" followed by tag in
// any case, or -1.
func indexEndTag(s, tag string) int {
	for i := 0; ; {
		j := strings.Index(s[i:], "</")
		if j < 0 {
			return -1
		}
		i += j + 2
		// tag is ASCII, so a window holding any other byte has fewer
		// runes than tag and cannot fold equal to it.
		if len(s)-i >= len(tag) && strings.EqualFold(s[i:i+len(tag)], tag) {
			return i - 2
		}
	}
}

// tryTag attempts to parse a tag, comment, or doctype at z.pos (which
// must point at '<'). On failure it restores pos and returns false.
func (z *Tokenizer) tryTag() (Token, bool) {
	start := z.pos
	s := z.src
	i := z.pos + 1
	if i >= len(s) {
		return Token{}, false
	}
	switch {
	case strings.HasPrefix(s[i:], "!--"):
		return z.comment(), true
	case s[i] == '!' || s[i] == '?':
		// Doctype or processing instruction: consume to '>'.
		j := strings.IndexByte(s[i:], '>')
		if j < 0 {
			z.pos = len(s)
			return Token{Type: ErrorToken}, true
		}
		data := s[i+1 : i+j]
		z.pos = i + j + 1
		if len(data) >= 7 && strings.EqualFold(data[:7], "doctype") {
			return Token{Type: DoctypeToken, Data: strings.TrimSpace(data[7:])}, true
		}
		return Token{Type: CommentToken, Data: data}, true
	}
	closing := false
	if s[i] == '/' {
		closing = true
		i++
	}
	j := i
	for j < len(s) && isTagNameByte(s[j]) {
		j++
	}
	if j == i {
		z.pos = start
		return Token{}, false
	}
	name := strings.ToLower(s[i:j])
	tok := Token{Type: StartTagToken, Data: name}
	z.attrs = z.attrs[:0]
	if closing {
		tok.Type = EndTagToken
	}
	i = j
	// Attributes.
	for {
		for i < len(s) && isSpaceByte(s[i]) {
			i++
		}
		if i >= len(s) {
			z.pos = len(s)
			break
		}
		if s[i] == '>' {
			i++
			z.pos = i
			break
		}
		if s[i] == '/' && i+1 < len(s) && s[i+1] == '>' {
			if tok.Type == StartTagToken {
				tok.Type = SelfClosingTagToken
			}
			i += 2
			z.pos = i
			break
		}
		if s[i] == '/' {
			// A stray slash (<br/ >, <a /x>) is not the start of a name;
			// the name scan below would stop on it without advancing.
			i++
			continue
		}
		// Attribute name.
		k := i
		for i < len(s) && !isSpaceByte(s[i]) && s[i] != '=' && s[i] != '>' && s[i] != '/' {
			i++
		}
		key := strings.ToLower(s[k:i])
		val := ""
		for i < len(s) && isSpaceByte(s[i]) {
			i++
		}
		if i < len(s) && s[i] == '=' {
			i++
			for i < len(s) && isSpaceByte(s[i]) {
				i++
			}
			if i < len(s) && (s[i] == '"' || s[i] == '\'') {
				q := s[i]
				i++
				v := i
				for i < len(s) && s[i] != q {
					i++
				}
				val = s[v:i]
				if i < len(s) {
					i++ // closing quote
				}
			} else {
				v := i
				for i < len(s) && !isSpaceByte(s[i]) && s[i] != '>' {
					i++
				}
				val = s[v:i]
			}
		}
		if key != "" {
			z.attrs = append(z.attrs, Attr{Key: key, Val: UnescapeEntities(val)})
		}
	}
	if len(z.attrs) > 0 {
		tok.Attr = z.attrs
	}
	if tok.Type == StartTagToken && isRawTextTag(name) {
		z.rawTag = name
	}
	return tok, true
}

func (z *Tokenizer) comment() Token {
	s := z.src
	i := z.pos + 4 // past "<!--"
	end := strings.Index(s[i:], "-->")
	if end < 0 {
		data := s[i:]
		z.pos = len(s)
		return Token{Type: CommentToken, Data: data}
	}
	data := s[i : i+end]
	z.pos = i + end + 3
	return Token{Type: CommentToken, Data: data}
}

func isTagNameByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '-' || b == ':'
}

func isSpaceByte(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\f'
}

func isRawTextTag(name string) bool {
	switch name {
	case "script", "style", "textarea", "title":
		return true
	}
	return false
}
