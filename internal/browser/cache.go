package browser

import (
	"strings"
	"sync"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/html"
	"ajaxcrawl/internal/js"
)

// The parse caches (DESIGN.md §5a, "Parse caches"). Under the hot-node
// policy a page assigns the same few response bodies to innerHTML and
// dispatches the same few handler sources over and over, and every page
// of a site runs the same <script>; each distinct string is parsed once
// and the parse reused. The key is the source text itself. Every write
// and every dispatch takes the same path — look up, parse and insert on a
// miss, use — and each cache is emptied when the source bytes it retains
// pass its bound, so a page that never repeats itself costs a bounded
// amount of memory.
const (
	// maxFragmentBytes bounds the innerHTML sources one Page retains; the
	// parses behind them are a small multiple of that.
	maxFragmentBytes = 1 << 20
	// maxProgramBytes bounds the script sources one ProgramCache retains.
	maxProgramBytes = 1 << 18
)

// parseCache maps source text to what parsing it produced.
type parseCache[T any] struct {
	parsed map[string]T
	bytes  int // Σ len(key)
}

// add records src → v, first emptying a cache that a new src would push
// past max. A source longer than max is not retained at all.
func (c *parseCache[T]) add(src string, v T, max int) {
	if len(src) > max {
		return
	}
	if _, ok := c.parsed[src]; !ok {
		if c.bytes+len(src) > max {
			clear(c.parsed)
			c.bytes = 0
		}
		c.bytes += len(src)
	}
	if c.parsed == nil {
		c.parsed = make(map[string]T)
	}
	c.parsed[src] = v
}

// ProgramCache parses each distinct JavaScript source once. The programs
// it returns are shared: executing one only reads it (js.RunProgram). The
// zero value is an empty cache of scripts, safe for concurrent use.
//
// A Page keeps a private one for its event-handler sources, which parses
// them as function bodies (js.ParseFunction). The one for <script>
// sources is the Page's Scripts field, which a crawler points at a cache
// of its own so that the script every page of a site carries is parsed
// once per process line.
type ProgramCache struct {
	mu       sync.Mutex
	progs    parseCache[*js.Program]
	handlers bool // parse as function bodies
}

// Program returns the parse of src. A source that does not parse is not
// remembered: every call reports its error afresh.
func (c *ProgramCache) Program(src string) (*js.Program, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prog, ok := c.progs.parsed[src]; ok {
		return prog, nil
	}
	// src is a substring of a page or response body and the AST keeps
	// substrings of what it is parsed from: parse a private copy, so
	// that a cached program pins its own source and nothing more.
	src = strings.Clone(src)
	parse := js.Parse
	if c.handlers {
		parse = js.ParseFunction
	}
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	c.progs.add(src, prog, maxProgramBytes)
	return prog, nil
}

// setInnerHTML replaces n's children with the parse of src — the DOM
// mutation behind `element.innerHTML = ...`. A write reattaches the nodes
// the last write of the source adopted when a rollback or a later write
// has cut them all loose unedited and no script ever held one
// (dom.Node.Readopt), which allocates nothing; otherwise it parses src,
// hashes the parse and adopts its nodes, and the cache keeps the first of
// them for the next write. The parse arrives with its digests, so
// rehashing the document afterwards hashes n and its ancestors only. The
// cached nodes die with the page, so their text (substrings of the
// response bodies) pins nothing beyond its lifetime.
func (p *Page) setInnerHTML(n *dom.Node, src string) {
	n.RemoveChildren()
	if first, ok := p.fragments.parsed[src]; ok && n.Readopt(first) {
		return
	}
	parse := html.ParseFragment(src)
	dom.CanonicalHash(parse)
	p.fragments.add(src, parse.FirstChild, maxFragmentBytes)
	n.AdoptChildren(parse)
}
