// Package browser emulates the client side of an AJAX application: it
// loads a page through a fetch.Fetcher, parses it into a DOM, executes
// the page's JavaScript with document/window/XMLHttpRequest host objects
// bound, enumerates and dispatches user events, and supports the DOM
// snapshot/rollback the crawling algorithm needs (Alg. 3.1.1 line 17).
//
// The XMLHttpRequest binding exposes an interception point (XHRHook)
// right where the thesis's Observer on XMLHttpRequest.open() sits
// (§4.4.1): the hot-node machinery of the crawler plugs in there.
package browser

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/url"
	"slices"
	"strings"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/html"
	"ajaxcrawl/internal/js"
	"ajaxcrawl/internal/obs"
)

// EventTypes are the event-handler attributes the crawler invokes, in
// priority order (thesis §3.2 "we can focus just on the most important
// events").
var EventTypes = []string{"onclick", "ondblclick", "onmouseover", "onmousedown"}

// XHRRequest describes one XMLHttpRequest about to be sent.
type XHRRequest struct {
	Method string
	URL    string // resolved against the page URL
	Async  bool
}

// XHRHook intercepts XMLHttpRequest traffic. BeforeSend may serve the
// request from a cache (returning intercepted = true skips the network);
// AfterSend observes responses that did hit the network and answered 200.
type XHRHook interface {
	BeforeSend(p *Page, req *XHRRequest) (body string, intercepted bool)
	AfterSend(p *Page, req *XHRRequest, body string)
}

// Event is one invocable user event found in the current DOM.
type Event struct {
	Type string // "onclick", ...
	Code string // handler source
	Path string // structural path of the source element
	ID   string // id attribute of the source element ("" when absent)
}

// Source names the event's source element: its id, else its path.
func (e Event) Source() string {
	if e.ID != "" {
		return e.ID
	}
	return e.Path
}

// String renders the event for transition annotations.
func (e Event) String() string { return e.Type + "@" + e.Source() }

// Page is one loaded AJAX page with its live DOM and script state.
type Page struct {
	URL     string
	Doc     *dom.Node
	Interp  *js.Interp
	Fetcher fetch.Fetcher
	XHR     XHRHook

	// MaxJSSteps bounds the interpreter steps per handler dispatch
	// (0 = the interpreter default). The crawler sets it from
	// Options.JSStepBudget so a hostile while(true) handler is
	// preempted instead of hanging the process line.
	MaxJSSteps int

	// NetworkCalls counts XHR sends that actually hit the Fetcher
	// (intercepted sends are not network calls).
	NetworkCalls int
	// XHRSends counts all XHR sends, intercepted or not.
	XHRSends int
	// ConsoleLog collects console.log output for debugging: the first
	// maxConsoleLines lines of the page's life.
	ConsoleLog []string

	// Scripts parses the page's <script> sources. NewPage installs a
	// private cache; a crawler substitutes the one it shares among its
	// pages before Load.
	Scripts *ProgramCache
	// Slab holds the trees of the page's load and innerHTML writes. A
	// caller that reads each load only until the next may Reset it.
	Slab html.Slab

	handlers  ProgramCache          // event-handler source → program
	fragments parseCache[*dom.Node] // innerHTML source → first node of its parse (setInnerHTML)
	wrappers  map[*dom.Node]*js.Object
	// elementProto and xhrProto carry the methods of element wrappers and
	// XMLHttpRequest objects, built once per Load.
	elementProto, xhrProto *js.Object
	// ctx is the context of the Load/Trigger call currently executing;
	// host objects (XMLHttpRequest) fetch under it so script-initiated
	// network inherits the page budget.
	ctx context.Context
	// base is URL parsed, when baseOf is URL (see resolve).
	base   *url.URL
	baseOf string
}

// Context returns the context of the in-flight Load/Trigger call (the
// one host objects should fetch under), or Background between calls.
func (p *Page) Context() context.Context {
	if p.ctx != nil {
		return p.ctx
	}
	return context.Background()
}

// bind installs ctx as the page's execution context and points the
// interpreter's interrupt hook at it. The returned func restores the
// previous context (for nested calls).
func (p *Page) bind(ctx context.Context) func() {
	prev := p.ctx
	p.ctx = ctx
	if p.Interp != nil {
		p.Interp.Interrupt = ctx.Err
	}
	return func() { p.ctx = prev }
}

// NewPage returns an unloaded page bound to a fetcher.
func NewPage(fetcher fetch.Fetcher) *Page {
	return &Page{Fetcher: fetcher, Scripts: new(ProgramCache), handlers: ProgramCache{handlers: true}}
}

// Load fetches and parses the document at rawurl, binds the host objects
// and runs all scripts in document order. It does not fire onload; call
// RunOnLoad after Load, as the crawling algorithm does (Alg. 3.1.1
// line 3).
func (p *Page) Load(ctx context.Context, rawurl string) error {
	if err := p.LoadStatic(ctx, rawurl); err != nil {
		return err
	}
	p.Interp = js.New()
	p.Interp.MaxSteps = p.MaxJSSteps
	p.wrappers = make(map[*dom.Node]*js.Object)
	p.installHostObjects()
	defer p.bind(ctx)()
	return p.runScripts(ctx)
}

// LoadStatic fetches and parses the document without creating a script
// environment — the "traditional crawling" mode where JavaScript is
// disabled (thesis §7.1.2).
func (p *Page) LoadStatic(ctx context.Context, rawurl string) error {
	resp, err := p.Fetcher.Fetch(ctx, rawurl)
	if err != nil {
		return fmt.Errorf("browser: load %s: %w", rawurl, err)
	}
	if resp.Status != 200 {
		return fmt.Errorf("browser: load %s: status %d", rawurl, resp.Status)
	}
	p.URL = rawurl
	p.Doc = p.Slab.Parse(string(resp.Body), false)
	return nil
}

// runScripts executes every <script> element in document order.
func (p *Page) runScripts(ctx context.Context) error {
	for _, s := range p.Doc.ElementsByTag("script") {
		var code string
		if src, ok := s.GetAttr("src"); ok && src != "" {
			resp, err := p.Fetcher.Fetch(ctx, p.resolve(src))
			if err != nil {
				return fmt.Errorf("browser: external script %s: %w", src, err)
			}
			code = string(resp.Body)
		} else if s.FirstChild != nil {
			code = s.FirstChild.Data
		}
		if strings.TrimSpace(code) == "" {
			continue
		}
		prog, err := p.Scripts.Program(code)
		if err == nil {
			_, err = p.Interp.RunProgram(prog)
		}
		if err != nil {
			return fmt.Errorf("browser: script error on %s: %w", p.URL, err)
		}
	}
	return nil
}

// RunOnLoad fires the body element's onload handler, if any.
func (p *Page) RunOnLoad(ctx context.Context) error {
	body := p.Doc.Body()
	if body == nil {
		return nil
	}
	code, ok := body.GetAttr("onload")
	if !ok || strings.TrimSpace(code) == "" {
		return nil
	}
	return p.runHandler(ctx, "onload", code, body)
}

// Events returns the invocable events in the current DOM, in document
// order, filtered to the given types (nil means EventTypes).
func (p *Page) Events(types []string) []Event {
	if types == nil {
		types = EventTypes
	}
	return p.events(types, false)
}

// events returns, in document order, an Event for each handler attribute
// in types with a non-blank value — on input and textarea elements only,
// when fields is set.
func (p *Page) events(types []string, fields bool) []Event {
	var out []Event
	p.Doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode || fields && n.Data != "input" && n.Data != "textarea" {
			return true
		}
		for _, a := range n.Attr {
			if slices.Contains(types, a.Key) && strings.TrimSpace(a.Val) != "" {
				out = append(out, Event{Type: a.Key, Code: a.Val, Path: n.Path(), ID: n.ID()})
			}
		}
		return true
	})
	return out
}

// source finds the element an event fires on: by path, or by id when the
// state changed under us, which keeps replay robust.
func (p *Page) source(ev Event) (*dom.Node, error) {
	node := p.Doc.ByPath(ev.Path)
	if node == nil && ev.ID != "" {
		node = p.Doc.ElementByID(ev.ID)
	}
	if node == nil {
		return nil, fmt.Errorf("browser: event source %s not found", ev.Path)
	}
	return node, nil
}

// Trigger dispatches an event: it executes the handler code with `this`
// bound to the source element. It reports whether the DOM changed.
func (p *Page) Trigger(ctx context.Context, ev Event) (changed bool, err error) {
	node, err := p.source(ev)
	if err != nil {
		return false, err
	}
	// Free on a Restored document (it arrives hashed); afterwards only
	// the subtrees the handler touched are rehashed.
	before := dom.CanonicalHash(p.Doc)
	if err := p.runHandler(ctx, ev.Type, ev.Code, node); err != nil {
		return false, err
	}
	return dom.CanonicalHash(p.Doc) != before, nil
}

// runHandler invokes handler code with this = element; each distinct
// source is parsed once per page. Each dispatch is one event.dispatch
// span; budget preemptions (steps or bytes) feed the live registry.
func (p *Page) runHandler(ctx context.Context, name, code string, node *dom.Node) (err error) {
	tel := obs.From(ctx)
	if tel != nil {
		var sp *obs.Span
		ctx, sp = obs.StartSpan(ctx, obs.SpanEventDispatch, obs.A("handler", name), obs.A("source", node.Path()))
		defer func() {
			sp.End(err)
			if errors.Is(err, js.ErrBudget) || errors.Is(err, js.ErrMemory) {
				tel.Counter("js.preemptions").Inc()
			}
		}()
	}
	defer p.bind(ctx)()
	p.Interp.ResetBudget()
	prog, err := p.handlers.Program(code)
	if err != nil {
		return fmt.Errorf("browser: handler %s: %w", name, err)
	}
	fn := p.Interp.CompileFunction(name, prog)
	if _, err = p.Interp.Call(fn, js.ObjVal(p.wrapElement(node)), nil); err != nil {
		return fmt.Errorf("browser: handler %s: %w", name, err)
	}
	return nil
}

// Snapshot captures the current DOM for later rollback.
type Snapshot struct {
	doc *dom.Node
}

// Snapshot captures the current DOM, hashed, so that every Restore of it
// starts fully hashed. The document Load built, the initial state, becomes
// its own snapshot (dom.Own), so a handle its scripts took reaches the
// snapshot; any other is a snapshot's tree with edits, and is copied.
func (p *Page) Snapshot() *Snapshot {
	dom.CanonicalHash(p.Doc)
	if !dom.Own(p.Doc) {
		return &Snapshot{doc: p.Doc.Clone()}
	}
	// Own relinked the fragments in the document: they are spares no more.
	maps.DeleteFunc(p.fragments.parsed, func(_ string, first *dom.Node) bool { return first != nil && first.Parent != nil })
	return &Snapshot{doc: p.Doc}
}

// Restore rolls the DOM back to a snapshot. JavaScript global state is
// intentionally kept (snapshot-isolation assumption, thesis §4.3): only
// the document is rolled back, exactly like appModel.rollback(t). A
// snapshot's own tree is the document it restores. Restore reverts the
// outgoing document (dom.Revert): the nodes the events since displaced are
// relinked, those they inserted cut loose for the next innerHTML write to
// reattach, and nothing is allocated. For that same snapshot this is all:
// the nodes are the ones the scripts saw, so their element wrappers stay,
// identity and expandos being JS state; only each one's style object,
// which stands for the style attribute the revert put back, is reset.
// Another snapshot's tree is reverted of what handles kept from an
// earlier visit wrote to it since, and becomes the document with fresh
// wrappers.
func (p *Page) Restore(s *Snapshot) {
	dom.Revert(p.Doc)
	if p.Doc != s.doc {
		dom.Revert(s.doc)
		p.Doc = s.doc
		clear(p.wrappers)
	}
	for _, w := range p.wrappers {
		w.Host.(*elementHost).style = nil
	}
}

// Hash returns the canonical state hash of the current DOM.
func (p *Page) Hash() dom.Hash { return dom.CanonicalHash(p.Doc) }

// resolve resolves a possibly-relative URL against the page URL, parsed
// once per value of URL.
func (p *Page) resolve(ref string) string {
	if p.base == nil || p.baseOf != p.URL {
		p.base, _ = url.Parse(p.URL)
		p.baseOf = p.URL
	}
	r, err := url.Parse(ref)
	if err != nil || p.base == nil {
		return ref
	}
	return p.base.ResolveReference(r).String()
}

// Links returns the absolute URLs of all <a href> hyperlinks in the
// current DOM (the traditional link structure used by the precrawler).
func (p *Page) Links() []string {
	var out []string
	for _, a := range p.Doc.ElementsByTag("a") {
		href, ok := a.GetAttr("href")
		if !ok || href == "" || strings.HasPrefix(href, "#") || strings.HasPrefix(href, "javascript:") {
			continue
		}
		out = append(out, p.resolve(href))
	}
	return out
}

// FormEventTypes are the handler attributes fired by user text input.
var FormEventTypes = []string{"onkeyup", "onchange", "oninput"}

// FormEvents returns the input-driven events of the current DOM: input
// and textarea elements whose FormEventTypes handler reacts to typed
// values (Google-Suggest-style AJAX, thesis ch. 10 future work).
func (p *Page) FormEvents() []Event { return p.events(FormEventTypes, true) }

// TriggerWithValue fills the event's source input with value and then
// dispatches the handler — one probe of the form-crawling extension.
func (p *Page) TriggerWithValue(ctx context.Context, ev Event, value string) (changed bool, err error) {
	node, err := p.source(ev)
	if err != nil {
		return false, err
	}
	node.SetAttr("value", value)
	return p.Trigger(ctx, ev)
}
