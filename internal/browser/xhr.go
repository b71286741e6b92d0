package browser

import (
	"strconv"
	"strings"

	"ajaxcrawl/internal/js"
	"ajaxcrawl/internal/obs"
)

// xhrState is one XMLHttpRequest instance: the host object behind the
// script's `new XMLHttpRequest()`.
type xhrState struct {
	page         *Page
	method       string
	url          string
	async        bool
	responseText string
	status       float64
	readyState   float64
	onChange     js.Value
}

// newXHR creates the object for `new XMLHttpRequest()`.
func (p *Page) newXHR() *js.Object {
	o := js.NewObject()
	o.Class = "XMLHttpRequest"
	o.Host = &xhrState{page: p}
	o.Proto = p.xhrProto
	return o
}

// newXHRProto builds the prototype that carries the XMLHttpRequest
// methods; they reach the instance through `this`.
func newXHRProto() *js.Object {
	proto := js.NewObject()
	method := func(name string, fn func(it *js.Interp, st *xhrState, args []js.Value) error) {
		proto.SetProp(name, js.ObjVal(js.NewNative(name, func(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
			var st *xhrState
			if o := this.Object(); o != nil {
				st, _ = o.Host.(*xhrState)
			}
			if st == nil {
				return js.Undefined, &js.RuntimeError{Msg: name + ": this is not an XMLHttpRequest"}
			}
			return js.Undefined, fn(it, st, args)
		})))
	}
	method("open", func(it *js.Interp, st *xhrState, args []js.Value) error {
		st.method = strings.ToUpper(argVal(args, 0).ToString())
		st.url = st.page.resolve(argVal(args, 1).ToString())
		st.async = argVal(args, 2).ToBool()
		st.readyState = 1
		return nil
	})
	method("send", func(it *js.Interp, st *xhrState, args []js.Value) error { return st.send(it) })
	noop := func(*js.Interp, *xhrState, []js.Value) error { return nil }
	method("setRequestHeader", noop)
	method("abort", noop)
	return proto
}

func (st *xhrState) HostGet(name string) (js.Value, bool) {
	switch name {
	case "responseText":
		return js.Str(st.responseText), true
	case "status":
		return js.Num(st.status), true
	case "readyState":
		return js.Num(st.readyState), true
	case "onreadystatechange":
		return st.onChange, true
	}
	return js.Undefined, false
}

func (st *xhrState) HostSet(name string, v js.Value) bool {
	if name == "onreadystatechange" {
		st.onChange = v
		return true
	}
	return false
}

// send performs the request. This is where the hot-node interception
// point sits: the crawler's XHRHook can answer from its cache (no
// network), or observe a fresh 200 response to populate the cache.
//
// The crawl is synchronous: even async requests complete before send
// returns, then onreadystatechange fires once with readyState 4 — the
// behaviour AJAX pages observe under Rhino-driven crawling too.
//
// Only GET is sent: a Fetcher takes a URL alone, so any other method
// would leave as a GET without its body and could be answered from the
// hot-node cache. Such a send throws a NetworkError naming the method
// before anything is fetched, cached or counted as a send.
func (st *xhrState) send(it *js.Interp) error {
	p := st.page
	if st.method != "GET" {
		st.status = 0
		st.readyState = 4
		return &js.Thrown{Value: js.Str("NetworkError: XMLHttpRequest method " + strconv.Quote(st.method) + " is not sent; the crawler sends GET only")}
	}
	p.XHRSends++
	req := &XHRRequest{Method: st.method, URL: st.url, Async: st.async}

	ctx, sp := obs.StartSpan(p.Context(), obs.SpanXHRSend, obs.A("url", st.url), obs.A("method", st.method))

	served := false
	if p.XHR != nil {
		if body, ok := p.XHR.BeforeSend(p, req); ok {
			st.responseText = body
			st.status = 200
			served = true
		}
	}
	if !served {
		// Script-initiated network runs under the context of the
		// Load/Trigger call that dispatched this handler, so the
		// per-page budget covers XHR traffic too.
		resp, err := p.Fetcher.Fetch(ctx, st.url)
		p.NetworkCalls++
		if err != nil {
			st.status = 0
			st.readyState = 4
			sp.SetAttr("intercepted", "false")
			sp.End(err)
			return &js.Thrown{Value: js.Str("NetworkError: " + err.Error())}
		}
		st.responseText = string(resp.Body)
		st.status = float64(resp.Status)
		if p.XHR != nil && resp.Status == 200 {
			// A hit replays status 200, so only a 200 body may be kept.
			p.XHR.AfterSend(p, req, st.responseText)
		}
	}
	sp.SetAttr("intercepted", strconv.FormatBool(served))
	sp.End(nil)
	st.readyState = 4
	if st.onChange.Object().IsCallable() {
		if _, err := it.Call(st.onChange, js.Undefined, nil); err != nil {
			return err
		}
	}
	return nil
}
