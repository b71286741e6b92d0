package browser

import (
	"strings"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/js"
)

// installHostObjects binds document, window, location, console and the
// XMLHttpRequest constructor into the page's interpreter. Every method a
// script can read off a host object is built here, once: document's as
// its own properties, those of element wrappers and XMLHttpRequest
// objects on one prototype each, finding their receiver through `this`.
func (p *Page) installHostObjects() {
	it := p.Interp

	docObj := js.NewObject()
	docObj.Class = "HTMLDocument"
	docObj.Host = &documentHost{page: p}
	p.installDocumentMethods(docObj)
	docVal := js.ObjVal(docObj)
	it.DefineGlobal("document", docVal)

	p.elementProto = p.newElementProto()
	p.xhrProto = newXHRProto()

	locObj := js.NewObject()
	locObj.Class = "Location"
	locObj.Host = &locationHost{page: p}
	locVal := js.ObjVal(locObj)
	docObj.SetProp("location", locVal)

	winObj := js.NewObject()
	winObj.Class = "Window"
	winObj.SetProp("document", docVal)
	winObj.SetProp("location", locVal)
	winObj.SetProp("setTimeout", js.ObjVal(js.NewNative("setTimeout", func(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		// The crawler runs synchronously; a timer would never fire, so
		// the callback is invoked immediately (delay collapsed to 0).
		if fn := argVal(args, 0); fn.Object().IsCallable() {
			if _, err := it.Call(fn, js.Undefined, nil); err != nil {
				return js.Undefined, err
			}
		}
		return js.Num(0), nil
	})))
	winObj.SetProp("clearTimeout", js.ObjVal(js.NewNative("clearTimeout", nativeNoop)))
	winObj.SetProp("setInterval", js.ObjVal(js.NewNative("setInterval", func(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		// Intervals never fire during a synchronous crawl.
		return js.Num(0), nil
	})))
	winObj.SetProp("clearInterval", js.ObjVal(js.NewNative("clearInterval", nativeNoop)))
	winObj.SetProp("alert", js.ObjVal(js.NewNative("alert", nativeNoop)))
	it.DefineGlobal("window", js.ObjVal(winObj))
	it.GlobalThis = js.ObjVal(winObj)
	for _, name := range []string{"setTimeout", "clearTimeout", "setInterval", "clearInterval", "alert"} {
		v, _ := winObj.Get(name)
		it.DefineGlobal(name, v)
	}
	it.DefineGlobal("location", locVal)

	consoleObj := js.NewObject()
	consoleObj.SetProp("log", js.ObjVal(js.NewNative("log", func(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		if len(p.ConsoleLog) >= maxConsoleLines {
			return js.Undefined, nil
		}
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.ToString()
		}
		p.ConsoleLog = append(p.ConsoleLog, strings.Join(parts, " "))
		return js.Undefined, nil
	})))
	it.DefineGlobal("console", js.ObjVal(consoleObj))

	it.DefineGlobal("XMLHttpRequest", js.ObjVal(js.NewNative("XMLHttpRequest", func(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		return js.ObjVal(p.newXHR()), nil
	})))
}

// maxConsoleLines bounds the console.log lines one Page keeps; a script
// that logs in a loop would otherwise hold every line for the page's life.
const maxConsoleLines = 1000

func nativeNoop(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
	return js.Undefined, nil
}

func argVal(args []js.Value, i int) js.Value {
	if i < len(args) {
		return args[i]
	}
	return js.Undefined
}

// ---- document ----

type documentHost struct{ page *Page }

func (d *documentHost) HostGet(name string) (js.Value, bool) {
	p := d.page
	switch name {
	case "body":
		if b := p.Doc.Body(); b != nil {
			return js.ObjVal(p.wrapElement(b)), true
		}
		return js.Null(), true
	case "title":
		for _, t := range p.Doc.ElementsByTag("title") {
			return js.Str(t.TextContent()), true
		}
		return js.Str(""), true
	case "URL":
		return js.Str(p.URL), true
	}
	return js.Undefined, false
}

// installDocumentMethods gives the document object its methods as own
// properties, which Object.Get reaches once HostGet has declined the name.
func (p *Page) installDocumentMethods(docObj *js.Object) {
	method := func(name string, fn func(args []js.Value) js.Value) {
		docObj.SetProp(name, js.ObjVal(js.NewNative(name, func(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
			return fn(args), nil
		})))
	}
	method("getElementById", func(args []js.Value) js.Value {
		n := p.Doc.ElementByID(argVal(args, 0).ToString())
		if n == nil {
			return js.Null()
		}
		return js.ObjVal(p.wrapElement(n))
	})
	method("getElementsByTagName", func(args []js.Value) js.Value {
		return p.elementsByTag(p.Doc, argVal(args, 0).ToString())
	})
	method("createElement", func(args []js.Value) js.Value {
		return js.ObjVal(p.wrapElement(dom.NewElement(argVal(args, 0).ToString())))
	})
	method("createTextNode", func(args []js.Value) js.Value {
		return js.ObjVal(p.wrapElement(dom.NewText(argVal(args, 0).ToString())))
	})
}

// elementsByTag is getElementsByTagName under root, as an array of
// element wrappers.
func (p *Page) elementsByTag(root *dom.Node, tag string) js.Value {
	if tag == "*" {
		tag = ""
	}
	nodes := root.ElementsByTag(tag)
	vals := make([]js.Value, len(nodes))
	for i, n := range nodes {
		vals[i] = js.ObjVal(p.wrapElement(n))
	}
	return js.ObjVal(js.NewArray(vals...))
}

func (d *documentHost) HostSet(name string, v js.Value) bool {
	// title assignment is the only mutable document property we honor.
	if name == "title" {
		for _, t := range d.page.Doc.ElementsByTag("title") {
			t.RemoveChildren()
			t.AppendChild(dom.NewText(v.ToString()))
			return true
		}
	}
	return false
}

// ---- location ----

type locationHost struct{ page *Page }

func (l *locationHost) HostGet(name string) (js.Value, bool) {
	switch name {
	case "href", "toString":
		return js.Str(l.page.URL), true
	}
	return js.Undefined, false
}

func (l *locationHost) HostSet(name string, v js.Value) bool {
	// Navigation during crawling is not followed (it would change the
	// URL, i.e. leave the AJAX page); the write is absorbed.
	return name == "href"
}

// ---- element wrappers ----

// wrapElement returns the (cached) JS host object for a DOM node. It
// holds the node (dom.Node.Hold): a script may keep the handle past a
// rollback, and a later innerHTML write must make fresh nodes, as a
// browser does, not reattach the copy the handle points into.
func (p *Page) wrapElement(n *dom.Node) *js.Object {
	if w, ok := p.wrappers[n]; ok {
		return w
	}
	n.Hold()
	o := js.NewObject()
	o.Class = "HTMLElement"
	o.Host = &elementHost{page: p, node: n}
	o.Proto = p.elementProto
	p.wrappers[n] = o
	return o
}

type elementHost struct {
	page  *Page
	node  *dom.Node
	style *js.Object // made on first read
}

func (e *elementHost) HostGet(name string) (js.Value, bool) {
	n := e.node
	p := e.page
	switch name {
	case "innerHTML":
		return js.Str(dom.InnerHTML(n)), true
	case "outerHTML":
		return js.Str(dom.OuterHTML(n)), true
	case "id":
		return js.Str(n.ID()), true
	case "tagName", "nodeName":
		return js.Str(strings.ToUpper(n.Data)), true
	case "className":
		return js.Str(n.AttrOr("class", "")), true
	case "innerText", "textContent":
		return js.Str(n.TextContent()), true
	case "value":
		return js.Str(n.AttrOr("value", "")), true
	case "parentNode":
		if n.Parent == nil || n.Parent.Type != dom.ElementNode {
			return js.Null(), true
		}
		return js.ObjVal(p.wrapElement(n.Parent)), true
	case "style":
		// A plain mutable object: assignments like el.style.display =
		// "none" succeed without affecting state hashes.
		if e.style == nil {
			e.style = js.NewObject()
		}
		return js.ObjVal(e.style), true
	}
	return js.Undefined, false
}

// newElementProto builds the prototype of the page's element wrappers.
func (p *Page) newElementProto() *js.Object {
	proto := js.NewObject()
	method := func(name string, fn func(n *dom.Node, args []js.Value) (js.Value, error)) {
		proto.SetProp(name, js.ObjVal(js.NewNative(name, func(it *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
			n := p.unwrapElement(this)
			if n == nil {
				return js.Undefined, &js.RuntimeError{Msg: name + ": this is not a node"}
			}
			return fn(n, args)
		})))
	}
	method("getAttribute", func(n *dom.Node, args []js.Value) (js.Value, error) {
		if v, ok := n.GetAttr(argVal(args, 0).ToString()); ok {
			return js.Str(v), nil
		}
		return js.Null(), nil
	})
	method("setAttribute", func(n *dom.Node, args []js.Value) (js.Value, error) {
		n.SetAttr(argVal(args, 0).ToString(), argVal(args, 1).ToString())
		return js.Undefined, nil
	})
	method("removeAttribute", func(n *dom.Node, args []js.Value) (js.Value, error) {
		n.RemoveAttr(argVal(args, 0).ToString())
		return js.Undefined, nil
	})
	method("appendChild", func(n *dom.Node, args []js.Value) (js.Value, error) {
		child := p.unwrapElement(argVal(args, 0))
		if child == nil {
			return js.Undefined, &js.RuntimeError{Msg: "appendChild: not a node"}
		}
		if child.Parent != nil {
			child.Parent.RemoveChild(child)
		}
		n.AppendChild(child)
		return argVal(args, 0), nil
	})
	method("removeChild", func(n *dom.Node, args []js.Value) (js.Value, error) {
		child := p.unwrapElement(argVal(args, 0))
		if child == nil || child.Parent != n {
			return js.Undefined, &js.RuntimeError{Msg: "removeChild: not a child"}
		}
		n.RemoveChild(child)
		return argVal(args, 0), nil
	})
	method("getElementsByTagName", func(n *dom.Node, args []js.Value) (js.Value, error) {
		return p.elementsByTag(n, argVal(args, 0).ToString()), nil
	})
	return proto
}

func (e *elementHost) HostSet(name string, v js.Value) bool {
	n := e.node
	switch name {
	case "innerHTML":
		e.page.setInnerHTML(n, v.ToString())
		return true
	case "innerText", "textContent":
		n.RemoveChildren()
		n.AppendChild(dom.NewText(v.ToString()))
		return true
	case "id":
		n.SetAttr("id", v.ToString())
		return true
	case "className":
		n.SetAttr("class", v.ToString())
		return true
	case "value":
		n.SetAttr("value", v.ToString())
		return true
	}
	return false
}

// unwrapElement recovers the DOM node behind an element wrapper value.
func (p *Page) unwrapElement(v js.Value) *dom.Node {
	o := v.Object()
	if o == nil {
		return nil
	}
	if eh, ok := o.Host.(*elementHost); ok {
		return eh.node
	}
	return nil
}
