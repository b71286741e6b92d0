package js

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the JavaScript value kinds.
type Kind int

// Value kinds.
const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject
)

// Value is a JavaScript value. The zero Value is undefined.
type Value struct {
	kind Kind
	b    bool
	num  float64
	str  string
	obj  *Object
}

// Constructors.

// Undefined is the undefined value.
var Undefined = Value{}

// Null returns the null value.
func Null() Value { return Value{kind: KindNull} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Num returns a number value.
func Num(f float64) Value { return Value{kind: KindNumber, num: f} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// ObjVal wraps an object.
func ObjVal(o *Object) Value { return Value{kind: KindObject, obj: o} }

// Accessors.

// Kind returns the value kind.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports whether v is undefined.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Object returns the wrapped object (nil for non-objects).
func (v Value) Object() *Object {
	if v.kind == KindObject {
		return v.obj
	}
	return nil
}

// StrVal returns the raw string payload (only meaningful for strings).
func (v Value) StrVal() string { return v.str }

// NumVal returns the raw number payload (only meaningful for numbers).
func (v Value) NumVal() float64 { return v.num }

// BoolVal returns the raw bool payload (only meaningful for booleans).
func (v Value) BoolVal() bool { return v.b }

// TypeOf implements the typeof operator.
func (v Value) TypeOf() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindObject:
		if v.obj != nil && v.obj.IsCallable() {
			return "function"
		}
		return "object"
	}
	return "undefined"
}

// ToBool implements ToBoolean.
func (v Value) ToBool() bool {
	switch v.kind {
	case KindUndefined, KindNull:
		return false
	case KindBool:
		return v.b
	case KindNumber:
		return v.num != 0 && !math.IsNaN(v.num)
	case KindString:
		return v.str != ""
	case KindObject:
		return true
	}
	return false
}

// ToNumber implements ToNumber.
func (v Value) ToNumber() float64 {
	switch v.kind {
	case KindUndefined:
		return math.NaN()
	case KindNull:
		return 0
	case KindBool:
		if v.b {
			return 1
		}
		return 0
	case KindNumber:
		return v.num
	case KindString:
		s := strings.TrimSpace(v.str)
		if s == "" {
			return 0
		}
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			n, err := strconv.ParseUint(s[2:], 16, 64)
			if err != nil {
				return math.NaN()
			}
			return float64(n)
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case KindObject:
		return v.toPrimitive().ToNumber()
	}
	return math.NaN()
}

// ToInt32 implements ToInt32 for bitwise operators.
func (v Value) ToInt32() int32 {
	f := v.ToNumber()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(uint32(int64(f)))
}

// ToUint32 implements ToUint32.
func (v Value) ToUint32() uint32 {
	f := v.ToNumber()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return uint32(int64(f))
}

// ToString implements ToString.
func (v Value) ToString() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindNumber:
		return numToString(v.num)
	case KindString:
		return v.str
	case KindObject:
		return v.obj.toStringValue()
	}
	return "undefined"
}

// String implements fmt.Stringer with a debugging representation.
func (v Value) String() string {
	if v.kind == KindString {
		return fmt.Sprintf("%q", v.str)
	}
	return v.ToString()
}

// toPrimitive converts objects to a primitive (string preferred), the
// default ToPrimitive for our subset.
func (v Value) toPrimitive() Value {
	if v.kind != KindObject {
		return v
	}
	return Str(v.obj.toStringValue())
}

// numToString renders a float64 the way JavaScript does for the common
// cases: integers without a decimal point, NaN/Infinity named.
func numToString(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e21:
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindUndefined, KindNull:
		return true
	case KindBool:
		return a.b == b.b
	case KindNumber:
		return a.num == b.num // NaN != NaN naturally
	case KindString:
		return a.str == b.str
	case KindObject:
		return a.obj == b.obj
	}
	return false
}

// LooseEquals implements == with the usual coercions.
func LooseEquals(a, b Value) bool {
	if a.kind == b.kind {
		return StrictEquals(a, b)
	}
	switch {
	case (a.kind == KindNull && b.kind == KindUndefined) ||
		(a.kind == KindUndefined && b.kind == KindNull):
		return true
	case a.kind == KindNumber && b.kind == KindString:
		return a.num == b.ToNumber()
	case a.kind == KindString && b.kind == KindNumber:
		return a.ToNumber() == b.num
	case a.kind == KindBool:
		return LooseEquals(Num(a.ToNumber()), b)
	case b.kind == KindBool:
		return LooseEquals(a, Num(b.ToNumber()))
	case (a.kind == KindNumber || a.kind == KindString) && b.kind == KindObject:
		return LooseEquals(a, b.toPrimitive())
	case a.kind == KindObject && (b.kind == KindNumber || b.kind == KindString):
		return LooseEquals(a.toPrimitive(), b)
	}
	return false
}

// HostObject lets the embedder expose native-backed properties: the DOM
// element wrappers (innerHTML!), document, window, and XMLHttpRequest
// are all host objects. HostGet/HostSet take priority over the ordinary
// property map.
type HostObject interface {
	HostGet(name string) (Value, bool)
	HostSet(name string, v Value) bool
}

// NativeFunc is a Go-implemented JavaScript function.
type NativeFunc func(it *Interp, this Value, args []Value) (Value, error)

// Object is a JavaScript object: plain objects, arrays, and functions.
type Object struct {
	Class string // "Object", "Array", "Function"
	props map[string]Value
	keys  []string // insertion order, for deterministic for-in
	Proto *Object

	// Array backing store (Class == "Array").
	Elems []Value

	// Function payload: either Native or (Fn, Env).
	Native NativeFunc
	Fn     *FuncLit
	Env    *Env
	// Name is the function name for stack traces ("" = anonymous).
	Name string

	// Host hooks (may be nil).
	Host HostObject

	joining bool // inside its own appendJoin: a cycle renders as ""
}

// NewObject returns an empty plain object.
func NewObject() *Object {
	return &Object{Class: "Object"}
}

// NewArray returns an array object with the given elements.
func NewArray(elems ...Value) *Object {
	return &Object{Class: "Array", Elems: elems}
}

// NewNative wraps a Go function as a callable JS object.
func NewNative(name string, fn NativeFunc) *Object {
	return &Object{Class: "Function", Native: fn, Name: name}
}

// IsCallable reports whether the object can be invoked.
func (o *Object) IsCallable() bool { return o != nil && (o.Native != nil || o.Fn != nil) }

// IsArray reports whether the object is an array.
func (o *Object) IsArray() bool { return o != nil && o.Class == "Array" }

// GetOwn returns an own property (no proto chain, no host hook).
func (o *Object) GetOwn(name string) (Value, bool) {
	if o.props == nil {
		return Undefined, false
	}
	v, ok := o.props[name]
	return v, ok
}

// SetProp sets an own property, maintaining insertion order for for-in.
func (o *Object) SetProp(name string, v Value) {
	if o.props == nil {
		o.props = make(map[string]Value)
	}
	if _, exists := o.props[name]; !exists {
		o.keys = append(o.keys, name)
	}
	o.props[name] = v
}

// DeleteProp removes an own property.
func (o *Object) DeleteProp(name string) {
	if o.props == nil {
		return
	}
	if _, ok := o.props[name]; !ok {
		return
	}
	delete(o.props, name)
	for i, k := range o.keys {
		if k == name {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			break
		}
	}
}

// OwnKeys returns the enumerable keys: array indices first for arrays,
// then named props in insertion order.
func (o *Object) OwnKeys() []string {
	var out []string
	if o.IsArray() {
		for i := range o.Elems {
			out = append(out, strconv.Itoa(i))
		}
	}
	out = append(out, o.keys...)
	return out
}

// Get reads a property: host hook, array magic, own props, proto chain.
func (o *Object) Get(name string) (Value, bool) {
	if o.Host != nil {
		if v, ok := o.Host.HostGet(name); ok {
			return v, true
		}
	}
	if o.IsArray() {
		if name == "length" {
			return Num(float64(len(o.Elems))), true
		}
		if idx, ok := arrayIndex(name); ok {
			if idx < len(o.Elems) {
				return o.Elems[idx], true
			}
			return Undefined, true
		}
	}
	if v, ok := o.GetOwn(name); ok {
		return v, true
	}
	if o.Proto != nil {
		return o.Proto.Get(name)
	}
	return Undefined, false
}

// Has reports whether the property exists anywhere (for the in operator).
func (o *Object) Has(name string) bool {
	if o.Host != nil {
		if _, ok := o.Host.HostGet(name); ok {
			return true
		}
	}
	if o.IsArray() {
		if name == "length" {
			return true
		}
		if idx, ok := arrayIndex(name); ok && idx < len(o.Elems) {
			return true
		}
	}
	if _, ok := o.GetOwn(name); ok {
		return true
	}
	if o.Proto != nil {
		return o.Proto.Has(name)
	}
	return false
}

// arrayIndex parses an array element name: a non-negative integer below
// 2³²−1. Any other name is an ordinary property.
func arrayIndex(name string) (int, bool) {
	idx, err := strconv.Atoi(name)
	return idx, err == nil && idx >= 0 && idx < math.MaxUint32
}

// toStringValue implements the default object→string conversion. An
// array renders as its join, cut off at the byte budget: no conversion
// builds a string that no dispatch could pay for.
func (o *Object) toStringValue() string {
	if o == nil {
		return "null"
	}
	if o.IsArray() {
		var b strings.Builder
		appendJoin(&b, o, maxBytes)
		return b.String()
	}
	if o.IsCallable() {
		name := o.Name
		if name == "" {
			name = "anonymous"
		}
		return "function " + name + "() { [native or user code] }"
	}
	return "[object " + o.Class + "]"
}

// appendJoin appends the elements of array o joined by commas, rendered
// as a browser converts an array to a string, and reports whether the
// result fits in limit bytes; it stops short once it cannot. An array met
// again inside its own rendering renders as "", as browsers break cycles.
func appendJoin(b *strings.Builder, o *Object, limit int) bool {
	if o.joining {
		return true
	}
	o.joining = true
	defer func() { o.joining = false }()
	for i, e := range o.Elems {
		if i > 0 {
			b.WriteByte(',')
		}
		switch {
		case e.IsUndefined() || e.IsNull():
		case e.Object().IsArray():
			if !appendJoin(b, e.obj, limit) {
				return false
			}
		default:
			s := e.ToString()
			if b.Len()+len(s) > limit {
				return false
			}
			b.WriteString(s)
		}
		if b.Len() > limit {
			return false
		}
	}
	return true
}
