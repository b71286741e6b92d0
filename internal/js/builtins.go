package js

import (
	"math"
	"strconv"
	"strings"
)

// installBuiltins defines the library: the eight globals the interpreter's
// contract names (DESIGN.md "Interpreter contract"). Any other global is
// unbound and no value has methods, so a call outside the library fails
// its handler with a TypeError.
func installBuiltins(it *Interp) {
	g := it.globals

	g["undefined"] = Undefined
	g["NaN"] = Num(math.NaN())
	g["Infinity"] = Num(math.Inf(1))

	g["parseInt"] = ObjVal(NewNative("parseInt", biParseInt))
	g["encodeURIComponent"] = ObjVal(NewNative("encodeURIComponent", func(it *Interp, this Value, args []Value) (Value, error) {
		s := encodeURIComponent(arg(args, 0).ToString())
		if err := it.charge(len(s), 1); err != nil { // at most 3× its input
			return Undefined, err
		}
		return Str(s), nil
	}))
	g["Error"] = ObjVal(errorCtor("Error"))
	g["TypeError"] = ObjVal(errorCtor("TypeError"))
	installJSON(it)
}

// errorCtor returns the constructor of the named error class: called with
// or without new, it returns an object with that name and the message.
func errorCtor(name string) *Object {
	return NewNative(name, func(it *Interp, this Value, args []Value) (Value, error) {
		return ObjVal(newError(name, arg(args, 0).ToString())), nil
	})
}

func newError(name, msg string) *Object {
	o := NewObject()
	o.Class = "Error"
	o.SetProp("name", Str(name))
	o.SetProp("message", Str(msg))
	return o
}

// arg returns args[i] or undefined.
func arg(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return Undefined
}

// encodeURIComponent escapes every UTF-8 byte of s outside the unreserved
// set A–Z a–z 0–9 - _ . ! ~ * ' ( ) as uppercase %XX (ECMA-262 §15.1.3.4),
// so a space is %20, not the form encoding's +.
func encodeURIComponent(s string) string {
	const hex = "0123456789ABCDEF"
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			strings.IndexByte("-_.!~*'()", c) >= 0 {
			b.WriteByte(c)
			continue
		}
		b.WriteByte('%')
		b.WriteByte(hex[c>>4])
		b.WriteByte(hex[c&15])
	}
	return b.String()
}

// biParseInt reads the longest prefix of digits in the radix: 10 when the
// radix is absent, undefined or 0, 16 after a 0x prefix; a radix outside
// 2–36 gives NaN.
func biParseInt(it *Interp, this Value, args []Value) (Value, error) {
	s := strings.TrimSpace(arg(args, 0).ToString())
	radix := 0
	if len(args) > 1 {
		if f := args[1].ToNumber(); !math.IsNaN(f) && !math.IsInf(f, 0) {
			radix = int(max(min(f, 1<<30), -1<<30))
		}
	}
	if radix != 0 && (radix < 2 || radix > 36) {
		return Num(math.NaN()), nil
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	} else if strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	if (radix == 0 || radix == 16) && (strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X")) {
		s = s[2:]
		radix = 16
	}
	if radix == 0 {
		radix = 10
	}
	// Consume the longest valid prefix.
	end := 0
	for end < len(s) && digitVal(s[end]) < radix {
		end++
	}
	if end == 0 {
		return Num(math.NaN()), nil
	}
	n, err := strconv.ParseInt(s[:end], radix, 64)
	f := float64(n)
	if err != nil {
		// Overflow: fall back to float accumulation.
		f = 0
		for i := 0; i < end; i++ {
			f = f*float64(radix) + float64(digitVal(s[i]))
		}
	}
	if neg {
		f = -f
	}
	return Num(f), nil
}

func digitVal(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'z':
		return int(b-'a') + 10
	case b >= 'A' && b <= 'Z':
		return int(b-'A') + 10
	}
	return 99
}
