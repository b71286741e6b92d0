package js

import (
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// installBuiltins defines the global functions and objects of the subset.
func installBuiltins(it *Interp) {
	g := it.globals

	g["undefined"] = Undefined
	g["NaN"] = Num(math.NaN())
	g["Infinity"] = Num(math.Inf(1))

	g["parseInt"] = ObjVal(NewNative("parseInt", biParseInt))
	g["parseFloat"] = ObjVal(NewNative("parseFloat", biParseFloat))
	g["isNaN"] = ObjVal(NewNative("isNaN", func(it *Interp, this Value, args []Value) (Value, error) {
		return Bool(math.IsNaN(arg(args, 0).ToNumber())), nil
	}))
	g["isFinite"] = ObjVal(NewNative("isFinite", func(it *Interp, this Value, args []Value) (Value, error) {
		f := arg(args, 0).ToNumber()
		return Bool(!math.IsNaN(f) && !math.IsInf(f, 0)), nil
	}))
	g["String"] = ObjVal(NewNative("String", func(it *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Str(""), nil
		}
		return Str(args[0].ToString()), nil
	}))
	g["Number"] = ObjVal(NewNative("Number", func(it *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Num(0), nil
		}
		return Num(args[0].ToNumber()), nil
	}))
	g["Boolean"] = ObjVal(NewNative("Boolean", func(it *Interp, this Value, args []Value) (Value, error) {
		return Bool(arg(args, 0).ToBool()), nil
	}))
	g["Array"] = ObjVal(NewNative("Array", func(it *Interp, this Value, args []Value) (Value, error) {
		n := len(args)
		if n == 1 && args[0].Kind() == KindNumber {
			var err *RuntimeError
			if n, err = arrayLength(args[0]); err != nil {
				return Undefined, err
			}
			args = nil
		}
		if err := it.charge(n, valueSize); err != nil {
			return Undefined, err
		}
		elems := make([]Value, n)
		copy(elems, args) // args is borrowed from the caller's stack
		return ObjVal(NewArray(elems...)), nil
	}))
	objectCtor := NewNative("Object", func(it *Interp, this Value, args []Value) (Value, error) {
		if len(args) > 0 && args[0].Kind() == KindObject {
			return args[0], nil
		}
		return ObjVal(NewObject()), nil
	})
	g["Object"] = ObjVal(objectCtor)
	errorCtor := NewNative("Error", func(it *Interp, this Value, args []Value) (Value, error) {
		o := NewObject()
		o.Class = "Error"
		o.SetProp("name", Str("Error"))
		o.SetProp("message", Str(arg(args, 0).ToString()))
		return ObjVal(o), nil
	})
	g["Error"] = ObjVal(errorCtor)
	g["TypeError"] = ObjVal(errorCtor)
	g["encodeURIComponent"] = ObjVal(NewNative("encodeURIComponent", func(it *Interp, this Value, args []Value) (Value, error) {
		return it.newString(url.QueryEscape(arg(args, 0).ToString()))
	}))
	g["decodeURIComponent"] = ObjVal(NewNative("decodeURIComponent", func(it *Interp, this Value, args []Value) (Value, error) {
		s, err := url.QueryUnescape(arg(args, 0).ToString())
		if err != nil {
			return Undefined, &Thrown{Value: Str("URIError: malformed URI")}
		}
		return it.newString(s)
	}))

	g["Math"] = ObjVal(makeMath(it))
	installJSON(it)
}

// arg returns args[i] or undefined.
func arg(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return Undefined
}

// toInt converts a numeric argument to an int for index arithmetic: NaN
// is 0 and magnitudes are clamped to 2³⁰, which no string or array the
// budgets admit reaches, so sums of two cannot overflow.
func toInt(v Value) int {
	f := v.ToNumber()
	if math.IsNaN(f) {
		return 0
	}
	return int(max(min(f, 1<<30), -1<<30))
}

// newString returns a string a builtin built from existing strings,
// charged to the byte budget; it is at most a small multiple of them.
func (it *Interp) newString(s string) (Value, error) {
	if err := it.charge(len(s), 1); err != nil {
		return Undefined, err
	}
	return Str(s), nil
}

// newArray returns an array of n elements filled by fill, charged to the
// byte budget before it is allocated.
func (it *Interp) newArray(n int, fill func(elems []Value)) (Value, error) {
	if err := it.charge(n, valueSize); err != nil {
		return Undefined, err
	}
	elems := make([]Value, n)
	fill(elems)
	return ObjVal(NewArray(elems...)), nil
}

func biParseInt(it *Interp, this Value, args []Value) (Value, error) {
	s := strings.TrimSpace(arg(args, 0).ToString())
	radix := 10
	if len(args) > 1 && !args[1].IsUndefined() {
		radix = toInt(args[1])
		if radix == 0 {
			radix = 10
		}
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	} else if strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	if (radix == 16 || radix == 10) && (strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X")) {
		s = s[2:]
		radix = 16
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
	if err != nil {
		// Overflow: fall back to float accumulation.
		f := 0.0
		for i := 0; i < end; i++ {
			f = f*float64(radix) + float64(digitVal(s[i]))
		}
		if neg {
			f = -f
		}
		return Num(f), nil
	}
	f := float64(n)
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

func biParseFloat(it *Interp, this Value, args []Value) (Value, error) {
	s := strings.TrimSpace(arg(args, 0).ToString())
	end := 0
	seenDot, seenExp := false, false
	for end < len(s) {
		c := s[end]
		switch {
		case c >= '0' && c <= '9':
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
		case (c == 'e' || c == 'E') && !seenExp && end > 0:
			seenExp = true
			if end+1 < len(s) && (s[end+1] == '+' || s[end+1] == '-') {
				end++
			}
		case (c == '+' || c == '-') && end == 0:
		default:
			goto done
		}
		end++
	}
done:
	if end == 0 {
		return Num(math.NaN()), nil
	}
	f, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return Num(math.NaN()), nil
	}
	return Num(f), nil
}

func makeMath(it *Interp) *Object {
	m := NewObject()
	m.SetProp("PI", Num(math.Pi))
	m.SetProp("E", Num(math.E))
	def := func(name string, fn NativeFunc) { m.SetProp(name, ObjVal(NewNative(name, fn))) }
	def("abs", func(it *Interp, this Value, args []Value) (Value, error) {
		return Num(math.Abs(arg(args, 0).ToNumber())), nil
	})
	def("floor", func(it *Interp, this Value, args []Value) (Value, error) {
		return Num(math.Floor(arg(args, 0).ToNumber())), nil
	})
	def("ceil", func(it *Interp, this Value, args []Value) (Value, error) {
		return Num(math.Ceil(arg(args, 0).ToNumber())), nil
	})
	def("round", func(it *Interp, this Value, args []Value) (Value, error) {
		return Num(math.Floor(arg(args, 0).ToNumber() + 0.5)), nil
	})
	def("sqrt", func(it *Interp, this Value, args []Value) (Value, error) {
		return Num(math.Sqrt(arg(args, 0).ToNumber())), nil
	})
	def("pow", func(it *Interp, this Value, args []Value) (Value, error) {
		return Num(math.Pow(arg(args, 0).ToNumber(), arg(args, 1).ToNumber())), nil
	})
	def("max", func(it *Interp, this Value, args []Value) (Value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			f := a.ToNumber()
			if math.IsNaN(f) {
				return Num(math.NaN()), nil
			}
			if f > out {
				out = f
			}
		}
		return Num(out), nil
	})
	def("min", func(it *Interp, this Value, args []Value) (Value, error) {
		out := math.Inf(1)
		for _, a := range args {
			f := a.ToNumber()
			if math.IsNaN(f) {
				return Num(math.NaN()), nil
			}
			if f < out {
				out = f
			}
		}
		return Num(out), nil
	})
	// Deterministic xorshift random: the crawler needs reproducible runs
	// (DESIGN.md "Determinism").
	def("random", func(it *Interp, this Value, args []Value) (Value, error) {
		x := it.rngState
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		it.rngState = x
		return Num(float64(x>>11) / float64(1<<53)), nil
	})
	return m
}

// ---- prototype method tables ----

func thisString(this Value) string { return this.ToString() }

var stringMethods = map[string]NativeFunc{
	"charAt": func(it *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		i := toInt(arg(args, 0))
		if i < 0 || i >= len(s) {
			return Str(""), nil
		}
		return Str(string(s[i])), nil
	},
	"charCodeAt": func(it *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		i := toInt(arg(args, 0))
		if i < 0 || i >= len(s) {
			return Num(math.NaN()), nil
		}
		return Num(float64(s[i])), nil
	},
	"indexOf": func(it *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		needle := arg(args, 0).ToString()
		from := 0
		if len(args) > 1 {
			from = clampIndex(toInt(args[1]), len(s))
		}
		idx := strings.Index(s[from:], needle)
		if idx < 0 {
			return Num(-1), nil
		}
		return Num(float64(idx + from)), nil
	},
	"lastIndexOf": func(it *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		return Num(float64(strings.LastIndex(s, arg(args, 0).ToString()))), nil
	},
	"substring": func(it *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		start := clampIndex(toInt(arg(args, 0)), len(s))
		end := len(s)
		if len(args) > 1 && !args[1].IsUndefined() {
			end = clampIndex(toInt(args[1]), len(s))
		}
		if start > end {
			start, end = end, start
		}
		return Str(s[start:end]), nil
	},
	"substr": func(it *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		start := toInt(arg(args, 0))
		if start < 0 {
			start = len(s) + start
			if start < 0 {
				start = 0
			}
		}
		if start > len(s) {
			start = len(s)
		}
		length := len(s) - start
		if len(args) > 1 && !args[1].IsUndefined() {
			length = toInt(args[1])
		}
		if length < 0 {
			length = 0
		}
		if start+length > len(s) {
			length = len(s) - start
		}
		return Str(s[start : start+length]), nil
	},
	"slice": func(it *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		start, end := sliceBounds(args, len(s))
		if start > end {
			return Str(""), nil
		}
		return Str(s[start:end]), nil
	},
	"split": func(it *Interp, this Value, args []Value) (Value, error) {
		s := thisString(this)
		if len(args) == 0 || args[0].IsUndefined() {
			return it.newArray(1, func(elems []Value) { elems[0] = Str(s) })
		}
		sep := args[0].ToString()
		if sep == "" {
			return it.newArray(len(s), func(elems []Value) {
				for i := range elems {
					elems[i] = Str(s[i : i+1])
				}
			})
		}
		return it.newArray(strings.Count(s, sep)+1, func(elems []Value) {
			for i, part := range strings.Split(s, sep) {
				elems[i] = Str(part)
			}
		})
	},
	"toLowerCase": func(it *Interp, this Value, args []Value) (Value, error) {
		return it.newString(strings.ToLower(thisString(this)))
	},
	"toUpperCase": func(it *Interp, this Value, args []Value) (Value, error) {
		return it.newString(strings.ToUpper(thisString(this)))
	},
	"replace": func(it *Interp, this Value, args []Value) (Value, error) {
		// String-pattern form only (no regexes in the subset): replaces
		// the first occurrence, as JS does for string patterns.
		s := thisString(this)
		pat := arg(args, 0).ToString()
		repl := arg(args, 1).ToString()
		return it.newString(strings.Replace(s, pat, repl, 1))
	},
	"concat": func(it *Interp, this Value, args []Value) (Value, error) {
		parts := make([]string, len(args)+1)
		parts[0] = thisString(this)
		n := len(parts[0])
		for i, a := range args {
			parts[i+1] = a.ToString()
			n += len(parts[i+1])
		}
		if err := it.charge(n, 1); err != nil {
			return Undefined, err
		}
		return Str(strings.Join(parts, "")), nil
	},
	"trim": func(it *Interp, this Value, args []Value) (Value, error) {
		return Str(strings.TrimSpace(thisString(this))), nil
	},
	"toString": func(it *Interp, this Value, args []Value) (Value, error) {
		return Str(thisString(this)), nil
	},
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

// sliceBounds resolves (start, end) arguments with negative indexing.
func sliceBounds(args []Value, n int) (int, int) {
	start := 0
	if len(args) > 0 && !args[0].IsUndefined() {
		start = toInt(args[0])
		if start < 0 {
			start += n
		}
		start = clampIndex(start, n)
	}
	end := n
	if len(args) > 1 && !args[1].IsUndefined() {
		end = toInt(args[1])
		if end < 0 {
			end += n
		}
		end = clampIndex(end, n)
	}
	return start, end
}

var numberMethods = map[string]NativeFunc{
	"toString": func(it *Interp, this Value, args []Value) (Value, error) {
		if len(args) > 0 && !args[0].IsUndefined() {
			radix := toInt(args[0])
			if radix >= 2 && radix <= 36 {
				return Str(strconv.FormatInt(int64(this.ToNumber()), radix)), nil
			}
		}
		return Str(this.ToString()), nil
	},
	"toFixed": func(it *Interp, this Value, args []Value) (Value, error) {
		digits := toInt(arg(args, 0))
		if digits < 0 || digits > 100 {
			return Undefined, &RuntimeError{Msg: "toFixed() digits out of range"}
		}
		return Str(strconv.FormatFloat(this.ToNumber(), 'f', digits, 64)), nil
	},
}

var arrayMethods map[string]NativeFunc

func init() {
	arrayMethods = map[string]NativeFunc{
		"push": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return Undefined, &RuntimeError{Msg: "push on non-array"}
			}
			if err := it.charge(len(args), valueSize); err != nil {
				return Undefined, err
			}
			o.Elems = append(o.Elems, args...)
			return Num(float64(len(o.Elems))), nil
		},
		"pop": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil || len(o.Elems) == 0 {
				return Undefined, nil
			}
			v := o.Elems[len(o.Elems)-1]
			o.Elems = o.Elems[:len(o.Elems)-1]
			return v, nil
		},
		"shift": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil || len(o.Elems) == 0 {
				return Undefined, nil
			}
			v := o.Elems[0]
			o.Elems = o.Elems[1:] // O(1): a shift loop must not be quadratic
			return v, nil
		},
		"unshift": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return Undefined, &RuntimeError{Msg: "unshift on non-array"}
			}
			// The whole array is copied, so the whole array is charged.
			if err := it.charge(len(args)+len(o.Elems), valueSize); err != nil {
				return Undefined, err
			}
			o.Elems = append(append([]Value(nil), args...), o.Elems...)
			return Num(float64(len(o.Elems))), nil
		},
		"join": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return Str(""), nil
			}
			sep := ","
			if len(args) > 0 && !args[0].IsUndefined() {
				sep = args[0].ToString()
			}
			var b strings.Builder
			if !appendJoin(&b, o, sep, maxBytes-it.bytes) {
				return Undefined, ErrMemory
			}
			return it.newString(b.String())
		},
		"slice": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return ObjVal(NewArray()), nil
			}
			start, end := sliceBounds(args, len(o.Elems))
			if start > end {
				return ObjVal(NewArray()), nil
			}
			return it.newArray(end-start, func(elems []Value) { copy(elems, o.Elems[start:end]) })
		},
		"concat": func(it *Interp, this Value, args []Value) (Value, error) {
			var head []Value
			if o := this.Object(); o != nil {
				head = o.Elems
			}
			n := len(head)
			for _, a := range args {
				if ao := a.Object(); ao.IsArray() {
					n += len(ao.Elems)
				} else {
					n++
				}
			}
			return it.newArray(n, func(elems []Value) {
				out := append(elems[:0], head...)
				for _, a := range args {
					if ao := a.Object(); ao.IsArray() {
						out = append(out, ao.Elems...)
					} else {
						out = append(out, a)
					}
				}
			})
		},
		"indexOf": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return Num(-1), nil
			}
			needle := arg(args, 0)
			for i, e := range o.Elems {
				if StrictEquals(e, needle) {
					return Num(float64(i)), nil
				}
			}
			return Num(-1), nil
		},
		"splice": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return ObjVal(NewArray()), nil
			}
			n := len(o.Elems)
			start := toInt(arg(args, 0))
			if start < 0 {
				start += n
			}
			start = clampIndex(start, n)
			count := n - start
			if len(args) > 1 && !args[1].IsUndefined() {
				count = toInt(args[1])
			}
			if count < 0 {
				count = 0
			}
			if start+count > n {
				count = n - start
			}
			var inserted []Value
			if len(args) > 2 {
				inserted = args[2:]
			}
			// removed and tail are copies, the inserted elements growth.
			if err := it.charge(n-start+len(inserted), valueSize); err != nil {
				return Undefined, err
			}
			removed := make([]Value, count)
			copy(removed, o.Elems[start:start+count])
			tail := append([]Value(nil), o.Elems[start+count:]...)
			o.Elems = append(append(o.Elems[:start], inserted...), tail...)
			return ObjVal(NewArray(removed...)), nil
		},
		"sort": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return this, nil
			}
			cmp := arg(args, 0)
			var sortErr error
			// The comparator may resize the array under the sort: index
			// the slice being sorted, not the array's current one.
			elems := o.Elems
			sort.SliceStable(elems, func(i, j int) bool {
				if sortErr != nil {
					return false
				}
				a, b := elems[i], elems[j]
				if fn := cmp.Object(); fn.IsCallable() {
					r, err := it.callFunction(fn, Undefined, []Value{a, b}, 0)
					if err != nil {
						sortErr = err
						return false
					}
					return r.ToNumber() < 0
				}
				return a.ToString() < b.ToString()
			})
			if sortErr != nil {
				return Undefined, sortErr
			}
			return this, nil
		},
		"map": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			fn := arg(args, 0).Object()
			if o == nil || !fn.IsCallable() {
				return ObjVal(NewArray()), nil
			}
			if err := it.charge(len(o.Elems), valueSize); err != nil {
				return Undefined, err
			}
			out := make([]Value, len(o.Elems))
			for i, e := range o.Elems {
				v, err := it.callFunction(fn, Undefined, []Value{e, Num(float64(i)), this}, 0)
				if err != nil {
					return Undefined, err
				}
				out[i] = v
			}
			return ObjVal(NewArray(out...)), nil
		},
		"filter": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			fn := arg(args, 0).Object()
			if o == nil || !fn.IsCallable() {
				return ObjVal(NewArray()), nil
			}
			if err := it.charge(len(o.Elems), valueSize); err != nil {
				return Undefined, err
			}
			var out []Value
			for i, e := range o.Elems {
				v, err := it.callFunction(fn, Undefined, []Value{e, Num(float64(i)), this}, 0)
				if err != nil {
					return Undefined, err
				}
				if v.ToBool() {
					out = append(out, e)
				}
			}
			return ObjVal(NewArray(out...)), nil
		},
		"reverse": func(it *Interp, this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil {
				return this, nil
			}
			for i, j := 0, len(o.Elems)-1; i < j; i, j = i+1, j-1 {
				o.Elems[i], o.Elems[j] = o.Elems[j], o.Elems[i]
			}
			return this, nil
		},
		"toString": func(it *Interp, this Value, args []Value) (Value, error) {
			return Str(this.ToString()), nil
		},
	}
}

var functionMethods map[string]NativeFunc

func init() {
	functionMethods = map[string]NativeFunc{
		"call": func(it *Interp, this Value, args []Value) (Value, error) {
			fn := this.Object()
			if !fn.IsCallable() {
				return Undefined, &RuntimeError{Msg: "call on non-function"}
			}
			newThis := arg(args, 0)
			var rest []Value
			if len(args) > 1 {
				rest = args[1:]
			}
			return it.callFunction(fn, newThis, rest, 0)
		},
		"apply": func(it *Interp, this Value, args []Value) (Value, error) {
			fn := this.Object()
			if !fn.IsCallable() {
				return Undefined, &RuntimeError{Msg: "apply on non-function"}
			}
			newThis := arg(args, 0)
			var rest []Value
			if len(args) > 1 {
				if ao := args[1].Object(); ao.IsArray() {
					rest = ao.Elems
				}
			}
			return it.callFunction(fn, newThis, rest, 0)
		},
	}
}

var objectMethods = map[string]NativeFunc{
	"hasOwnProperty": func(it *Interp, this Value, args []Value) (Value, error) {
		o := this.Object()
		if o == nil {
			return Bool(false), nil
		}
		name := arg(args, 0).ToString()
		if o.IsArray() {
			if idx, err := strconv.Atoi(name); err == nil && idx >= 0 && idx < len(o.Elems) {
				return Bool(true), nil
			}
		}
		_, ok := o.GetOwn(name)
		return Bool(ok), nil
	},
	"toString": func(it *Interp, this Value, args []Value) (Value, error) {
		return Str(this.ToString()), nil
	},
}
