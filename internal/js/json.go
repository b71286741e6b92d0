package js

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// installJSON defines the global JSON object with parse only: the
// JSON-over-XHR pattern reads a response with it (DESIGN.md "Interpreter
// contract").
func installJSON(it *Interp) {
	j := NewObject()
	j.SetProp("parse", ObjVal(NewNative("parse", biJSONParse)))
	it.DefineGlobal("JSON", ObjVal(j))
}

func biJSONParse(it *Interp, this Value, args []Value) (Value, error) {
	p := &jsonParser{it: it, src: arg(args, 0).ToString()}
	v, err := p.value(0)
	if errors.Is(err, ErrMemory) {
		return Undefined, err
	}
	if err != nil {
		return Undefined, &Thrown{Value: Str("SyntaxError: " + err.Error())}
	}
	p.ws()
	if p.pos != len(p.src) {
		return Undefined, &Thrown{Value: Str("SyntaxError: trailing characters in JSON")}
	}
	return v, nil
}

// jsonParser reads a JSON text into values, charging each array element
// and object property to the byte budget.
type jsonParser struct {
	it  *Interp
	src string
	pos int
}

// maxJSONDepth bounds the nesting JSON.parse follows, and with it the
// parser's recursion on a hostile response body.
const maxJSONDepth = 512

func (p *jsonParser) ws() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *jsonParser) value(depth int) (Value, error) {
	p.ws()
	if p.pos >= len(p.src) {
		return Undefined, fmt.Errorf("unexpected end of JSON")
	}
	if depth > maxJSONDepth {
		return Undefined, fmt.Errorf("JSON nested too deeply at %d", p.pos)
	}
	switch c := p.src[p.pos]; {
	case c == '{':
		return p.object(depth)
	case c == '[':
		return p.array(depth)
	case c == '"':
		s, err := p.string()
		if err != nil {
			return Undefined, err
		}
		return Str(s), nil
	case c == 't':
		return p.literal("true", Bool(true))
	case c == 'f':
		return p.literal("false", Bool(false))
	case c == 'n':
		return p.literal("null", Null())
	case c == '-' || (c >= '0' && c <= '9'):
		return p.number()
	}
	return Undefined, fmt.Errorf("unexpected character %q at %d", p.src[p.pos], p.pos)
}

func (p *jsonParser) literal(word string, v Value) (Value, error) {
	if strings.HasPrefix(p.src[p.pos:], word) {
		p.pos += len(word)
		return v, nil
	}
	return Undefined, fmt.Errorf("invalid literal at %d", p.pos)
}

func (p *jsonParser) number() (Value, error) {
	start := p.pos
	if p.pos < len(p.src) && p.src[p.pos] == '-' {
		p.pos++
	}
	for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' ||
		p.src[p.pos] == '.' || p.src[p.pos] == 'e' || p.src[p.pos] == 'E' ||
		p.src[p.pos] == '+' || p.src[p.pos] == '-') {
		p.pos++
	}
	f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return Undefined, fmt.Errorf("bad number at %d", start)
	}
	return Num(f), nil
}

func (p *jsonParser) string() (string, error) {
	p.pos++ // opening quote
	var b strings.Builder
	for {
		if p.pos >= len(p.src) {
			return "", fmt.Errorf("unterminated string")
		}
		c := p.src[p.pos]
		if c == '"' {
			p.pos++
			return b.String(), nil
		}
		if c != '\\' {
			b.WriteByte(c)
			p.pos++
			continue
		}
		p.pos++
		if p.pos >= len(p.src) {
			return "", fmt.Errorf("unterminated escape")
		}
		switch e := p.src[p.pos]; e {
		case '"', '\\', '/':
			b.WriteByte(e)
			p.pos++
		case 'n':
			b.WriteByte('\n')
			p.pos++
		case 't':
			b.WriteByte('\t')
			p.pos++
		case 'r':
			b.WriteByte('\r')
			p.pos++
		case 'b':
			b.WriteByte('\b')
			p.pos++
		case 'f':
			b.WriteByte('\f')
			p.pos++
		case 'u':
			if p.pos+4 >= len(p.src) {
				return "", fmt.Errorf("bad unicode escape")
			}
			n, err := strconv.ParseUint(p.src[p.pos+1:p.pos+5], 16, 32)
			if err != nil {
				return "", fmt.Errorf("bad unicode escape")
			}
			b.WriteRune(rune(n))
			p.pos += 5
		default:
			return "", fmt.Errorf("bad escape \\%c", e)
		}
	}
}

func (p *jsonParser) object(depth int) (Value, error) {
	p.pos++ // {
	o := NewObject()
	p.ws()
	if p.pos < len(p.src) && p.src[p.pos] == '}' {
		p.pos++
		return ObjVal(o), nil
	}
	for {
		p.ws()
		if p.pos >= len(p.src) || p.src[p.pos] != '"' {
			return Undefined, fmt.Errorf("expected object key at %d", p.pos)
		}
		key, err := p.string()
		if err != nil {
			return Undefined, err
		}
		p.ws()
		if p.pos >= len(p.src) || p.src[p.pos] != ':' {
			return Undefined, fmt.Errorf("expected ':' at %d", p.pos)
		}
		p.pos++
		v, err := p.value(depth + 1)
		if err != nil {
			return Undefined, err
		}
		if err := p.it.charge(1, valueSize); err != nil {
			return Undefined, err
		}
		o.SetProp(key, v)
		p.ws()
		if p.pos >= len(p.src) {
			return Undefined, fmt.Errorf("unterminated object")
		}
		switch p.src[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return ObjVal(o), nil
		default:
			return Undefined, fmt.Errorf("expected ',' or '}' at %d", p.pos)
		}
	}
}

func (p *jsonParser) array(depth int) (Value, error) {
	p.pos++ // [
	arr := NewArray()
	p.ws()
	if p.pos < len(p.src) && p.src[p.pos] == ']' {
		p.pos++
		return ObjVal(arr), nil
	}
	for {
		v, err := p.value(depth + 1)
		if err != nil {
			return Undefined, err
		}
		if err := p.it.charge(1, valueSize); err != nil {
			return Undefined, err
		}
		arr.Elems = append(arr.Elems, v)
		p.ws()
		if p.pos >= len(p.src) {
			return Undefined, fmt.Errorf("unterminated array")
		}
		switch p.src[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return ObjVal(arr), nil
		default:
			return Undefined, fmt.Errorf("expected ',' or ']' at %d", p.pos)
		}
	}
}
