package js

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestJSONParse(t *testing.T) {
	expectNum(t, `JSON.parse("42")`, 42)
	expectNum(t, `JSON.parse("-1.5e2")`, -150)
	expectBool(t, `JSON.parse("true")`, true)
	expectBool(t, `JSON.parse("null") === null`, true)
	expectStr(t, `JSON.parse("\"hi\"")`, "hi")
	expectStr(t, `JSON.parse('"a\\nb"')`, "a\nb")
	expectStr(t, `JSON.parse('"\\u0041"')`, "A")
	expectNum(t, `JSON.parse("[1,2,3]").length`, 3)
	expectNum(t, `JSON.parse("[1,[2,3]]")[1][0]`, 2)
	expectNum(t, `JSON.parse('{"a": {"b": 7}}').a.b`, 7)
	expectNum(t, `JSON.parse(' { "x" : [ 1 , 2 ] } ').x[1]`, 2)
}

func TestJSONParseErrors(t *testing.T) {
	bad := []string{
		`JSON.parse("")`,
		`JSON.parse("{")`,
		`JSON.parse("[1,")`,
		`JSON.parse("{a:1}")`, // unquoted key
		`JSON.parse("[1] extra")`,
		`JSON.parse("'single'")`,
		`JSON.parse("tru")`,
	}
	for _, src := range bad {
		it := New()
		if _, err := it.Run(src); err == nil {
			t.Errorf("%s should throw", src)
		}
		// The error must be a catchable JS exception.
		v, err := New().Run(`var r = "no"; try { ` + src + `; } catch (e) { r = "caught"; } r`)
		if err != nil || v.StrVal() != "caught" {
			t.Errorf("%s not catchable: %v %v", src, v, err)
		}
	}
}

// Property: JSON.parse reads back what encoding/json wrote, for values
// built from random primitive content.
func TestPropertyJSONRoundTrip(t *testing.T) {
	f := func(n float64, s string, b bool) bool {
		src, err := json.Marshal(map[string]any{"n": n, "s": s, "b": b, "arr": []any{n, s}})
		if err != nil {
			return false
		}
		it := New()
		it.DefineGlobal("src", Str(string(src)))
		v, err := it.Run(`JSON.parse(src)`)
		if err != nil {
			return false
		}
		o := v.Object()
		got := func(name string) Value { x, _ := o.Get(name); return x }
		arr := got("arr").Object()
		return got("n").NumVal() == n && got("s").StrVal() == s && got("b").BoolVal() == b &&
			len(arr.Elems) == 2 && arr.Elems[0].NumVal() == n && arr.Elems[1].StrVal() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
