package codec

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// encodeAll writes one of each primitive, with a string and a field
// longer than the smallest bufio buffer.
func encodeAll() []byte {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Header("TEST", 7)
	e.Uvarint(1<<63 + 5)
	e.Uint64(0xdeadbeefcafe)
	e.Float64(math.Pi)
	e.String(strings.Repeat("long ", 40))
	e.Bytes([]byte("field"))
	e.Fixed([]byte{1, 2, 3})
	return buf.Bytes()
}

// TestRoundTrip reads every primitive back, through a 16-byte buffer so
// the strings longer than it take the grow-as-bytes-arrive path, and
// refuses every truncation of the input with an error.
func TestRoundTrip(t *testing.T) {
	data := encodeAll()
	for n := 0; n <= len(data); n++ {
		d := NewDecoder(bufio.NewReaderSize(bytes.NewReader(data[:n]), 16))
		d.Header("TEST", 7, "")
		v, u, f, s, b := d.Uvarint(), d.Uint64(), d.Float64(), d.String(), d.Bytes()
		var fixed [3]byte
		d.Fixed(fixed[:])
		d.End()
		if n < len(data) {
			if d.Err() == nil {
				t.Fatalf("input cut to %d of %d bytes decoded", n, len(data))
			}
			continue
		}
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		if v != 1<<63+5 || u != 0xdeadbeefcafe || f != math.Pi || s != strings.Repeat("long ", 40) ||
			string(b) != "field" || fixed != [3]byte{1, 2, 3} {
			t.Fatalf("round trip: %d %x %v %q %q %v", v, u, f, s, b, fixed)
		}
	}
}

// TestHeaderAndBounds: another magic and another version are told apart,
// a lying count or length fails before it allocates, and a byte past
// the value fails End.
func TestHeaderAndBounds(t *testing.T) {
	decode := func(data []byte, read func(d *Decoder)) error {
		d := NewDecoder(bytes.NewReader(data))
		read(d)
		return d.Err()
	}
	header := func(d *Decoder) { d.Header("TEST", 7, "re-crawl") }
	if err := decode([]byte("GOB!\x07"), header); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("other magic: %v", err)
	}
	var ve *VersionError
	if err := decode([]byte("TEST\x06"), header); !errors.As(err, &ve) ||
		err.Error() != "unsupported version 6 (this build reads 7): re-crawl" {
		t.Errorf("other version: %v", err)
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f}
	if err := decode(huge, func(d *Decoder) { d.Count("thing") }); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("count past MaxCount: %v", err)
	}
	if err := decode(huge, func(d *Decoder) { _ = d.String() }); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("string length past MaxString: %v", err)
	}
	if err := decode([]byte{1, 'a', 'b'}, func(d *Decoder) { _ = d.String(); d.End() }); err == nil {
		t.Error("trailing byte accepted")
	}
}
