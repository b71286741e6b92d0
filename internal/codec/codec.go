// Package codec is the one byte format of every file the crawler and
// the serving tier persist: the AJIX shard file, the models file, the
// precrawl, the recrawl profile and the checkpoint journal's frames.
// Each is a sequence of these primitives:
//
//	uvarint  — binary.AppendUvarint (counts, lengths, IDs, small ints)
//	f64      — the little-endian IEEE 754 bits, so scores round-trip exactly
//	u64      — 8 little-endian bytes
//	string   — uvarint length, then the bytes (Bytes is the same on the wire)
//	fixed    — raw bytes of a length both sides know (a dom.Hash)
//
// A file starts with a four-byte magic and a version byte (Header).
// Maps are written in sorted key order, so the same value always
// encodes to the same bytes.
//
// The read side treats its input as untrusted: every count and length
// is bounded before it sizes an allocation, pre-allocation is capped at
// what a lying header can cost, the first error is sticky, and Contain
// turns a decoder panic into an error.
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

const (
	// MaxCount bounds every count read from an untrusted file (docs,
	// states, terms, postings, positions, graphs, pages) and the length
	// of a Bytes field. A corrupt varint otherwise turns straight into
	// make([]T, n) with an arbitrary n — an unrecoverable allocation
	// panic rather than a load error.
	MaxCount = 1 << 26
	// MaxString bounds a length-prefixed string (a URL, a state text, a
	// term, a handler's source).
	MaxString = 1 << 24
	// maxPrealloc caps how much a single count is trusted for slice
	// pre-allocation; beyond it, slices grow by append as real data
	// arrives, so a lying header can't allocate more than the file
	// actually backs.
	maxPrealloc = 1 << 16
)

// Prealloc returns a safe initial capacity for a count-prefixed slice.
func Prealloc(n int) int { return min(n, maxPrealloc) }

// Sink is what an Encoder writes into: a *bufio.Writer in front of a
// file, or a *bytes.Buffer for an in-memory payload.
type Sink interface {
	io.Writer
	io.StringWriter
	AvailableBuffer() []byte
}

// Encoder appends each value straight into the sink's free space, so
// encoding allocates nothing per value. A *bufio.Writer's write error is
// sticky and surfaces at its Flush; a *bytes.Buffer's writes cannot fail.
type Encoder struct{ w Sink }

// NewEncoder returns an Encoder writing into w.
func NewEncoder(w Sink) Encoder { return Encoder{w} }

// WriteFile creates path and writes magic, version and what body
// encodes into it through one buffered writer.
func WriteFile(path, magic string, version byte, body func(Encoder)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	e := Encoder{w}
	e.Header(magic, version)
	body(e)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Header writes a file's magic and version byte.
func (e Encoder) Header(magic string, version byte) {
	e.w.WriteString(magic)                            //nolint:errcheck // sticky, checked via Flush
	e.w.Write(append(e.w.AvailableBuffer(), version)) //nolint:errcheck
}

// Uvarint writes v as a uvarint.
func (e Encoder) Uvarint(v uint64) {
	e.w.Write(binary.AppendUvarint(e.w.AvailableBuffer(), v)) //nolint:errcheck
}

// Uint64 writes v as 8 little-endian bytes.
func (e Encoder) Uint64(v uint64) {
	e.w.Write(binary.LittleEndian.AppendUint64(e.w.AvailableBuffer(), v)) //nolint:errcheck
}

// Float64 writes f's IEEE 754 bits as a Uint64.
func (e Encoder) Float64(f float64) { e.Uint64(math.Float64bits(f)) }

// String writes s length-prefixed.
func (e Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.w.WriteString(s) //nolint:errcheck
}

// Bytes writes b length-prefixed, the same bytes as String(string(b)).
func (e Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.w.Write(b) //nolint:errcheck
}

// Fixed writes b as is: a field whose length the reader knows.
func (e Encoder) Fixed(b []byte) { e.w.Write(b) } //nolint:errcheck

// VersionError is a file whose magic is right and whose version byte is
// not this build's: written by another build of the same format. The
// file itself may be sound, so a caller refuses it rather than
// discarding it.
type VersionError struct {
	Got, Want byte
	// Remedy tells the operator what to do about it.
	Remedy string
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("unsupported version %d (this build reads %d): %s", e.Got, e.Want, e.Remedy)
}

// Decoder reads the format with a sticky error: after the first failure
// every read returns zero, so a decode loop stops at its next Err check.
type Decoder struct {
	r   *bufio.Reader
	err error
}

// NewDecoder returns a Decoder reading r, through a bufio.Reader unless
// r is one.
func NewDecoder(r io.Reader) *Decoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Decoder{r: br}
}

// Err returns the first error the decoder met.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless an earlier error is already recorded.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Header reads and checks a file's magic and version byte. Another
// magic fails with "bad magic"; this magic with another version fails
// with a *VersionError carrying remedy.
func (d *Decoder) Header(magic string, version byte, remedy string) {
	if d.err != nil {
		return
	}
	head, err := d.r.Peek(len(magic) + 1)
	switch {
	case err != nil:
		d.Fail(err)
	case string(head[:len(magic)]) != magic:
		d.Fail(fmt.Errorf("bad magic %q", head[:len(magic)]))
	case head[len(magic)] != version:
		d.Fail(&VersionError{Got: head[len(magic)], Want: version, Remedy: remedy})
	default:
		d.r.Discard(len(head)) //nolint:errcheck // the bytes are buffered
	}
}

// Uvarint reads a uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.Fail(err)
	return v
}

// Count reads a count field, bounded by MaxCount.
func (d *Decoder) Count(what string) int {
	n := d.Uvarint()
	if n > MaxCount {
		d.Fail(fmt.Errorf("%s count %d exceeds limit %d", what, n, MaxCount))
		return 0
	}
	return int(n)
}

// Uint64 reads 8 little-endian bytes.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	b, err := d.r.Peek(8)
	if err != nil {
		d.Fail(err)
		return 0
	}
	v := binary.LittleEndian.Uint64(b)
	d.r.Discard(8) //nolint:errcheck // the bytes are buffered
	return v
}

// Float64 reads a float written by Encoder.Float64.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// String reads a length-prefixed string of at most MaxString bytes.
func (d *Decoder) String() string { return string(d.Key()) }

// Key reads a String field without copying it when it fits the read
// buffer: the bytes are then a view of the buffer, valid until the next
// read. A map lookup with string(key) allocates nothing.
func (d *Decoder) Key() []byte {
	n := d.Uvarint()
	if n > MaxString {
		d.Fail(fmt.Errorf("string length %d too large", n))
	}
	if d.err != nil {
		return nil
	}
	if b, err := d.r.Peek(int(n)); err == nil {
		d.r.Discard(len(b)) //nolint:errcheck // the bytes are buffered
		return b
	}
	return d.Next(int(n))
}

// Bytes reads a length-prefixed field of at most MaxCount bytes.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if n > MaxCount {
		d.Fail(fmt.Errorf("field length %d exceeds limit %d", n, MaxCount))
	}
	return d.Next(int(n))
}

// Next returns the next n bytes, n read from the input by the caller and
// bounded by it, in a new slice that grows as the bytes arrive: a lying
// length costs no more than the input backs.
func (d *Decoder) Next(n int) []byte {
	if d.err != nil {
		return nil
	}
	out := make([]byte, 0, Prealloc(n))
	for {
		b, err := d.r.Peek(min(n-len(out), d.r.Size()))
		out = append(out, b...)
		d.r.Discard(len(b)) //nolint:errcheck // the bytes are buffered
		if len(out) == n {
			return out
		}
		if err != nil {
			if err == io.EOF && len(out) > 0 {
				err = io.ErrUnexpectedEOF
			}
			d.Fail(err)
			return nil
		}
	}
}

// Fixed fills b from the input.
func (d *Decoder) Fixed(b []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.Fail(err)
	}
}

// End fails the decoder if any input is left: a value decodes from
// exactly its own bytes.
func (d *Decoder) End() {
	if d.err != nil {
		return
	}
	if _, err := d.r.Peek(1); err == nil {
		d.Fail(fmt.Errorf("trailing bytes after the value"))
	}
}

// Contain turns a panic raised while decoding into *err, prefixed by
// what: "<what>: corrupt input: <panic>". Defer it directly.
func Contain(err *error, what string) {
	if rec := recover(); rec != nil {
		*err = fmt.Errorf("%s: corrupt input: %v", what, rec)
	}
}
