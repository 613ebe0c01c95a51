// Package codec is the one varint writer and reader of the binary formats:
// snapshot sections and ingest records. Integers are unsigned varints
// unless noted; strings and slices are length-prefixed.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc accumulates a payload in B.
type Enc struct{ B []byte }

func (e *Enc) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }
func (e *Enc) Byte(v byte)      { e.B = append(e.B, v) }
func (e *Enc) Str(s string)     { e.Uvarint(uint64(len(s))); e.B = append(e.B, s...) }
func (e *Enc) Strs(ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// Dec consumes a payload with sticky error state: after the first failure
// every accessor returns a zero value, so decode paths read straight through
// and check Err once. Every failure wraps Corrupt, the owner's sentinel.
type Dec struct {
	B       []byte
	Off     int
	Err     error
	Corrupt error
}

// Fail records a failure at the current offset unless one is recorded.
func (d *Dec) Fail(format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf("%w: %s at offset %d", d.Corrupt, fmt.Sprintf(format, args...), d.Off)
	}
}

func (d *Dec) Remaining() int { return len(d.B) - d.Off }

func (d *Dec) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.B[d.Off:])
	if n <= 0 {
		d.Fail("bad uvarint")
		return 0
	}
	d.Off += n
	return v
}

// need reports whether n more bytes remain, else fails.
func (d *Dec) need(n int, what string) bool {
	if d.Err == nil && d.Remaining() < n {
		d.Fail("unexpected end%s", what)
	}
	return d.Err == nil
}

func (d *Dec) Byte() (v byte) {
	if d.need(1, "") {
		v = d.B[d.Off]
		d.Off++
	}
	return v
}

func (d *Dec) U32() (v uint32) {
	if d.need(4, " in uint32") {
		v = binary.LittleEndian.Uint32(d.B[d.Off:])
		d.Off += 4
	}
	return v
}

func (d *Dec) U64() (v uint64) {
	if d.need(8, " in uint64") {
		v = binary.LittleEndian.Uint64(d.B[d.Off:])
		d.Off += 8
	}
	return v
}

// Bytes reads a length-prefixed string as a subslice of B, copying nothing.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.Err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.Fail("string length %d exceeds remaining %d", n, d.Remaining())
		return nil
	}
	b := d.B[d.Off : d.Off+int(n)]
	d.Off += int(n)
	return b
}

func (d *Dec) Str() string { return string(d.Bytes()) }

// Count reads a collection length and validates it against the remaining
// payload assuming each element occupies at least minBytes, so corrupt
// lengths cannot trigger huge allocations.
func (d *Dec) Count(minBytes int) int {
	n := d.Uvarint()
	if d.Err != nil {
		return 0
	}
	if n > uint64(math.MaxInt32) || int64(n)*int64(minBytes) > int64(d.Remaining()) {
		d.Fail("collection length %d implausible for %d remaining bytes", n, d.Remaining())
		return 0
	}
	return int(n)
}

func (d *Dec) Strs() []string {
	n := d.Count(1)
	out := make([]string, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		out = append(out, d.Str())
	}
	return out
}
