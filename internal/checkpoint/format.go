package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Sentinel decode errors, wrapped with context by the callers.
var (
	// ErrCorrupt marks a file that fails structural or CRC validation —
	// a torn write, a bit flip, or not a checkpoint at all.
	ErrCorrupt = errors.New("corrupt checkpoint")
	// ErrVersion marks a structurally valid file written by a different
	// format version.
	ErrVersion = errors.New("checkpoint version mismatch")
	// ErrTruncated marks a decoder read past the end of a payload.
	ErrTruncated = errors.New("truncated checkpoint payload")
)

// castagnoli is the CRC-32C table used for the file trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is one named component payload inside a checkpoint file.
type Section struct {
	Name    string
	Payload []byte
}

// EncodeFile frames sections into a checkpoint container:
//
//	magic[8] | version u32 | count u32
//	repeat:    nameLen u16 | name | payloadLen u64 | payload
//	trailer:   crc32c u32 over every preceding byte
func EncodeFile(version uint32, sections []Section) []byte {
	e := NewEncoder()
	e.buf = append(e.buf, Magic...)
	e.U32(version)
	e.U32(uint32(len(sections)))
	for _, s := range sections {
		if len(s.Name) > math.MaxUint16 {
			panic(fmt.Sprintf("checkpoint: section name %d bytes", len(s.Name)))
		}
		var n [2]byte
		binary.LittleEndian.PutUint16(n[:], uint16(len(s.Name)))
		e.buf = append(e.buf, n[:]...)
		e.buf = append(e.buf, s.Name...)
		e.U64(uint64(len(s.Payload)))
		e.buf = append(e.buf, s.Payload...)
	}
	e.U32(crc32.Checksum(e.buf, castagnoli))
	return e.buf
}

// IsCheckpoint reports whether data begins with the checkpoint magic —
// the probe that rejects a file that is not a checkpoint without
// attempting a full decode.
func IsCheckpoint(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// DecodeFile validates the container (magic, CRC trailer, framing) and
// returns its version and sections. Section payloads alias data; callers
// must not mutate it while decoding. Any structural problem — including
// a torn write that truncated the file anywhere — returns ErrCorrupt
// before a single payload byte is interpreted.
func DecodeFile(data []byte) (version uint32, sections []Section, err error) {
	const headerLen = len(Magic) + 4 + 4
	if len(data) < headerLen+4 {
		return 0, nil, fmt.Errorf("%w: %d bytes is too short", ErrCorrupt, len(data))
	}
	if !IsCheckpoint(data) {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return 0, nil, fmt.Errorf("%w: CRC mismatch (file %08x, computed %08x)", ErrCorrupt, want, got)
	}
	version = binary.LittleEndian.Uint32(body[len(Magic):])
	count := binary.LittleEndian.Uint32(body[len(Magic)+4:])
	off := headerLen
	// Every section needs at least nameLen(2) + payloadLen(8) bytes, so
	// an absurd count is rejected before any allocation.
	if uint64(count) > uint64(len(body)-off)/10 {
		return 0, nil, fmt.Errorf("%w: %d sections in %d bytes", ErrCorrupt, count, len(body))
	}
	sections = make([]Section, 0, count)
	for i := uint32(0); i < count; i++ {
		if off+2 > len(body) {
			return 0, nil, fmt.Errorf("%w: section %d header past EOF", ErrCorrupt, i)
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+nameLen+8 > len(body) {
			return 0, nil, fmt.Errorf("%w: section %d name/length past EOF", ErrCorrupt, i)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		payloadLen := binary.LittleEndian.Uint64(body[off:])
		off += 8
		if payloadLen > uint64(len(body)-off) {
			return 0, nil, fmt.Errorf("%w: section %q claims %d bytes, %d remain", ErrCorrupt, name, payloadLen, len(body)-off)
		}
		sections = append(sections, Section{Name: name, Payload: body[off : off+int(payloadLen)]})
		off += int(payloadLen)
	}
	if off != len(body) {
		return 0, nil, fmt.Errorf("%w: %d bytes after last section", ErrCorrupt, len(body)-off)
	}
	return version, sections, nil
}

// Encoder serialises component state into a section payload. All values
// are little-endian and fixed-width; floats are IEEE-754 bit patterns,
// so NaNs and signed zeros round-trip exactly.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Bool writes a single byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// U32 writes a fixed 32-bit unsigned value.
func (e *Encoder) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// U64 writes a fixed 64-bit unsigned value.
func (e *Encoder) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// I64 writes a fixed 64-bit signed value.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int writes an int as a 64-bit signed value.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 writes the IEEE-754 bit pattern of v.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String writes a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob writes a length-prefixed opaque byte slice (nil encodes as
// empty). The fleet checkpoint uses it to nest per-node snapshot
// containers inside the cluster section.
func (e *Encoder) Blob(v []byte) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// F64s writes a length-prefixed float64 slice (nil encodes as empty; use
// an explicit Bool when nil-ness carries meaning).
func (e *Encoder) F64s(v []float64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Ints writes a length-prefixed int slice.
func (e *Encoder) Ints(v []int) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// Bools writes a length-prefixed bool slice.
func (e *Encoder) Bools(v []bool) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.Bool(x)
	}
}

// Decoder reads component state back out of a section payload. Errors
// are sticky: after the first failed read every subsequent read returns
// the zero value, and Err reports the failure. Length-prefixed reads are
// bounded by the remaining payload before allocating, so corrupt or
// hostile length fields cannot cause large allocations.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder wraps a section payload.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first decode failure, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

func (d *Decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrTruncated, fmt.Sprintf(format, args...))
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.fail("need %d bytes, %d remain at offset %d", n, d.Remaining(), d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// Bool reads one byte written by Encoder.Bool. Any non-0/1 value is an
// error so corrupt payloads fail instead of decoding to "true".
func (d *Decoder) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool byte %#x", b[0])
		return false
	}
}

// U32 reads a fixed 32-bit unsigned value.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed 64-bit unsigned value.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a fixed 64-bit signed value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int written by Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads an IEEE-754 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Blob reads a length-prefixed opaque byte slice (empty decodes as
// nil). The returned slice is a copy, safe to retain.
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	b := d.take(n)
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// sliceLen validates a length prefix against the remaining payload at
// elemSize bytes per element.
func (d *Decoder) sliceLen(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n*elemSize > d.Remaining() {
		d.fail("slice of %d×%dB exceeds %d remaining bytes", n, elemSize, d.Remaining())
		return 0
	}
	return n
}

// F64s reads a length-prefixed float64 slice (empty decodes as nil).
func (d *Decoder) F64s() []float64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// Ints reads a length-prefixed int slice (empty decodes as nil).
func (d *Decoder) Ints() []int {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

// Bools reads a length-prefixed bool slice (empty decodes as nil).
func (d *Decoder) Bools() []bool {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.Bool()
	}
	return out
}
