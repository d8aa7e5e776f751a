package layout

import (
	"bytes"
	"fmt"
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/geom"
)

// The JSON keys of each type, in the order the decoders below switch on
// them. They are the field tags; geom's types carry none, so their keys are
// the Go field names.
var (
	layoutFields   = []string{"name", "bounds", "cells", "nets"}
	cellFields     = []string{"name", "box", "poly"}
	netFields      = []string{"name", "terminals"}
	terminalFields = []string{"name", "pins"}
	pinFields      = []string{"name", "pos", "cell"}
	rectFields     = []string{"MinX", "MinY", "MaxX", "MaxY"}
	pointFields    = []string{"X", "Y"}
)

// DecodeJSON decodes a layout from JSON without validating it. It reads the
// layout schema directly, one function per type, in one pass over b, and
// accepts exactly the inputs that encoding/json's Decoder with
// DisallowUnknownFields accepts into a Layout, with an identical result:
//
//   - Only the first JSON value is read; the bytes after it are ignored.
//     A top-level null leaves the layout empty.
//   - A key names a field when it equals the field's key under
//     bytes.EqualFold, after its escapes are resolved. Any other key is an
//     error.
//   - A repeated key decodes into its field again: a later string or number
//     replaces the earlier one, and a later object or array decodes into the
//     value already there. An array reuses the slice's elements, including
//     those a shorter array left past its length.
//   - null leaves a string, number or object as it was and sets an array
//     field to nil; [] sets it to an empty, non-nil slice.
//   - Strings resolve their escapes and replace invalid UTF-8 and unpaired
//     surrogates with U+FFFD; a raw control byte is an error.
//   - Numbers must be integers in int64 range, without fraction or
//     exponent.
//
// No string in the result shares memory with b. Errors begin
// "layout: decode:" and name the byte offset. FuzzDecodeJSON holds the
// reader to encoding/json on every input.
func DecodeJSON(b []byte) (*Layout, error) {
	d := decoder{b: b}
	l := new(Layout)
	d.ws()
	if err := d.layout(l); err != nil {
		return nil, err
	}
	return l, nil
}

// decoder is the state of one DecodeJSON pass.
type decoder struct {
	b   []byte
	i   int    // offset of the next unread byte
	buf []byte // scratch for strings that need unescaping
}

// end is what field returns once the object has closed.
const end = -1

// fail reports that the byte at d.i is not what the grammar allows there.
func (d *decoder) fail(want string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("layout: decode: offset %d: unexpected end of input, want %s", d.i, want)
	}
	return fmt.Errorf("layout: decode: offset %d: unexpected %q, want %s", d.i, d.b[d.i], want)
}

// ws skips whitespace and returns the next byte, 0 at the end of input.
func (d *decoder) ws() byte {
	b, i := d.b, d.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	d.i = i
	if i < len(b) {
		return b[i]
	}
	return 0
}

// null moves past a null literal.
func (d *decoder) null() error {
	if len(d.b)-d.i >= 4 && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return nil
	}
	return d.fail("null")
}

// object moves past the '{' that opens an object and reports true, or past
// a null, which leaves the value as it was, and reports false.
func (d *decoder) object() (bool, error) {
	switch d.ws() {
	case '{':
		d.i++
		return true, nil
	case 'n':
		return false, d.null()
	}
	return false, d.fail("an object")
}

// field moves past the next member's key and colon and returns the index in
// names of the field the key names, or end once past the object's closing
// brace. first reports that the opening brace was the last byte read.
func (d *decoder) field(first bool, names []string) (int, error) {
	c := d.ws()
	if c == '}' {
		d.i++
		return end, nil
	}
	if !first {
		if c != ',' {
			return 0, d.fail("',' or '}'")
		}
		d.i++
		c = d.ws()
	}
	if c != '"' {
		return 0, d.fail("a key")
	}
	at := d.i
	key, err := d.str()
	if err != nil {
		return 0, err
	}
	if d.ws() != ':' {
		return 0, d.fail("':'")
	}
	d.i++
	d.ws()
	for k, name := range names {
		if string(key) == name {
			return k, nil
		}
	}
	for k, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("layout: decode: offset %d: unknown field %q", at, key)
}

// str moves past the string that starts at d.i and returns its text: a view
// of the input when the string holds no escape and only valid UTF-8,
// otherwise d.buf. Either way the caller copies what it keeps.
func (d *decoder) str() ([]byte, error) {
	b := d.b
	start := d.i + 1
	for i := start; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return b[start:i], nil
		case c == '\\' || c < ' ':
			return d.unquote(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.i = len(b)
	return nil, d.fail(`'"'`)
}

// unquote finishes str for a string whose bytes from start to i needed no
// change, writing its text into d.buf.
func (d *decoder) unquote(start, i int) ([]byte, error) {
	b := d.b
	out := append(d.buf[:0], b[start:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.i, d.buf = i+1, out
			return out, nil
		case c < ' ':
			d.i = i
			return nil, d.fail("a string character")
		case c == '\\':
			d.i = i + 1
			if i+1 >= len(b) {
				return nil, d.fail("an escape")
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := hex4(b[i+2:])
				if !ok {
					d.i = i + 2
					return nil, d.fail("four hex digits")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A surrogate counts only as the first half of a pair
					// that the next escape completes; anything else reads
					// as U+FFFD and leaves that escape to stand alone.
					pair := unicode.ReplacementChar
					if len(b)-i >= 6 && b[i] == '\\' && b[i+1] == 'u' {
						if r2, ok := hex4(b[i+2:]); ok {
							pair = utf16.DecodeRune(r, r2)
						}
					}
					r = pair
					if r != unicode.ReplacementChar {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				return nil, d.fail("an escape")
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r) // U+FFFD for a byte of invalid UTF-8
			i += size
		}
	}
	d.i = len(b)
	return nil, d.fail(`'"'`)
}

// hex4 parses the four hex digits that start b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// text reads a string field: a string replaces *s, null keeps it.
func (d *decoder) text(s *string) error {
	switch d.ws() {
	case '"':
		t, err := d.str()
		if err == nil {
			*s = string(t)
		}
		return err
	case 'n':
		return d.null()
	}
	return d.fail("a string")
}

// int reads an integer field: an integer in int64 range replaces *v, null
// keeps it.
func (d *decoder) int(v *int64) error {
	b, i := d.b, d.i
	if i < len(b) && b[i] == 'n' {
		return d.null()
	}
	limit := uint64(math.MaxInt64)
	neg := i < len(b) && b[i] == '-'
	if neg {
		limit++
		i++
	}
	var u uint64
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			digit := uint64(b[i] - '0')
			if u > (limit-digit)/10 {
				return fmt.Errorf("layout: decode: offset %d: integer out of range", d.i)
			}
			u = u*10 + digit
		}
	default:
		d.i = i
		return d.fail("an integer")
	}
	// A fraction or an exponent is left unread: the caller, expecting ','
	// or '}', rejects it.
	d.i = i
	if neg {
		*v = -int64(u)
	} else {
		*v = int64(u)
	}
	return nil
}

// elems reads an array field into *s with elem for each element, as
// encoding/json does: null sets *s to nil and [] to an empty slice;
// otherwise element k decodes into the k-th element of the slice's backing
// array, so one a shorter array left past the length is reused as it was.
func elems[T any](d *decoder, s *[]T, elem func(*decoder, *T) error) error {
	switch d.ws() {
	case '[':
		d.i++
	case 'n':
		*s = nil
		return d.null()
	default:
		return d.fail("an array")
	}
	if d.ws() == ']' {
		d.i++
		*s = []T{}
		return nil
	}
	all := (*s)[:cap(*s)]
	for n := 0; ; {
		if n == len(all) {
			var zero T
			all = append(all, zero)
		}
		if err := elem(d, &all[n]); err != nil {
			return err
		}
		n++
		switch d.ws() {
		case ',':
			d.i++
		case ']':
			d.i++
			*s = all[:n]
			return nil
		default:
			return d.fail("',' or ']'")
		}
	}
}

// layout reads the top-level value.
func (d *decoder) layout(l *Layout) error {
	if open, err := d.object(); !open {
		return err
	}
	for first := true; ; first = false {
		f, err := d.field(first, layoutFields)
		if err != nil || f == end {
			return err
		}
		switch f {
		case 0:
			err = d.text(&l.Name)
		case 1:
			err = d.rect(&l.Bounds)
		case 2:
			err = elems(d, &l.Cells, (*decoder).cell)
		case 3:
			err = elems(d, &l.Nets, (*decoder).net)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) cell(c *Cell) error {
	if open, err := d.object(); !open {
		return err
	}
	for first := true; ; first = false {
		f, err := d.field(first, cellFields)
		if err != nil || f == end {
			return err
		}
		switch f {
		case 0:
			err = d.text(&c.Name)
		case 1:
			err = d.rect(&c.Box)
		case 2:
			err = elems(d, &c.Poly, (*decoder).point)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) net(n *Net) error {
	if open, err := d.object(); !open {
		return err
	}
	for first := true; ; first = false {
		f, err := d.field(first, netFields)
		if err != nil || f == end {
			return err
		}
		switch f {
		case 0:
			err = d.text(&n.Name)
		case 1:
			err = elems(d, &n.Terminals, (*decoder).terminal)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) terminal(t *Terminal) error {
	if open, err := d.object(); !open {
		return err
	}
	for first := true; ; first = false {
		f, err := d.field(first, terminalFields)
		if err != nil || f == end {
			return err
		}
		switch f {
		case 0:
			err = d.text(&t.Name)
		case 1:
			err = elems(d, &t.Pins, (*decoder).pin)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) pin(p *Pin) error {
	if open, err := d.object(); !open {
		return err
	}
	for first := true; ; first = false {
		f, err := d.field(first, pinFields)
		if err != nil || f == end {
			return err
		}
		switch f {
		case 0:
			err = d.text(&p.Name)
		case 1:
			err = d.point(&p.Pos)
		case 2:
			at, v := d.i, int64(p.Cell)
			if err = d.int(&v); err == nil && int64(int(v)) != v {
				err = fmt.Errorf("layout: decode: offset %d: integer out of range", at)
			}
			p.Cell = CellID(v)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) rect(r *geom.Rect) error {
	if open, err := d.object(); !open {
		return err
	}
	for first := true; ; first = false {
		f, err := d.field(first, rectFields)
		if err != nil || f == end {
			return err
		}
		switch f {
		case 0:
			err = d.int(&r.MinX)
		case 1:
			err = d.int(&r.MinY)
		case 2:
			err = d.int(&r.MaxX)
		case 3:
			err = d.int(&r.MaxY)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) point(p *geom.Point) error {
	if open, err := d.object(); !open {
		return err
	}
	for first := true; ; first = false {
		f, err := d.field(first, pointFields)
		if err != nil || f == end {
			return err
		}
		switch f {
		case 0:
			err = d.int(&p.X)
		case 1:
			err = d.int(&p.Y)
		}
		if err != nil {
			return err
		}
	}
}
