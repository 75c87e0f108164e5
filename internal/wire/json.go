package wire

import (
	"bytes"
	"strconv"
)

// DecodeJSON decodes the canonical JSON batch {"x":[[f,…],…],"y":[i,…]} into
// f without reflection, filling the frame exactly as DecodeInto does (one
// slab, row views, labels; a warm label-less decode allocates nothing). It
// says yes only to bodies encoding/json would decode to the same values:
// the exact keys "x" and "y" at most once each, a rectangular non-empty x of
// JSON-grammar numbers, integer-literal labels, one per row, and whitespace
// where JSON allows it. For everything else — an unknown, upper-case or
// repeated key, null, a ragged or empty row, 1. or 01 or 1e999, 1.0 as a
// label, bytes after the object — it reports false with f's contents
// unspecified, and the caller runs encoding/json, which owns that verdict.
func (f *Frame) DecodeJSON(buf []byte) bool {
	f.Grew = false
	// The only brackets of an accepted body are x's own, one per row and y's,
	// and its only strings are the keys, so the row count is known up front
	// and the slab is sized once; a body that then parses to another shape
	// is not canonical.
	rows := bytes.Count(buf, []byte{'['}) - 1
	labeled := bytes.Contains(buf, []byte(`"y"`))
	if labeled {
		rows--
	}
	// A row is at least "[0]," long, which also bounds what a hostile body
	// can make the frame reserve.
	if rows < 1 || rows > len(buf)/4 {
		return false
	}
	c := jsonCursor{buf: buf}
	c.expect('{')
	var seenX, seenY bool
	for more := true; more && !c.bad; more = c.more('}') {
		switch key := c.key(); {
		case key == 'x' && !seenX:
			seenX = true
			c.matrix(f, rows)
		case key == 'y' && !seenY:
			seenY = true
			c.labels(f.reserveLabels(rows))
		default:
			return false
		}
	}
	c.skipSpace()
	if c.bad || c.i != len(buf) || !seenX || seenY != labeled {
		return false
	}
	f.Y = nil
	if labeled {
		f.Y = f.y
	}
	f.ID, f.Traceparent, f.Dtype = "", "", Float64
	return true
}

// jsonCursor walks a JSON batch. The first byte that is not what the
// canonical form has there sets bad, after which every step is a no-op.
type jsonCursor struct {
	buf []byte
	i   int
	bad bool
}

func (c *jsonCursor) skipSpace() {
	for c.i < len(c.buf) {
		switch c.buf[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// expect consumes b after optional whitespace.
func (c *jsonCursor) expect(b byte) {
	c.skipSpace()
	if c.bad || c.i >= len(c.buf) || c.buf[c.i] != b {
		c.bad = true
		return
	}
	c.i++
}

// more consumes a list separator: true after a comma, false after closer.
func (c *jsonCursor) more(closer byte) bool {
	c.skipSpace()
	if !c.bad && c.i < len(c.buf) && c.buf[c.i] == ',' {
		c.i++
		return true
	}
	c.expect(closer)
	return false
}

// key consumes a one-byte object key and its colon, returning the byte.
func (c *jsonCursor) key() byte {
	c.expect('"')
	if c.bad || c.i >= len(c.buf) {
		c.bad = true
		return 0
	}
	k := c.buf[c.i]
	c.i++
	c.expect('"')
	c.expect(':')
	return k
}

// number consumes one number of the JSON grammar and returns its text; with
// integer set, a fraction or an exponent is left standing for the separator
// check that follows to trip over.
func (c *jsonCursor) number(integer bool) []byte {
	c.skipSpace()
	buf, j, ok := c.buf, c.i, true
	if j < len(buf) && buf[j] == '-' {
		j++
	}
	if j < len(buf) && buf[j] == '0' {
		j++
	} else {
		j, ok = digits(buf, j)
	}
	if ok && !integer && j < len(buf) && buf[j] == '.' {
		j, ok = digits(buf, j+1)
	}
	if ok && !integer && j < len(buf) && (buf[j] == 'e' || buf[j] == 'E') {
		j++
		if j < len(buf) && (buf[j] == '+' || buf[j] == '-') {
			j++
		}
		j, ok = digits(buf, j)
	}
	if !ok || c.bad {
		c.bad = true
		return nil
	}
	lit := buf[c.i:j]
	c.i = j
	return lit
}

// digits skips the run of decimal digits at j; ok is false when there is none.
func digits(buf []byte, j int) (end int, ok bool) {
	end = j
	for end < len(buf) && buf[end] >= '0' && buf[end] <= '9' {
		end++
	}
	return end, end > j
}

// matrix consumes x, a list of exactly rows equally wide lists of numbers,
// into f's slab. The width is read off the first row.
func (c *jsonCursor) matrix(f *Frame, rows int) {
	c.expect('[')
	c.skipSpace()
	end := bytes.IndexByte(c.buf[c.i:], ']')
	if c.bad || end < 0 {
		c.bad = true
		return
	}
	cols := 1 + bytes.Count(c.buf[c.i:c.i+end], []byte{','})
	// Every value takes a digit and a separator, so a shape that needs more
	// bytes than the body has is a miscount, not a slab to allocate.
	if cols > len(c.buf)/2/rows {
		c.bad = true
		return
	}
	data := f.reserve(rows, cols)
	for r := 0; r < rows && !c.bad; r++ {
		c.expect('[')
		for k := 0; k < cols && !c.bad; k++ {
			v, err := strconv.ParseFloat(string(c.number(false)), 64)
			if err != nil {
				c.bad = true // out of float64's range: encoding/json words that error
			}
			data[r*cols+k] = v
			if k < cols-1 {
				c.expect(',')
			}
		}
		c.expect(']')
		if r < rows-1 {
			c.expect(',')
		}
	}
	c.expect(']')
}

// labels consumes y, a list of exactly len(y) integer literals.
func (c *jsonCursor) labels(y []int) {
	c.expect('[')
	for k := 0; k < len(y) && !c.bad; k++ {
		// Atoi has int's range, which is the range encoding/json checks.
		n, err := strconv.Atoi(string(c.number(true)))
		if err != nil {
			c.bad = true
		}
		y[k] = n
		if k < len(y)-1 {
			c.expect(',')
		}
	}
	c.expect(']')
}
