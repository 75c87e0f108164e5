package wire

import (
	"bytes"
	"math"
	"math/bits"
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

// key consumes a one-byte object key and its colon, returning the byte. The
// key's closing quote follows that byte at once: "x " is another key.
func (c *jsonCursor) key() byte {
	c.expect('"')
	if c.bad || c.i+1 >= len(c.buf) || c.buf[c.i+1] != '"' {
		c.bad = true
		return 0
	}
	k := c.buf[c.i]
	c.i += 2
	c.expect(':')
	return k
}

// scan consumes one number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, after optional whitespace,
// accumulating its digits as it checks them; its text starts at start. The
// value is ±man × 10^exp10 when exact holds: at most 19 significant digits,
// so man is below 10^19 < 2^64, and an exponent below 10000 in magnitude
// (strconv caps larger ones, so those literals stay strconv's to read).
// integer says there is neither a fraction nor an exponent. A leading zero
// ends the integer part, so in 01 the 1 is left standing for the separator
// check that follows to trip over.
func (c *jsonCursor) scan() (start int, man uint64, exp10 int, neg, exact, integer bool) {
	c.skipSpace()
	buf, j := c.buf, c.i
	start = j
	if c.bad {
		return
	}
	if j < len(buf) && buf[j] == '-' {
		neg = true
		j++
	}
	nd := 0 // significant digits: those from the first non-zero one on
	if j < len(buf) && buf[j] == '0' {
		j++
	} else {
		k := j
		j, man = accumulate(buf, j, 0)
		if nd = j - k; nd == 0 {
			c.bad = true
			return
		}
	}
	integer = true
	if j < len(buf) && buf[j] == '.' {
		k := j + 1
		z := k
		for nd == 0 && z < len(buf) && buf[z] == '0' {
			z++
		}
		j, man = accumulate(buf, z, man)
		nd += j - z
		exp10, integer = k-j, false
		if j == k {
			c.bad = true
			return
		}
	}
	e := 0 // the explicit exponent
	if j < len(buf) && buf[j]|0x20 == 'e' {
		integer = false
		j++
		eneg := j < len(buf) && buf[j] == '-'
		if j < len(buf) && (eneg || buf[j] == '+') {
			j++
		}
		k := j
		for ; j < len(buf) && buf[j]-'0' <= 9; j++ {
			if e < 10000 {
				e = e*10 + int(buf[j]-'0')
			}
		}
		if j == k {
			c.bad = true
			return
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	exact = nd <= 19 && -10000 < e && e < 10000
	c.i = j
	return
}

// accumulate reads the run of decimal digits at j into man; past 19
// significant digits man has wrapped.
func accumulate(buf []byte, j int, man uint64) (int, uint64) {
	for ; j < len(buf); j++ {
		d := buf[j] - '0'
		if d > 9 {
			break
		}
		man = man*10 + uint64(d)
	}
	return j, man
}

// float consumes one number of the JSON grammar and returns the float64
// nearest its value, ties to even: strconv.ParseFloat's bits, which are what
// encoding/json stores. Literals exactFloat does not cover go to
// strconv.ParseFloat itself; one out of float64's range sets bad, since
// encoding/json words that error.
func (c *jsonCursor) float() float64 {
	start, man, exp10, neg, exact, _ := c.scan()
	if c.bad {
		return 0
	}
	if !exact || exp10 < -27 || exp10 > 27 {
		v, err := strconv.ParseFloat(string(c.buf[start:c.i]), 64)
		if err != nil {
			c.bad = true
		}
		return v
	}
	v := 0.0
	if man != 0 {
		v = exactFloat(man, exp10)
	}
	if neg {
		v = -v // -0 included
	}
	return v
}

// integer consumes one label: an integer literal in int's range, which is
// what strconv.Atoi accepts and encoding/json checks (-0 is 0). A fraction
// or an exponent, as in 1.0 or 1e0, sets bad: such a label is
// encoding/json's to judge.
func (c *jsonCursor) integer() int {
	_, man, _, neg, exact, integer := c.scan()
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if !integer || !exact || man > limit {
		c.bad = true
		return 0
	}
	if neg {
		return -int(man)
	}
	return int(man)
}

// pow5 holds 5^0 … 5^27, each below 2^63.
var pow5 = func() (p [28]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 5
	}
	return p
}()

// exactFloat returns man × 10^exp10, for 0 < man < 2^64 and |exp10| ≤ 27,
// rounded once to the nearest float64, ties to even. Writing 10^e = 5^e·2^e
// turns the decimal scaling into integer arithmetic and a shift of the binary
// exponent: for e ≥ 0 the 128-bit product man·5^e is exact; for e < 0 the
// quotient of man·2^k by 5^−e keeps at least 63 bits and its remainder says
// whether anything is left below them. Rounding that integer to 53 bits is the
// one rounding of the exact value, which is the correctly rounded result
// strconv.ParseFloat returns. The range holds neither a subnormal nor an
// overflow: 10^−27 ≤ value < 10^46.
func exactFloat(man uint64, exp10 int) float64 {
	// value = (hi·2^64 + lo + a fraction that is non-zero iff sticky) · 2^exp2
	var hi, lo uint64
	sticky, exp2 := false, exp10
	if exp10 >= 0 {
		hi, lo = bits.Mul64(man, pow5[exp10])
		if hi == 0 {
			hi, lo, exp2 = lo, 0, exp2-64
		}
	} else {
		d := pow5[-exp10]
		// man·2^k is bits.Len64(d)+63 bits long, so its high word is below d,
		// as Div64 needs, and the quotient lies in [2^62, 2^64).
		k := 63 + bits.Len64(d) - bits.Len64(man)
		var nhi, nlo, rem uint64
		if k < 64 {
			nhi, nlo = man>>(64-k), man<<k
		} else {
			nhi = man << (k - 64)
		}
		hi, rem = bits.Div64(nhi, nlo, d)
		sticky, exp2 = rem != 0, exp2-k-64
	}
	s := bits.LeadingZeros64(hi)
	hi, lo, exp2 = hi<<s|lo>>(64-s), lo<<s, exp2-s
	// hi now holds the 53 result bits, the rounding bit and 10 bits below it.
	mant := hi >> 11
	if hi&(1<<10) != 0 && (hi&(1<<10-1) != 0 || lo != 0 || sticky || mant&1 != 0) {
		mant++
		if mant == 1<<53 {
			mant, exp2 = mant>>1, exp2+1
		}
	}
	// value = mant · 2^(exp2+75) with 2^52 ≤ mant < 2^53: the biased
	// exponent is exp2+75+52+1023.
	return math.Float64frombits(uint64(exp2+1150)<<52 | mant&(1<<52-1))
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
			data[r*cols+k] = c.float()
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
		y[k] = c.integer()
		if k < len(y)-1 {
			c.expect(',')
		}
	}
	c.expect(']')
}
