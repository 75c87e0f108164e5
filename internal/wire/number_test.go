package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The oracle: a literal is the batch parser's to accept exactly when it is
// of the JSON grammar and strconv accepts it — ParseFloat for an x value,
// Atoi for a label — and then it must have strconv's value.
var (
	jsonNumber  = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
	jsonInteger = regexp.MustCompile(`^-?(0|[1-9][0-9]*)$`)
)

// checkNumber runs lit, after the leading whitespace the cursor skips,
// through the float and the label path and compares both with strconv.
func checkNumber(t *testing.T, lit []byte) {
	t.Helper()
	lit = bytes.TrimLeft(lit, " \t\r\n")
	c := jsonCursor{buf: lit}
	got := c.float()
	ok := !c.bad && c.i == len(lit)
	want, err := strconv.ParseFloat(string(lit), 64)
	if wantOK := err == nil && jsonNumber.Match(lit); ok != wantOK || ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("x value %q: got %v (%#x) ok %v; strconv.ParseFloat has %v (%#x), err %v, grammar %v",
			lit, got, math.Float64bits(got), ok, want, math.Float64bits(want), err, jsonNumber.Match(lit))
	}
	c = jsonCursor{buf: lit}
	n := c.integer()
	ok = !c.bad && c.i == len(lit)
	wantN, err := strconv.Atoi(string(lit))
	if wantOK := err == nil && jsonInteger.Match(lit); ok != wantOK || ok && n != wantN {
		t.Fatalf("label %q: got %d ok %v; strconv.Atoi has %d, err %v", lit, n, ok, wantN, err)
	}
}

// numberEdges are the literals at the converter's edges: ties at 2^53, the
// 19/20 significant-digit boundary, decimal exponents ±27/±28, the strconv
// exponent cap, signed zeros, the range limits and the int range of a label.
var numberEdges = []string{
	"9007199254740993", "9007199254740992.5", "9007199254740995", "9007199254740994.5",
	"-9007199254740993", "900719925474099.25e1", "4503599627370497.5", "9007199254740993e-27",
	"9999999999999999999", "10000000000000000000", "1844674407370955161", "18446744073709551615",
	"18446744073709551616", "1234567890123456789e-27", "0.1234567890123456789", "0.12345678901234567890",
	"12345678901234567890", "1.000000000000000000", "1.0000000000000000000", "0.0000000000000000000001",
	"1e27", "1e28", "1e-27", "1e-28", "9999999999999999999e27", "9999999999999999999e28",
	"9999999999999999999e-27", "9999999999999999999e-28", "1.5e-28", "123e-30", "0.001e30", "1E+27", "1e-027",
	"-0", "0", "-0.0", "0.0e5", "-0e-5", "0e99999", "-0e99999", "0e-99999", "1e9999", "1e10000",
	"1e-400", "-1e-400", "4.9e-324", "2.4703282292062327e-324", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623159e308", "1e999", "-1e999",
	"123456789012345678901234567890.5", "0.1", "0.2", "0.3", "-0.6213592833624612", "1e23", "8.41e21",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"2147483647", "2147483648", "-2147483649", "00", "01", "-01", "1.0", "1e0", "-1E+0", "+1",
	"", "-", "1.", ".5", "1e", "1e+", "1e-", "--1", "0x10", "NaN", "Inf", "-Infinity", "1_0", "1 ", " 1", "1.5.5", "1e5e5",
	"0." + strings.Repeat("0", 9998) + "1e9999",
	"0." + strings.Repeat("0", 10020) + "1e10000",
	"0." + strings.Repeat("0", 1233) + "1e12345",
	"1" + strings.Repeat("0", 400) + "e-400",
}

// TestNumberMatchesStrconv is the bulk differential: more than 10^7
// literals, each of which must come out as strconv.ParseFloat's bits.
//   - random bit patterns and N(0,1)·10^[−12,12], each in the shortest 'g'
//     form and in json.Marshal's form;
//   - random digit strings of 1–25 significant digits, with and without a
//     fraction, with decimal exponents −40…40 or none.
func TestNumberMatchesStrconv(t *testing.T) {
	const values, literals = 3 << 20, 1 << 22
	rng := rand.New(rand.NewSource(27))
	vals := make([]float64, 0, 1<<12)
	var lit []byte
	check := func(lit []byte) {
		c := jsonCursor{buf: lit}
		got := c.float()
		want, err := strconv.ParseFloat(string(lit), 64)
		if c.bad || c.i != len(lit) || err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: got %v (%#x), bad %v at %d; strconv.ParseFloat has %v (%#x), err %v",
				lit, got, math.Float64bits(got), c.bad, c.i, want, math.Float64bits(want), err)
		}
	}
	flush := func() {
		for _, v := range vals {
			check(strconv.AppendFloat(lit[:0], v, 'g', -1, 64))
		}
		body, err := json.Marshal(vals)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range bytes.Split(body[1:len(body)-1], []byte{','}) {
			check(l)
		}
		vals = vals[:0]
	}
	for i := 0; i < values; i++ {
		v := math.Float64frombits(rng.Uint64())
		if i%2 == 1 {
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(25)-12))
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if vals = append(vals, v); len(vals) == cap(vals) {
			flush()
		}
	}
	flush()
	for i := 0; i < literals; i++ {
		lit = randomLiteral(rng, lit[:0])
		check(lit)
	}
}

// randomLiteral appends a JSON number of 1–25 significant digits, the first
// non-zero, with a fraction half of the time and an exponent in −40…40 three
// times in four.
func randomLiteral(rng *rand.Rand, b []byte) []byte {
	if rng.Intn(2) == 0 {
		b = append(b, '-')
	}
	var buf [25]byte
	digits := buf[:1+rng.Intn(25)]
	nd := len(digits)
	digits[0] = byte('1' + rng.Intn(9))
	for i := 1; i < nd; i++ {
		digits[i] = byte('0' + rng.Intn(10))
	}
	switch p := rng.Intn(nd); {
	case rng.Intn(2) == 0:
		b = append(b, digits...)
	case p == 0:
		b = append(b, "0."...)
		b = append(b, "000"[:rng.Intn(4)]...)
		b = append(b, digits...)
	default:
		b = append(b, digits[:p]...)
		b = append(b, '.')
		b = append(b, digits[p:]...)
	}
	if rng.Intn(4) != 0 {
		b = append(b, "eE"[rng.Intn(2)])
		e := rng.Intn(81) - 40
		if e >= 0 && rng.Intn(2) == 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return b
}

// FuzzParseNumber runs the oracle on arbitrary bytes through both paths;
// go test runs it on numberEdges.
func FuzzParseNumber(f *testing.F) {
	for _, lit := range numberEdges {
		f.Add([]byte(lit))
	}
	f.Fuzz(func(t *testing.T, lit []byte) { checkNumber(t, lit) })
}
