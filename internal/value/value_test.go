package value

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "BIGINT", KindFloat: "DOUBLE",
		KindString: "VARCHAR", KindBool: "BOOLEAN", KindDate: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float = %v", got)
	}
	if got := NewString("abc").Str(); got != "abc" {
		t.Errorf("Str = %q", got)
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool accessor broken")
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull broken")
	}
	if got := NewInt(7).Float(); got != 7 {
		t.Errorf("int widened to float = %v", got)
	}
}

func TestValueString(t *testing.T) {
	d := DateFromTime(time.Date(1998, 9, 2, 12, 0, 0, 0, time.UTC))
	if got := d.String(); got != "1998-09-02" {
		t.Errorf("date string = %q", got)
	}
	if got := Null.String(); got != "NULL" {
		t.Errorf("null string = %q", got)
	}
	if got := NewBool(true).String(); got != "true" {
		t.Errorf("bool string = %q", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewDate(10), NewInt(10), 0},
		{Null, NewInt(-100), -1},
		{NewInt(-100), Null, 1},
		{Null, Null, 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	if got := Add(NewInt(2), NewInt(3)); got.Int() != 5 {
		t.Errorf("Add int = %v", got)
	}
	if got := Add(NewInt(2), NewFloat(0.5)); got.Float() != 2.5 {
		t.Errorf("Add widen = %v", got)
	}
	if got := Sub(NewInt(2), NewInt(3)); got.Int() != -1 {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(NewFloat(2), NewFloat(3)); got.Float() != 6 {
		t.Errorf("Mul = %v", got)
	}
	if got := Div(NewInt(6), NewInt(4)); got.Float() != 1.5 {
		t.Errorf("Div = %v", got)
	}
	if got := Div(NewInt(6), NewInt(0)); !got.IsNull() {
		t.Errorf("Div by zero = %v", got)
	}
	if got := Add(Null, NewInt(1)); !got.IsNull() {
		t.Errorf("Add null = %v", got)
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(Column{"a", KindInt}, Column{"b", KindString})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Ordinal("b") != 1 || s.Ordinal("missing") != -1 {
		t.Error("Ordinal broken")
	}
	p := s.Project([]int{1})
	if p.Len() != 1 || p.Columns[0].Name != "b" {
		t.Error("Project broken")
	}
	if got := s.RowWidth(); got != 8+16 {
		t.Errorf("RowWidth = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate column did not panic")
		}
	}()
	NewSchema(Column{"x", KindInt}, Column{"x", KindInt})
}

func TestRowHelpers(t *testing.T) {
	r := Row{NewInt(1), NewString("xy"), Null}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone aliases source")
	}
	p := r.Project([]int{2, 0})
	if !p[0].IsNull() || p[1].Int() != 1 {
		t.Error("Project broken")
	}
	if got := r.Width(); got != 8+2+1 {
		t.Errorf("Width = %d", got)
	}
}

func TestCompareRows(t *testing.T) {
	a := Row{NewInt(1), NewString("b")}
	b := Row{NewInt(1), NewString("c")}
	if CompareRows(a, b, nil) >= 0 {
		t.Error("full compare broken")
	}
	if CompareRows(a, b, []int{0}) != 0 {
		t.Error("ordinal compare broken")
	}
	if CompareRows(b, a, []int{1}) <= 0 {
		t.Error("ordinal compare direction broken")
	}
}

// TestEncodeKeyOrderProperty verifies the core invariant: byte order of
// encoded keys matches value order, for random scalar pairs of every kind.
func TestEncodeKeyOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randVal := func() Value {
		switch rng.Intn(6) {
		case 0:
			return Null
		case 1:
			return NewInt(rng.Int63n(2001) - 1000)
		case 2:
			return NewFloat((rng.Float64() - 0.5) * 1e6)
		case 3:
			b := make([]byte, rng.Intn(6))
			for i := range b {
				b[i] = byte(rng.Intn(4)) // include 0x00 bytes
			}
			return NewString(string(b))
		case 4:
			return NewBool(rng.Intn(2) == 0)
		default:
			return NewDate(rng.Int63n(20000))
		}
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	for i := 0; i < 20000; i++ {
		a, b := randVal(), randVal()
		// Only same-kind or numeric-cross comparisons are key-order
		// compatible; composite keys in the engine are always homogeneous
		// per position.
		if a.Kind() != b.Kind() && !(a.Kind().Numeric() && b.Kind().Numeric()) {
			continue
		}
		// Numeric cross-kind encodings differ (int vs float bits); the
		// engine never mixes them within one key position either.
		if a.Kind() != b.Kind() && (a.Kind() == KindFloat || b.Kind() == KindFloat) {
			continue
		}
		ka := EncodeKey(nil, a)
		kb := EncodeKey(nil, b)
		if got, want := sign(bytes.Compare(ka, kb)), sign(Compare(a, b)); got != want {
			t.Fatalf("order mismatch for %v vs %v: bytes %d, values %d", a, b, got, want)
		}
	}
}

func TestEncodeKeyCompositeOrder(t *testing.T) {
	rows := []Row{
		{NewInt(1), NewString("z")},
		{NewInt(2), NewString("a")},
		{NewInt(1), NewString("a")},
		{Null, NewString("m")},
		{NewInt(1), Null},
	}
	enc := make([][]byte, len(rows))
	for i, r := range rows {
		enc[i] = EncodeKey(nil, r...)
	}
	idx := []int{0, 1, 2, 3, 4}
	sort.Slice(idx, func(i, j int) bool {
		return bytes.Compare(enc[idx[i]], enc[idx[j]]) < 0
	})
	want := []int{3, 4, 2, 0, 1} // (null,m) (1,null) (1,a) (1,z) (2,a)
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("composite order = %v, want %v", idx, want)
		}
	}
}

func TestEncodeKeyFloatEdges(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -0.5, 0, 0.5, 1, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		a := EncodeKey(nil, NewFloat(vals[i-1]))
		b := EncodeKey(nil, NewFloat(vals[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("float key order broken at %v >= %v", vals[i-1], vals[i])
		}
	}
}

func TestEncodeKeyStringZeroBytes(t *testing.T) {
	// "a" must sort before "a\x00" and before "a\x00b".
	ks := [][]byte{
		EncodeKey(nil, NewString("a")),
		EncodeKey(nil, NewString("a\x00")),
		EncodeKey(nil, NewString("a\x00b")),
		EncodeKey(nil, NewString("ab")),
	}
	for i := 1; i < len(ks); i++ {
		if bytes.Compare(ks[i-1], ks[i]) >= 0 {
			t.Errorf("string key order broken at index %d", i)
		}
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Null},
		{NewInt(-5), NewFloat(3.25), NewString("héllo\x00world"), NewBool(true), NewDate(12345), Null},
	}
	var buf []byte
	for _, r := range rows {
		buf = EncodeRow(buf, r)
	}
	off := 0
	for i, want := range rows {
		got, n, err := DecodeRow(buf[off:])
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		off += n
		if CompareRows(got, want, nil) != 0 {
			t.Fatalf("row %d: got %v want %v", i, got, want)
		}
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestRowCodecQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, d int16) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		r := Row{NewInt(i), NewFloat(fl), NewString(s), NewBool(b), NewDate(int64(d))}
		enc := EncodeRow(nil, r)
		got, n, err := DecodeRow(enc)
		return err == nil && n == len(enc) && CompareRows(got, r, nil) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRowCorrupt(t *testing.T) {
	good := EncodeRow(nil, Row{NewInt(1), NewString("abcdef")})
	for cut := 1; cut < len(good); cut++ {
		if _, _, err := DecodeRow(good[:cut]); err == nil {
			// Some prefixes decode to a shorter valid row only if the
			// header count is satisfied; count is fixed so any cut must fail.
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	if _, _, err := DecodeRow([]byte{}); err == nil {
		t.Fatal("empty buffer not detected")
	}
}

func TestIdentical(t *testing.T) {
	negZero := NewFloat(math.Copysign(0, -1))
	nan := NewFloat(math.NaN())
	same := []Value{Null, NewInt(3), NewFloat(1.5), NewFloat(0), negZero, nan, NewString("a")}
	for _, v := range same {
		if !Identical(v, v) {
			t.Errorf("Identical(%v, %v) = false", v, v)
		}
	}
	differ := [][2]Value{
		{negZero, NewFloat(0)},   // SQL-equal, different bits
		{NewFloat(1.5), nan},     // NaN never equals a number
		{NewInt(1), NewFloat(1)}, // same number, different kind
		{Null, NewInt(0)},
		{NewString("a"), NewString("b")},
	}
	for _, p := range differ {
		if Identical(p[0], p[1]) {
			t.Errorf("Identical(%v, %v) = true", p[0], p[1])
		}
	}
}
