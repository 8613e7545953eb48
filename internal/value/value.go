// Package value defines the typed scalar values, rows, and schemas that
// flow through the hybriddb storage engine, executor, and advisor. It
// also provides an order-preserving binary key encoding used by the B+
// tree and by sort operators.
package value

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the column data types supported by the engine.
type Kind uint8

// Supported kinds. Date is stored as days since the Unix epoch.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// FixedWidth reports the uncompressed storage width in bytes of a value
// of this kind, or 0 for variable-width kinds (strings).
func (k Kind) FixedWidth() int {
	switch k {
	case KindInt, KindFloat, KindDate:
		return 8
	case KindBool:
		return 1
	default:
		return 0
	}
}

// Numeric reports whether the kind participates in arithmetic.
func (k Kind) Numeric() bool {
	return k == KindInt || k == KindFloat || k == KindDate
}

// Value is a typed scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64 // int, bool (0/1), date (days)
	f    float64
	s    string
}

// Null is the NULL value.
var Null = Value{}

// NewInt returns a BIGINT value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a DOUBLE value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewDate returns a DATE value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{kind: KindDate, i: days} }

// DateFromTime returns a DATE value for the calendar day of t (UTC).
func DateFromTime(t time.Time) Value {
	return NewDate(t.UTC().Unix() / 86400)
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the int64 payload. It panics unless the kind is
// KindInt or KindDate.
func (v Value) Int() int64 {
	if v.kind != KindInt && v.kind != KindDate {
		panic(fmt.Sprintf("value: Int() on %s", v.kind))
	}
	return v.i
}

// Float returns the numeric payload widened to float64. It panics on
// non-numeric kinds.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt, KindDate:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("value: Float() on %s", v.kind))
	}
}

// Str returns the string payload. It panics unless the kind is KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: Str() on %s", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. It panics unless the kind is KindBool.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: Bool() on %s", v.kind))
	}
	return v.i != 0
}

// Width returns the in-memory width in bytes used for size accounting.
func (v Value) Width() int {
	if v.kind == KindString {
		return len(v.s)
	}
	if w := v.kind.FixedWidth(); w > 0 {
		return w
	}
	return 1 // NULL marker
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return time.Unix(v.i*86400, 0).UTC().Format("2006-01-02")
	default:
		return "?"
	}
}

// Compare orders a relative to b: -1, 0, or +1. NULL sorts before every
// non-NULL value. Numeric kinds (int, float, date) compare numerically
// across kinds; other cross-kind comparisons order by kind tag, which
// gives a stable total order.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind.Numeric() && b.kind.Numeric() {
		if a.kind == b.kind && a.kind != KindFloat {
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		switch {
		case a.kind < b.kind:
			return -1
		default:
			return 1
		}
	}
	switch a.kind {
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		default:
			return 0
		}
	case KindBool:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports whether a and b compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Add returns a+b for numeric values, widening to float if either side
// is a float. Adding to NULL yields NULL.
func Add(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.kind == KindFloat || b.kind == KindFloat {
		return NewFloat(a.Float() + b.Float())
	}
	return NewInt(a.Int() + b.Int())
}

// Sub returns a-b with the same widening rules as Add.
func Sub(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.kind == KindFloat || b.kind == KindFloat {
		return NewFloat(a.Float() - b.Float())
	}
	return NewInt(a.Int() - b.Int())
}

// Mul returns a*b with the same widening rules as Add.
func Mul(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.kind == KindFloat || b.kind == KindFloat {
		return NewFloat(a.Float() * b.Float())
	}
	return NewInt(a.Int() * b.Int())
}

// Div returns a/b, always as a float; division by zero yields NULL.
func Div(a, b Value) Value {
	if a.IsNull() || b.IsNull() || b.Float() == 0 {
		return Null
	}
	return NewFloat(a.Float() / b.Float())
}

// Row is an ordered tuple of values.
type Row []Value

// Clone returns a deep copy of the row (values are immutable, so a
// shallow slice copy suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Width returns the total in-memory width of the row in bytes.
func (r Row) Width() int {
	w := 0
	for _, v := range r {
		w += v.Width()
	}
	return w
}

// Project returns a new row containing the values at the given ordinals.
func (r Row) Project(ordinals []int) Row {
	out := make(Row, len(ordinals))
	for i, o := range ordinals {
		out[i] = r[o]
	}
	return out
}

// CompareRows compares two rows lexicographically over the given column
// ordinals. A nil ordinal list compares all columns in order.
func CompareRows(a, b Row, ordinals []int) int {
	if ordinals == nil {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for i := 0; i < n; i++ {
			if c := Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return len(a) - len(b)
	}
	for _, o := range ordinals {
		if c := Compare(a[o], b[o]); c != 0 {
			return c
		}
	}
	return 0
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique
// (case-sensitive, callers normalise case at the SQL layer).
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("value: duplicate column %q", c.Name))
		}
		s.byName[c.Name] = i
	}
	return s
}

// Ordinal returns the position of the named column, or -1.
func (s *Schema) Ordinal(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Project returns a new schema of the columns at the given ordinals.
func (s *Schema) Project(ordinals []int) *Schema {
	cols := make([]Column, len(ordinals))
	for i, o := range ordinals {
		cols[i] = s.Columns[o]
	}
	return NewSchema(cols...)
}

// RowWidth estimates the width in bytes of a typical row: fixed-width
// kinds use their width, strings are assumed 16 bytes.
func (s *Schema) RowWidth() int {
	w := 0
	for _, c := range s.Columns {
		if fw := c.Kind.FixedWidth(); fw > 0 {
			w += fw
		} else {
			w += 16
		}
	}
	return w
}

// EncodeKey appends an order-preserving binary encoding of vals to dst
// and returns the extended slice: comparing two encoded keys with
// bytes.Compare yields the same ordering as CompareRows on the source
// values. Each value is prefixed with a presence tag so NULL sorts
// first.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		if v.IsNull() {
			dst = append(dst, 0x00)
			continue
		}
		dst = append(dst, 0x01)
		switch v.kind {
		case KindInt, KindDate:
			dst = appendUint64(dst, uint64(v.i)^(1<<63))
		case KindFloat:
			bits := math.Float64bits(v.f)
			if bits&(1<<63) != 0 {
				bits = ^bits
			} else {
				bits ^= 1 << 63
			}
			dst = appendUint64(dst, bits)
		case KindBool:
			dst = append(dst, byte(v.i))
		case KindString:
			for i := 0; i < len(v.s); i++ {
				b := v.s[i]
				if b == 0x00 {
					dst = append(dst, 0x00, 0xFF)
				} else {
					dst = append(dst, b)
				}
			}
			dst = append(dst, 0x00, 0x00)
		}
	}
	return dst
}

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// Identical reports whether a and b are the same value bit for bit:
// same kind and payload, with floats compared by their IEEE bits, so
// -0.0 and +0.0 differ and a NaN is identical only to the same NaN.
// Equal, by contrast, follows SQL comparison.
func Identical(a, b Value) bool {
	return a.kind == b.kind && a.i == b.i && a.s == b.s &&
		math.Float64bits(a.f) == math.Float64bits(b.f)
}
