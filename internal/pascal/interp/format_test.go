package interp_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"gadt/internal/pascal/interp"
)

// refFormatValue is the fmt-based renderer AppendValue replaced, kept
// as the reference its output must match byte for byte. With literal
// set, strings render with doubled embedded quotes (AppendLiteral).
func refFormatValue(v interp.Value, literal bool) string {
	switch v.Kind() {
	case interp.KindUndef:
		return "<undef>"
	case interp.KindInt:
		i, _ := v.AsInt()
		return fmt.Sprintf("%d", i)
	case interp.KindReal:
		f, _ := v.AsReal()
		s := fmt.Sprintf("%g", f)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case interp.KindBool:
		if b, _ := v.AsBool(); b {
			return "true"
		}
		return "false"
	case interp.KindStr:
		s, _ := v.AsStr()
		if literal {
			s = strings.ReplaceAll(s, "'", "''")
		}
		return fmt.Sprintf("'%s'", s)
	case interp.KindArray:
		a, _ := v.AsArray()
		n := len(a.Elems)
		for n > 0 && refZeroScalar(a.Elems[n-1]) {
			n--
		}
		parts := make([]string, 0, n)
		for i := 0; i < n; i++ {
			parts = append(parts, refFormatValue(a.Elems[i], literal))
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case interp.KindRecord:
		r, _ := v.AsRecord()
		parts := make([]string, len(r.Fields))
		for i := range r.Fields {
			parts[i] = fmt.Sprintf("%s: %s", r.Names[i], refFormatValue(r.Fields[i], literal))
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	return fmt.Sprintf("<%s>", v.Kind())
}

func refZeroScalar(v interp.Value) bool {
	switch v.Kind() {
	case interp.KindInt:
		i, _ := v.AsInt()
		return i == 0
	case interp.KindReal:
		f, _ := v.AsReal()
		return f == 0
	case interp.KindBool:
		b, _ := v.AsBool()
		return !b
	case interp.KindStr:
		s, _ := v.AsStr()
		return s == ""
	}
	return false
}

var (
	edgeReals = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e20, 1e21, -1e21,
		1e-4, 1e-5, 1e-7, 123456789, 3.14159, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	edgeStrings = []string{"", "a", "'", "''", "it's", "a','b", "b','", "[1, 2]", "(f: 1)"}
)

// formatValue builds an arbitrary value of bounded depth, biased toward
// the renderer's edge cases: special reals, strings with quotes, arrays
// with all-zero tails (nested ones too), records and undef.
func formatValue(r *rand.Rand, depth int) interp.Value {
	k := r.Intn(9)
	if depth <= 0 {
		k = r.Intn(6)
	}
	switch k {
	case 0:
		return interp.IntV(r.Int63n(2001) - 1000)
	case 1:
		if r.Intn(2) == 0 {
			return interp.RealV(edgeReals[r.Intn(len(edgeReals))])
		}
		return interp.RealV(r.NormFloat64() * math.Pow(10, float64(r.Intn(50)-25)))
	case 2:
		return interp.BoolV(r.Intn(2) == 0)
	case 3:
		return interp.StrV(edgeStrings[r.Intn(len(edgeStrings))])
	case 4:
		return interp.Undef
	case 5:
		return interp.IntV(0)
	case 6, 7:
		n := r.Intn(6)
		a := &interp.ArrayVal{Lo: 1, Hi: int64(n), Elems: make([]interp.Value, n)}
		for i := range a.Elems {
			if i >= n/2 && r.Intn(3) > 0 {
				a.Elems[i] = zeroOf(r) // an elidable tail
			} else {
				a.Elems[i] = formatValue(r, depth-1)
			}
		}
		return interp.ArrV(a)
	default:
		n := r.Intn(3) + 1
		rec := &interp.RecordVal{Names: make([]string, n), Fields: make([]interp.Value, n)}
		for i := range rec.Fields {
			rec.Names[i] = string(rune('f' + i))
			rec.Fields[i] = formatValue(r, depth-1)
		}
		return interp.RecV(rec)
	}
}

func zeroOf(r *rand.Rand) interp.Value {
	switch r.Intn(4) {
	case 0:
		return interp.IntV(0)
	case 1:
		return interp.RealV(math.Copysign(0, -1))
	case 2:
		return interp.BoolV(false)
	}
	return interp.StrV("")
}

type formatBox struct{ V interp.Value }

// Generate implements quick.Generator.
func (formatBox) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(formatBox{V: formatValue(r, 3)})
}

func TestQuickAppendValueMatchesFmt(t *testing.T) {
	prop := func(b formatBox) bool {
		want := refFormatValue(b.V, false)
		return interp.FormatValue(b.V) == want &&
			string(interp.AppendValue([]byte("x="), b.V)) == "x="+want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAppendLiteralDoublesQuotes(t *testing.T) {
	prop := func(b formatBox) bool {
		return string(interp.AppendLiteral([]byte("x="), b.V)) == "x="+refFormatValue(b.V, true)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendValueEdgeCases(t *testing.T) {
	for _, f := range edgeReals {
		v := interp.RealV(f)
		if got, want := interp.FormatValue(v), refFormatValue(v, false); got != want {
			t.Errorf("FormatValue(%v) = %q, want %q", f, got, want)
		}
	}
	for _, s := range edgeStrings {
		v := interp.StrV(s)
		if got, want := interp.FormatValue(v), "'"+s+"'"; got != want {
			t.Errorf("FormatValue(%q) = %q, want %q", s, got, want)
		}
	}
	if got := string(interp.AppendLiteral(nil, interp.StrV("a','b"))); got != "'a'',''b'" {
		t.Errorf("AppendLiteral = %q, want 'a'',''b'", got)
	}
}
