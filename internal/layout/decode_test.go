package layout_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/layout"
)

// DecodeJSON's contract: it accepts exactly what encoding/json's Decoder
// with DisallowUnknownFields accepts into a Layout, and returns a value
// reflect.DeepEqual to the Decoder's. The Decoder is the oracle here, and
// only here: nothing outside the tests decodes a Layout with it.

// decodeOracle decodes b with encoding/json's Decoder and
// DisallowUnknownFields: the behaviour DecodeJSON reproduces.
func decodeOracle(b []byte) (*layout.Layout, error) {
	var l layout.Layout
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return nil, err
	}
	return &l, nil
}

// checkDecode holds DecodeJSON to the oracle on b: the same verdict, an
// error that starts with the package prefix and names an offset, and on
// accept a deeply equal layout. The reader decodes a copy of b that is
// overwritten before the comparison, so a string that aliased the input
// would show up as a difference.
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	want, werr := decodeOracle(b)
	in := bytes.Clone(b)
	got, gerr := layout.DecodeJSON(in)
	for i := range in {
		in[i] = '#'
	}
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("input %q: DecodeJSON error = %v, encoding/json error = %v", b, gerr, werr)
	}
	if gerr != nil {
		if !strings.HasPrefix(gerr.Error(), "layout: decode: offset ") {
			t.Fatalf("input %q: error %q lacks the \"layout: decode: offset\" prefix", b, gerr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q:\nDecodeJSON   = %#v\nencoding/json = %#v", b, got, want)
	}
}

// decodeQuirks are one seed per corner of encoding/json's behaviour that
// the reader reproduces.
var decodeQuirks = []string{
	// Keys: case folding (ASCII, and ſ for s), escapes.
	`{"NAME":"a","Bounds":{"minx":1,"MINY":2,"maxX":3,"MaxY":4},"CELLS":[{"Name":"c","BOX":{"mInX":5},"Poly":[{"x":1,"y":2}]}]}`,
	`{"nets":[{"Name":"n","terminalſ":[{"name":"t","pinſ":[{"name":"p","poſ":{"X":1,"Y":2},"CELL":-1}]}]}],"cellſ":[]}`,
	`{"n\u0061me":"x","\u0062ounds":{"\u004dinX":5,"M\u0061xY":6},"c\u0065lls":[{"\u006eame":"c"}]}`,
	`{"nam\u0065":"x","NAM\u0045":"y"}`,
	`{"name\u0000":"x"}`,
	`{"nameſ":"x"}`,
	// Duplicate keys at every level: a later scalar wins; a later object or
	// array decodes into the value already there, backing elements included.
	`{"name":"a","name":"b","bounds":{"MinX":1,"MaxX":2},"bounds":{"MinY":3},"bounds":null}`,
	`{"cells":[{"name":"c1","box":{"MinX":1},"poly":[{"X":1},{"X":2},{"X":3}]},{"name":"c2","box":{"MaxY":8}}],` +
		`"cells":[{"box":{"MaxX":9},"poly":[{"Y":7}]}],` +
		`"cells":[{},{"name":"c3"},{}]}`,
	`{"nets":[{"name":"n1","terminals":[{"name":"t1","pins":[{"name":"p1","pos":{"X":1},"cell":3},{"name":"p2","cell":4}]},{"name":"t2"}]},{"name":"n2"}],` +
		`"nets":[{"terminals":[{"pins":[{"pos":{"Y":5},"cell":7}]}]}],` +
		`"nets":[{"terminals":[{"pins":[null,{}]},{}]},null,{"name":"n3","name":"n4"}]}`,
	`{"cells":[{"poly":[{"X":1,"X":2,"Y":3,"Y":null}]}]}`,
	`{"nets":[{"terminals":[{"pins":[{"pos":{"X":1},"pos":{"Y":2},"cell":1,"cell":2,"name":"a","name":"b"}]}]}]}`,
	`{"cells":[{"name":"a"},{"name":"b"}],"cells":[],"cells":[{},{}]}`,
	`{"cells":[{"name":"a"},{"name":"b"}],"cells":null,"cells":[{},{}]}`,
	// null for every field and every element; [] against an absent key.
	`{"name":null,"bounds":null,"cells":null,"nets":null}`,
	`{"cells":[null,{"name":null,"box":null,"poly":[null,{"X":null,"Y":null}]}],` +
		`"nets":[null,{"name":null,"terminals":[null,{"name":null,"pins":[null,{"name":null,"pos":null,"cell":null}]}]}]}`,
	`{"bounds":{"MinX":null,"MinY":null,"MaxX":null,"MaxY":null}}`,
	`{"name":"a","name":null,"cells":[{"name":"x"}],"cells":[null]}`,
	`{"cells":[],"nets":[{"terminals":[]},{"terminals":[{"pins":[]}]}]}`,
	`{"cells":[{"poly":[]},{}]}`,
	`{}`,
	// Strings: surrogates, invalid UTF-8, escapes, control bytes.
	`{"name":"\uD800"}`,
	`{"name":"\uD83D\uDE00"}`,
	`{"name":"\uDC00\uD800"}`,
	`{"name":"\uD800\uD800\uDC00"}`,
	`{"name":"\uD800\u0041"}`,
	`{"name":"\uD800x\uDFFF"}`,
	`{"name":"a\ud800"}`,
	`{"name":"\uD800\u"}`,
	`{"name":"\uD800\uZZZZ"}`,
	`{"name":"\u00e9\u0000\/\b\f\n\r\t\"\\"}`,
	`{"name":"\'"}`,
	`{"name":"\x"}`,
	`{"name":"\u12"}`,
	"{\"name\":\"\xff\xfe\"}",
	"{\"name\":\"a\xc3\"}",
	"{\"name\":\"\xed\xa0\x80\"}",
	"{\"name\":\"é\xf0\x9f\x98\x80\"}",
	"{\"name\":\"\\n\xff\"}",
	"{\xff\"name\":\"a\"}",
	"{\"name\":\"a\x01b\"}",
	"{\"name\":\"a\tb\"}",
	"{\"name\":\"a\x7fb\"}",
	"\t{\r\n\"name\" :\t\"a\" \n}\n",
	"{\"name\":\"a\"\x00}",
	`{"name":"unterminated`,
	// Numbers: -0, leading zeros, fractions, exponents, the int64 edges,
	// strings and other types in number fields.
	`{"bounds":{"MinX":-0,"MinY":0}}`,
	`{"bounds":{"MinX":01}}`,
	`{"bounds":{"MinX":-01}}`,
	`{"bounds":{"MinX":1.0}}`,
	`{"bounds":{"MinX":1e2}}`,
	`{"bounds":{"MinX":1E2}}`,
	`{"bounds":{"MinX":1.}}`,
	`{"bounds":{"MinX":-}}`,
	`{"bounds":{"MinX":+1}}`,
	`{"bounds":{"MinX":9223372036854775807,"MinY":-9223372036854775808}}`,
	`{"bounds":{"MinX":9223372036854775808}}`,
	`{"bounds":{"MinX":-9223372036854775809}}`,
	`{"bounds":{"MinX":99999999999999999999999}}`,
	`{"bounds":{"MinX":"5"}}`,
	`{"bounds":{"MinX":true}}`,
	`{"bounds":{"MinX":{}}}`,
	`{"bounds":{"MinX":[]}}`,
	`{"nets":[{"terminals":[{"pins":[{"cell":"1"}]}]}]}`,
	`{"nets":[{"terminals":[{"pins":[{"cell":1.5}]}]}]}`,
	`{"nets":[{"terminals":[{"pins":[{"cell":9223372036854775807}]}]}]}`,
	// Other type mismatches and unknown fields.
	`{"name":5}`,
	`{"name":false}`,
	`{"name":[]}`,
	`{"name":{}}`,
	`{"bounds":[]}`,
	`{"bounds":"x"}`,
	`{"cells":{}}`,
	`{"cells":"x"}`,
	`{"cells":[5]}`,
	`{"cells":[[]]}`,
	`{"cells":[{"pins":[]}]}`,
	`{"foo":1}`,
	`{"name":"a","foo":{"bar":[1,2,{"x":null}]}}`,
	`{"":1}`,
	// Syntax.
	`{"name":"a",}`,
	`{,}`,
	`{"name" "a"}`,
	`{"name":"a"`,
	`{"name":"a" "bounds":null}`,
	`{"cells":[{},]}`,
	`{"cells":[{}{}]}`,
	`{"cells":[,{}]}`,
	`{"cells":[{}`,
	`{"name":nul}`,
	`{"name":nulll}`,
	`{name:"a"}`,
	`{'name':"a"}`,
	// Top level: non-objects, trailing bytes, empty input.
	``,
	`   `,
	`null`,
	`null garbage`,
	`nul`,
	`[]`,
	`[{"name":"a"}]`,
	`"x"`,
	`5`,
	`true`,
	`{} trailing`,
	`{"name":"a"}{"name":"b"}`,
	"{}\xff",
	`{"name":"a"}]`,
	`}`,
}

// decodeSeeds returns the gen layouts, written indented and compact, and
// the quirk seeds.
func decodeSeeds(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	add := func(l *layout.Layout, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := l.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes(), compact)
	}
	add(gen.MacroGrid(2, 2, 40, 30, 12, 1))
	add(gen.PolyChip(3, 2, 2))
	add(gen.PadRing(3, 2, 2))
	add(gen.RandomLayout(gen.Config{Seed: 4, Cells: 3, Nets: 2, MaxTerminals: 3, MultiPinProb: 60, PadProb: 20}))
	for _, q := range decodeQuirks {
		out = append(out, []byte(q))
	}
	return out
}

// TestDecodeJSONSeeds checks that FuzzDecodeJSON's seeds reach what they
// are there for: PadRing's pads, multi-pin terminals, polygon cells, and
// both verdicts.
func TestDecodeJSONSeeds(t *testing.T) {
	var pads, multi, polys, accepted, rejected int
	for _, b := range decodeSeeds(t) {
		l, err := layout.DecodeJSON(b)
		if err != nil {
			rejected++
			continue
		}
		accepted++
		for _, c := range l.Cells {
			if len(c.Poly) > 0 {
				polys++
			}
		}
		for _, n := range l.Nets {
			for _, term := range n.Terminals {
				if len(term.Pins) > 1 {
					multi++
				}
				for _, p := range term.Pins {
					if p.Cell == layout.NoCell {
						pads++
					}
				}
			}
		}
	}
	if pads == 0 || multi == 0 || polys == 0 || accepted == 0 || rejected == 0 {
		t.Fatalf("seeds reach %d pads, %d multi-pin terminals, %d polygon cells, %d accepted, %d rejected: want each > 0",
			pads, multi, polys, accepted, rejected)
	}
}

// FuzzDecodeJSON holds DecodeJSON to encoding/json on every input.
func FuzzDecodeJSON(f *testing.F) {
	for _, b := range decodeSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(checkDecode)
}

// TestDecodeJSONSchemaDrift sets every field of Layout's types, found by
// walking them with reflect, to a non-zero value, and round-trips the
// layout through WriteJSON and DecodeJSON. A field added to the schema that
// the reader does not know fails it, as does a kind the walk cannot fill.
func TestDecodeJSONSchemaDrift(t *testing.T) {
	var l layout.Layout
	next := int64(0)
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.String:
			next++
			v.SetString(fmt.Sprintf("s%d", next))
		case reflect.Int, reflect.Int64:
			next++
			v.SetInt(-next)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if !f.IsExported() {
					t.Fatalf("%s.%s is unexported: the drift check cannot set it", path, f.Name)
				}
				fill(v.Field(i), path+"."+f.Name)
			}
		case reflect.Slice:
			s := reflect.MakeSlice(v.Type(), 2, 2)
			for i := 0; i < s.Len(); i++ {
				fill(s.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
			v.Set(s)
		default:
			t.Fatalf("%s has kind %s: extend this walk and DecodeJSON", path, v.Kind())
		}
	}
	fill(reflect.ValueOf(&l).Elem(), "Layout")
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := layout.DecodeJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeJSON of a fully set layout: %v", err)
	}
	if !reflect.DeepEqual(*got, l) {
		t.Fatalf("round trip lost a field:\nwrote %#v\nread  %#v", l, *got)
	}
	checkDecode(t, buf.Bytes())
}

// BenchmarkDecodeJSON decodes the indented JSON of seeded macro grids, the
// bodies groutd's benchmark posts, and reports decode-ms and
// vs-encoding-json-pct, DecodeJSON's time as a share of the oracle's. Each
// side is the median of 5 decodes per iteration, interleaved with the other
// side's after a collection each, so one iteration compares like with like.
// CI bounds the 32×32 share: it catches a fallback to reflection (~100%),
// not jitter.
func BenchmarkDecodeJSON(b *testing.B) {
	for _, n := range []int{32, 64} {
		b.Run(fmt.Sprintf("MacroGrid%d", n), func(b *testing.B) {
			l, err := gen.MacroGrid(n, n, 40, 30, 12, 1)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := l.WriteJSON(&buf); err != nil {
				b.Fatal(err)
			}
			src := buf.Bytes()
			timed := func(decode func([]byte) (*layout.Layout, error)) time.Duration {
				runtime.GC()
				t0 := time.Now()
				if _, err := decode(src); err != nil {
					b.Fatal(err)
				}
				return time.Since(t0)
			}
			b.SetBytes(int64(len(src)))
			b.ResetTimer()
			var ours, theirs []time.Duration
			for i := 0; i < b.N; i++ {
				for k := 0; k < 5; k++ {
					ours = append(ours, timed(layout.DecodeJSON))
					theirs = append(theirs, timed(decodeOracle))
				}
			}
			med := func(ds []time.Duration) float64 {
				sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
				return float64(ds[len(ds)/2])
			}
			mo, mt := med(ours), med(theirs)
			b.ReportMetric(mo/float64(time.Millisecond), "decode-ms")
			b.ReportMetric(100*mo/mt, "vs-encoding-json-pct")
		})
	}
}
