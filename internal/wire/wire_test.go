package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// sameRequest is deep equality on what a Request means: nil and empty slices
// are the same row set, floats compare by bits (so -0 is not 0), and the
// decoder's private backing buffer is not part of the value.
func sameRequest(a, b *Request) bool {
	if a.Model != b.Model || a.Options != b.Options || a.TimeoutMs != b.TimeoutMs ||
		len(a.Features) != len(b.Features) {
		return false
	}
	for i, row := range a.Features {
		if len(row) != len(b.Features[i]) {
			return false
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(b.Features[i][j]) {
				return false
			}
		}
	}
	return true
}

// nullSpy and rowsSpy stand where the request grammar gives a type and
// record a null there — exactly the bodies the decoder documents refusing
// although encoding/json accepts them (it calls UnmarshalJSON for null too,
// and for every occurrence of a repeated key).
type nullSpy bool

func (n *nullSpy) UnmarshalJSON(b []byte) error {
	*n = *n || string(b) == "null"
	return nil
}

type rowsSpy bool

func (n *rowsSpy) UnmarshalJSON(b []byte) error {
	var rows []json.RawMessage
	if string(b) == "null" || json.Unmarshal(b, &rows) != nil {
		*n = *n || string(b) == "null"
		return nil
	}
	for _, row := range rows {
		var nums []*float64
		*n = *n || string(row) == "null"
		_ = json.Unmarshal(row, &nums)
		for _, v := range nums {
			*n = *n || v == nil
		}
	}
	return nil
}

// typedNull is the oracle for the decoder's one documented tightening that
// json.Unmarshal does not share (it refuses trailing bytes itself).
func typedNull(body []byte) bool {
	var spy struct {
		Model     nullSpy `json:"model"`
		Features  rowsSpy `json:"features"`
		TimeoutMs nullSpy `json:"timeout_ms"`
	}
	_ = json.Unmarshal(body, &spy)
	return string(bytes.TrimSpace(body)) == "null" || bool(spy.Model) || bool(spy.Features) || bool(spy.TimeoutMs)
}

// checkAgainstJSON is the decoder's contract, shared by the table and the
// fuzzer; it reports whether Decode accepted body.
func checkAgainstJSON(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var ref, got Request
	refErr := json.Unmarshal(body, &ref)
	gotErr := Decode(body, &got)
	switch {
	case gotErr == nil && refErr != nil:
		t.Fatalf("accepted a body encoding/json rejects (%v): %q", refErr, body)
	case gotErr == nil && !sameRequest(&got, &ref):
		t.Fatalf("decoded %+v, encoding/json %+v: %q", got, ref, body)
	case gotErr != nil && refErr == nil && !typedNull(body) && len(ref.Features) <= MaxRows:
		t.Fatalf("rejected (%v) a body encoding/json accepts, outside the documented classes: %q", gotErr, body)
	}
	if m := Model(body); gotErr == nil && m != got.Model {
		t.Fatalf("Model = %q, Decode's model = %q: %q", m, got.Model, body)
	}
	return gotErr == nil
}

func TestDecodeConformance(t *testing.T) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	cases := []struct {
		name, body string
		accept     bool
		check      func(*Request) bool
	}{
		{"plain", `{"model":"m","features":[[1,2],[3,4]]}`, true,
			func(r *Request) bool {
				return r.Model == "m" && reflect.DeepEqual(r.Features, [][]float64{{1, 2}, {3, 4}})
			}},
		{"escapes in model", `{"model":"a\"b\\c\/\b\f\n\r\t\u00e9"}`, true,
			func(r *Request) bool { return r.Model == "a\"b\\c/\b\f\n\r\té" }},
		{"surrogate pair", `{"model":"\ud83d\ude00"}`, true, func(r *Request) bool { return r.Model == "😀" }},
		{"lone surrogate", `{"model":"\ud83d"}`, true, func(r *Request) bool { return r.Model == "\ufffd" }},
		{"raw utf-8", `{"model":"é😀"}`, true, func(r *Request) bool { return r.Model == "é😀" }},
		{"invalid utf-8", "{\"model\":\"a\xffb\"}", true, func(r *Request) bool { return r.Model == "a\ufffdb" }},
		{"bad escape", `{"model":"\x"}`, false, nil},
		{"short \\u", `{"model":"\u12"}`, false, nil},
		{"\\u with a control byte", "{\"model\":\"\\u00\x10\x10\"}", false, nil},
		{"raw control byte", "{\"model\":\"a\nb\"}", false, nil},
		{"unterminated string", `{"model":"abc`, false, nil},

		{"key exact", `{"timeout_ms":7}`, true, func(r *Request) bool { return r.TimeoutMs == 7 }},
		{"key case-folded", `{"MODEL":"m","Features":[[1]],"TimeOut_MS":7,"OPTIONS":{"TOP_K":2}}`, true,
			func(r *Request) bool {
				return r.Model == "m" && len(r.Features) == 1 && r.TimeoutMs == 7 && r.Options.TopK == 2
			}},
		{"key unicode-folded", `{"feature` + "\u017f" + `":[[1]],"timeout_m\u017F":3}`, true,
			func(r *Request) bool { return len(r.Features) == 1 && r.TimeoutMs == 3 }},
		{"key escaped", `{"mod\u0065l":"m"}`, true, func(r *Request) bool { return r.Model == "m" }},
		{"key near miss", `{"models":"m","model ":"n"}`, true, func(r *Request) bool { return r.Model == "" }},
		{"duplicate keys last wins", `{"model":"a","features":[[1,2],[3]],"timeout_ms":1,"model":"b","features":[[9]],"timeout_ms":2}`, true,
			func(r *Request) bool {
				return r.Model == "b" && reflect.DeepEqual(r.Features, [][]float64{{9}}) && r.TimeoutMs == 2
			}},
		{"duplicate options merge", `{"options":{"top_k":3},"options":{"version":2}}`, true,
			func(r *Request) bool { return r.Options == Options{TopK: 3, Version: 2} }},
		{"unknown keys skipped", `{"a":{"b":[1,{"c":"]}[{"}],"d":"}"},"e":[[],{}],"f":"\"]","g":true,"h":false,"i":null,"j":-1.5e-3,"model":"m"}`, true,
			func(r *Request) bool { return r.Model == "m" }},
		{"unknown key with a bad value", `{"a":tru}`, false, nil},
		{"unknown key with a bad number", `{"a":[1,02]}`, false, nil},
		{"unknown key mismatched brackets", `{"a":[}`, false, nil},
		{"unknown key nested to the limit", `{"a":` + deep(maxDepth-1) + `}`, true, nil},
		{"unknown key nested past the limit", `{"a":` + deep(maxDepth) + `}`, false, nil},

		{"-0", `{"features":[[-0]]}`, true, func(r *Request) bool { return math.Signbit(r.Features[0][0]) }},
		{"exponents", `{"features":[[1e5,1E+5,1.5e-3,0.0,0e0]]}`, true,
			func(r *Request) bool { return reflect.DeepEqual(r.Features[0], []float64{1e5, 1e5, 1.5e-3, 0, 0}) }},
		{"underflow is zero", `{"features":[[1e-999]]}`, true, func(r *Request) bool { return r.Features[0][0] == 0 }},
		{"longer than strconv's stack buffer", `{"features":[[0.` + strings.Repeat("1", 60) + `]]}`, true, nil},
		{"leading zero", `{"features":[[01]]}`, false, nil},
		{"bare fraction", `{"features":[[.5]]}`, false, nil},
		{"trailing point", `{"features":[[1.]]}`, false, nil},
		{"plus sign", `{"features":[[+1]]}`, false, nil},
		{"NaN", `{"features":[[NaN]]}`, false, nil},
		{"Infinity", `{"features":[[Infinity]]}`, false, nil},
		{"overflow", `{"features":[[1e999]]}`, false, nil},
		{"bare minus", `{"features":[[-]]}`, false, nil},
		{"empty exponent", `{"features":[[1e]]}`, false, nil},
		{"hex", `{"features":[[0x10]]}`, false, nil},
		{"string for a number", `{"features":[["1"]]}`, false, nil},
		{"number for a row", `{"features":[1]}`, false, nil},
		{"object for features", `{"features":{}}`, false, nil},

		{"timeout fraction", `{"timeout_ms":1.5}`, false, nil},
		{"timeout exponent", `{"timeout_ms":1e2}`, false, nil},
		{"timeout negative", `{"timeout_ms":-5}`, true, func(r *Request) bool { return r.TimeoutMs == -5 }},
		{"timeout overflow", `{"timeout_ms":99999999999999999999}`, false, nil},
		{"timeout string", `{"timeout_ms":"5"}`, false, nil},
		{"top_k fraction", `{"options":{"top_k":1.5}}`, false, nil},
		{"top_k exponent", `{"options":{"top_k":1e2}}`, false, nil},
		{"version fraction", `{"options":{"version":1.5}}`, false, nil},
		{"no_perturb number", `{"options":{"no_perturb":1}}`, false, nil},
		{"options all", `{"options":{"top_k":3,"version":2,"no_perturb":true,"other":[1]}}`, true,
			func(r *Request) bool { return r.Options == Options{TopK: 3, Version: 2, NoPerturb: true} }},
		{"options not an object", `{"options":[1]}`, false, nil},
		{"model number", `{"model":5}`, false, nil},

		{"empty object", `{}`, true, func(r *Request) bool { return r.Model == "" && len(r.Features) == 0 }},
		{"empty features", `{"features":[]}`, true, func(r *Request) bool { return len(r.Features) == 0 }},
		{"empty row", `{"features":[[],[1],[]]}`, true,
			func(r *Request) bool {
				return len(r.Features) == 3 && len(r.Features[0]) == 0 && len(r.Features[1]) == 1
			}},
		{"whitespace everywhere", " \t\r\n{ \"model\" \n:\t\"m\" , \"features\" : [ [ 1 , 2 ] , [ ] ] , \"options\" : { \"top_k\" : 1 } , \"timeout_ms\" : 5 } \r\n", true,
			func(r *Request) bool {
				return r.Model == "m" && len(r.Features) == 2 && r.Options.TopK == 1 && r.TimeoutMs == 5
			}},
		{"form feed is not whitespace", "{\f}", false, nil},
		{"trailing comma in object", `{"model":"m",}`, false, nil},
		{"trailing comma in row", `{"features":[[1,]]}`, false, nil},
		{"missing colon", `{"model" "m"}`, false, nil},
		{"missing comma", `{"model":"m" "a":1}`, false, nil},
		{"unquoted key", `{model:"m"}`, false, nil},
		{"top-level array", `[]`, false, nil},
		{"top-level string", `"x"`, false, nil},
		{"empty body", ``, false, nil},
		{"a NUL byte", "{\x00}", false, nil},
		{"row limit reached", `{"features":[` + strings.Repeat("[],", MaxRows-1) + `[]]}`, true,
			func(r *Request) bool { return len(r.Features) == MaxRows }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkAgainstJSON(t, []byte(c.body)); got != c.accept {
				var r Request
				t.Fatalf("accepted = %v, want %v (err %v)", got, c.accept, Decode([]byte(c.body), &r))
			}
			if c.check != nil {
				var r Request
				if err := Decode([]byte(c.body), &r); err != nil || !c.check(&r) {
					t.Fatalf("decoded %+v, err %v", r, err)
				}
			}
		})
	}
}

// The two places the decoder is stricter than encoding/json, and the row
// limit: each body here is one encoding/json accepts.
func TestDecodeStricterThanJSON(t *testing.T) {
	for _, body := range []string{
		`{"model":"m"} x`, `{"model":"m"}{}`, `{}]`, // bytes after the object (Decoder.Decode ignored them)
		`null`, `{"model":null}`, `{"features":null}`, `{"features":[null]}`,
		`{"features":[[null]]}`, `{"timeout_ms":null}`,
		`{"features":[` + strings.Repeat("[],", MaxRows) + `[]]}`,
	} {
		var r Request
		if err := Decode([]byte(body), &r); err == nil {
			t.Errorf("accepted %.60q", body)
		}
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&Request{}); err != nil {
			t.Errorf("the old decoder rejected %.60q too (%v): not a tightening", body, err)
		}
	}
	// options is encoding/json's to judge, null included.
	var r Request
	if err := Decode([]byte(`{"options":null,"model":"m"}`), &r); err != nil || r.Model != "m" {
		t.Errorf("options:null: %v", err)
	}
}

// Every prefix of a valid request is an error, never a panic, and never a
// model for the router.
func TestDecodeTruncated(t *testing.T) {
	body := []byte(` {"model":"a\u00e9\"b","x":{"y":[true,null,"s"]},"features":[[1.5e-3,-0],[2]],` +
		`"options":{"top_k":2,"no_perturb":false},"timeout_ms":250} `)
	var r Request
	if err := Decode(body, &r); err != nil {
		t.Fatal(err)
	}
	end := bytes.LastIndexByte(body, '}')
	for n := 0; n < end; n++ {
		if err := Decode(body[:n], &r); err == nil {
			t.Errorf("accepted the %d-byte prefix %q", n, body[:n])
		}
		if m := Model(body[:n]); m != "" {
			t.Errorf("Model(%q) = %q", body[:n], m)
		}
	}
}

// A reused Request holds nothing of the body it decoded before, and neither
// aliases the body bytes.
func TestDecodeReuse(t *testing.T) {
	var r Request
	first := []byte(`{"model":"first","features":[[1,2,3],[4,5,6]],"options":{"top_k":2},"timeout_ms":9}`)
	if err := Decode(first, &r); err != nil {
		t.Fatal(err)
	}
	model := r.Model
	for i := range first {
		first[i] = 'x'
	}
	if model != "first" {
		t.Fatalf("Model aliases the body: %q", model)
	}
	if err := Decode([]byte(`{"features":[[7]]}`), &r); err != nil {
		t.Fatal(err)
	}
	if want := (&Request{Features: [][]float64{{7}}}); !sameRequest(&r, want) {
		t.Fatalf("reused request kept old fields: %+v", r)
	}
	if err := Decode([]byte(`{"model":"first","features":[[1],[2]]}`), &r); err != nil || r.Model != "first" {
		t.Fatalf("%+v, %v", r, err)
	}
	body := []byte(`{"model":"first","features":[[1,2,3],[4,5,6]]}`)
	if n := testing.AllocsPerRun(100, func() { _ = Decode(body, &r) }); n > 1 {
		t.Errorf("a warm Request decoded with %v allocations, want only the model name", n)
	}
}

// The row limit is enforced while scanning: an 8 MiB body of one-element
// rows is refused at row 1025, not after two million rows were built.
func TestDecodeBoundsFanOutBeforeAllocating(t *testing.T) {
	body := append([]byte(`{"features":[`), bytes.Repeat([]byte("[0],"), MaxBodyBytes/4-8)...)
	body = append(body, "[0]]}"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var r Request
	err := Decode(body, &r)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "per-request limit of 1024") {
		t.Fatalf("err = %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting a %d-byte body of one-element rows allocated %d bytes, want < 1 MiB", len(body), got)
	}
}

func TestReadBody(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 300)
	for _, declared := range []int64{-1, 0, 10, int64(len(data)), int64(len(data)) + 50} {
		for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data)), iotest.DataErrReader(bytes.NewReader(data))} {
			got, err := ReadBody(r, declared, nil)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("declared %d: %d bytes, err %v", declared, len(got), err)
			}
		}
	}
	// Reuse keeps the capacity and not the contents.
	buf, _ := ReadBody(bytes.NewReader(data), int64(len(data)), nil)
	again, err := ReadBody(strings.NewReader("short"), 5, buf)
	if err != nil || string(again) != "short" || &again[0] != &buf[0] {
		t.Fatalf("reuse: %q, %v", again, err)
	}
	if _, err := ReadBody(strings.NewReader(""), MaxBodyBytes+1, nil); err == nil {
		t.Error("a declared length over the limit was accepted")
	}
	over := io.LimitReader(zeroes{}, MaxBodyBytes+1)
	if _, err := ReadBody(over, -1, nil); err == nil {
		t.Error("an undeclared body over the limit was accepted")
	}
	if got, err := ReadBody(io.LimitReader(zeroes{}, MaxBodyBytes), -1, nil); err != nil || len(got) != MaxBodyBytes {
		t.Errorf("a body of exactly the limit: %d bytes, %v", len(got), err)
	}
	if _, err := ReadBody(iotest.ErrReader(io.ErrUnexpectedEOF), 4, nil); err != io.ErrUnexpectedEOF {
		t.Errorf("read error not passed up: %v", err)
	}
}

type zeroes struct{}

func (zeroes) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// seeds is the committed corpus both fuzz targets start from; `go test` runs
// each as a plain test.
var seeds = []string{
	`{"model":"mlp","features":[[0.25,-1.5e-3,3],[4,5,6]]}`,
	`{"model":"m","features":[[1]],"options":{"top_k":3,"version":2,"no_perturb":true},"timeout_ms":250}`,
	` { "MODEL" : "a\u00e9\"\\b" , "x" : { "y" : [ true , null , "]}" ] } , "features" : [ [ ] , [ -0 ] ] } `,
	`{"features":[[1e999]]}`, `{"features":[[01]]}`, `{"features":[[1.]]}`, `{"timeout_ms":1.5}`,
	`{"model":null}`, `{"features":[null]}`, `{"features":[[null]]}`, `null`, `{"options":null}`,
	`{"model":"a","model":"b","features":[[1,2]],"features":[[3]]}`,
	`{"options":{"top_k":1},"options":{"version":2}}`,
	`{"feature` + "\u017f" + `":[[1]]}`, `{"mod\u0065l":"\ud83d\ude00"}`, "{\"model\":\"\xff\"}",
	`{"model":"m"} trailing`, `{"a":[[[[[[[[]]]]]]]],"model":"m"}`, `{"a":[}`, `{`, ``, `[]`, `"s"`, `12`,
	`{"features":[[1,2,]]}`, `{"features":[[1 2]]}`, `{"model":"m",}`, `{"model":"\x"}`, `{"model":"\u12g4"}`,
}

func FuzzDecode(f *testing.F) {
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAgainstJSON(t, body) })
}

func FuzzModel(f *testing.F) {
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m := Model(body) // must not panic, whatever the bytes
		var r Request
		if err := Decode(body, &r); err == nil && m != r.Model {
			t.Fatalf("Model = %q, Decode's model = %q: %q", m, r.Model, body)
		}
		// What the router forwards on must be what encoding/json would have
		// sniffed: never a model out of a body that is not JSON.
		if m != "" && !json.Valid(body) {
			t.Fatalf("Model = %q from invalid JSON %q", m, body)
		}
	})
}

// Reply round trip: whatever AppendResponse writes, a client's json.Unmarshal
// reads back as the Response json.Marshal would have sent.
func TestAppendResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, 1e21, 123456789.125,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 1e-320}
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52) // any finite value
	}
	names := []string{"mlp", "", `a"b\c`, "caf\u00e9 \U0001F600", "a\xffb", "<tab\t&nl\n>", "\u2028", strings.Repeat("n", 300)}
	var buf []byte
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(12)
		switch iter % 20 {
		case 0:
			n = 0
		case 1:
			n = MaxRows
		}
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{
				Class: rng.Intn(2000) - 1000, Local: rng.Intn(2) == 0, Placement: names[rng.Intn(len(names))],
				ModelVersion: rng.Int(), BatchSize: rng.Intn(64), QueueMs: float(), ExecMs: float(), SimNetMs: float(),
			}
			if k := rng.Intn(4); k > 0 {
				rows[i].Probs = make([]ClassProb, k)
				for j := range rows[i].Probs {
					rows[i].Probs[j] = ClassProb{Class: rng.Intn(10), Prob: float()}
				}
			}
		}
		model := names[rng.Intn(len(names))]
		ref, err := json.Marshal(Response{Model: model, Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		buf = AppendResponse(buf[:0], model, rows)
		var want, got Response
		if err := json.Unmarshal(ref, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf, &got); err != nil {
			t.Fatalf("reply does not parse: %v\n%.300s", err, buf)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: reply decodes differently from json.Marshal's\n got %.300s\nwant %.300s", iter, buf, ref)
		}
	}
	// No rows is an empty array, as the handler's make([]RowResult, 0) was.
	if got := string(AppendResponse(nil, "m", nil)); got != `{"model":"m","rows":[]}`+"\n" {
		t.Errorf("empty reply = %q", got)
	}
	// JSON cannot spell these; the reply must still parse.
	out := AppendResponse(nil, "m", []Row{{QueueMs: math.NaN(), ExecMs: math.Inf(1), Probs: []ClassProb{{Prob: math.Inf(-1)}}}})
	if !json.Valid(out) {
		t.Errorf("non-finite floats made an invalid reply: %s", out)
	}
}

func BenchmarkDecode(b *testing.B) {
	body := []byte(`{"model":"mlp","features":[[` + strings.TrimSuffix(strings.Repeat("-0.8233419012345678,", 64), ",") + `]]}`)
	b.Run("wire", func(b *testing.B) {
		var r Request
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if err := Decode(body, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var r Request
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("model", func(b *testing.B) {
		for b.Loop() {
			if Model(body) != "mlp" {
				b.Fatal("model")
			}
		}
	})
}
