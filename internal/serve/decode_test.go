package serve

// The wire decoder against its reference, encoding/json: a
// differential fuzz target, an edge table of the cases a fuzzer rarely
// reaches, an allocation pin, and the decode microbenchmark.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/textgen"
)

// wireGen is the textgen generator the benchmark's traffic comes from.
func wireGen() *textgen.Generator {
	u := textgen.MustUniverse(textgen.SmallUniverseConfig())
	return textgen.MustNew(u, textgen.DefaultConfig())
}

// outcome is one decode: the message and spam flag, or the error.
type outcome struct {
	msg  *mail.Message
	spam bool
	err  error
}

func (o outcome) String() string {
	if o.err != nil {
		return "error: " + o.err.Error()
	}
	return fmt.Sprintf("%+v spam=%v", *o.msg, o.spam)
}

// refLine is the reference for a batch line: json.Unmarshal.
func refLine(data []byte) outcome {
	var wm WireMessage
	if err := json.Unmarshal(data, &wm); err != nil {
		return outcome{err: err}
	}
	return outcome{msg: wm.Mail()}
}

// refBody is the reference for a single body: json.Decoder with
// DisallowUnknownFields, reading through the same cap as the handlers
// when limit > 0.
func refBody(data []byte, learn bool, limit int64) outcome {
	var r io.Reader = bytes.NewReader(data)
	if limit > 0 {
		r = http.MaxBytesReader(nil, io.NopCloser(r), limit)
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if learn {
		var req LearnRequest
		if err := dec.Decode(&req); err != nil {
			return outcome{err: err}
		}
		return outcome{msg: req.Message.Mail(), spam: req.Spam}
	}
	var req ClassifyRequest
	if err := dec.Decode(&req); err != nil {
		return outcome{err: err}
	}
	return outcome{msg: req.Message.Mail()}
}

// wireLine decodes a batch line from a private copy of data, then
// wipes the copy, so a decoded string that aliased the input shows.
func wireLine(data []byte) outcome {
	d := getDecoder()
	defer d.release()
	in := bytes.Clone(data)
	m, err := d.line(in)
	clear(in)
	return outcome{msg: m, err: err}
}

// wireBody decodes a body the way the handlers do, fed in chunks so the
// incremental read path runs, then wipes the read buffer.
func wireBody(data []byte, learn bool, limit int64) outcome {
	d := getDecoder()
	defer d.release()
	var r io.Reader = iotest.HalfReader(bytes.NewReader(data))
	if limit > 0 {
		r = http.MaxBytesReader(nil, io.NopCloser(r), limit)
	}
	m, spam, err := d.request(r, learn)
	clear(d.buf[:cap(d.buf)])
	return outcome{msg: m, spam: spam, err: err}
}

// same reports whether two outcomes agree: both errors (the text may
// differ), or the same message and spam flag.
func same(a, b outcome) bool {
	if (a.err != nil) != (b.err != nil) {
		return false
	}
	return a.err != nil || a.spam == b.spam && reflect.DeepEqual(a.msg, b.msg)
}

// checkWire runs data through every decode the handlers make and fails
// on any disagreement with encoding/json.
func checkWire(t *testing.T, data []byte) {
	t.Helper()
	if want, got := refLine(data), wireLine(data); !same(want, got) {
		t.Fatalf("batch line %q:\n encoding/json %v\n wire          %v", data, want, got)
	}
	// Without a cap, and with one that cuts the input short.
	for _, limit := range []int64{0, int64(len(data)) * 2 / 3} {
		for _, learn := range []bool{false, true} {
			if want, got := refBody(data, learn, limit), wireBody(data, learn, limit); !same(want, got) {
				t.Fatalf("body %q (learn=%v, cap %d):\n encoding/json %v\n wire          %v", data, learn, limit, want, got)
			}
		}
	}
}

// FuzzWireDecode holds the wire decoder to encoding/json on arbitrary
// bytes. Its seeds in testdata/fuzz are benchmark-shaped textgen mail,
// as batch lines and as classify and learn bodies, and every wireEdges
// input.
func FuzzWireDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWire(t, data)
	})
}

// wireEdges are inputs a fuzzer rarely builds. want, when set, is the
// batch line's decoded message, or with body set, the learn body's.
var wireEdges = []struct {
	name string
	in   string
	body bool // want is the learn-body decode, not the batch line's
	want *mail.Message
	spam bool
}{
	{name: "folded body key", in: `{"BODY":"x"}`, want: &mail.Message{Body: "x"}},
	{name: "folded message key", in: `{"MeSSaGe":{"bOdY":"x"}}`, body: true, want: &mail.Message{Body: "x"}},
	{name: "long s folds to spam", in: `{"message":{"body":"x"},"ſpam":true}`, body: true, want: &mail.Message{Body: "x"}, spam: true},
	{name: "long s folds to message", in: `{"meſſage":{"body":"x"}}`, body: true, want: &mail.Message{Body: "x"}},
	{name: "unknown key in a header element", in: `{"header":[{"name":"A","values":"1"}]}`, want: &mail.Message{Header: mail.Header{{Name: "A"}}}},
	{name: "escaped key", in: `{"bo\u0064y":"x"}`, want: &mail.Message{Body: "x"}},
	{name: "escaped field keys", in: `{"header":[{"n\u0061me":"A","\u0076alue":"1"}]}`, want: &mail.Message{Header: mail.Header{{Name: "A", Value: "1"}}}},
	{name: "null header", in: `{"header":null,"body":"x"}`, want: &mail.Message{Body: "x"}},
	{name: "null body keeps earlier body", in: `{"body":"x","body":null}`, want: &mail.Message{Body: "x"}},
	{name: "null message", in: `{"message":null}`, body: true, want: &mail.Message{}},
	{name: "null spam keeps earlier spam", in: `{"spam":true,"spam":null}`, body: true, want: &mail.Message{}, spam: true},
	{name: "null header element", in: `{"header":[null,{"name":"B"}]}`, want: &mail.Message{Header: mail.Header{{}, {Name: "B"}}}},
	{name: "null header fields", in: `{"header":[{"name":null,"value":null}]}`, want: &mail.Message{Header: mail.Header{{}}}},
	{name: "top-level null", in: `null`, want: &mail.Message{}},
	{name: "repeated header decodes over the first", in: `{"header":[{"name":"A","value":"1"}],"header":[{"name":"B"}]}`, want: &mail.Message{Header: mail.Header{{Name: "B", Value: "1"}}}},
	{name: "shorter repeated header truncates", in: `{"header":[{"name":"A"},{"name":"B"}],"header":[{"value":"1"}]}`, want: &mail.Message{Header: mail.Header{{Name: "A", Value: "1"}}}},
	{name: "regrown header reuses dropped elements", in: `{"header":[{"name":"A"},{"name":"B","value":"2"}],"header":[{}],"header":[{},{"name":"C"}]}`, want: &mail.Message{Header: mail.Header{{Name: "A"}, {Name: "C", Value: "2"}}}},
	{name: "empty header starts afresh", in: `{"header":[{"name":"A"},{"name":"B"}],"header":[],"header":[{},{"value":"1"}]}`, want: &mail.Message{Header: mail.Header{{}, {Value: "1"}}}},
	{name: "null header element over a repeated header", in: `{"header":[{"name":"A","value":"1"}],"header":[null]}`, want: &mail.Message{Header: mail.Header{{Name: "A", Value: "1"}}}},
	{name: "repeated message", in: `{"message":{"header":[{"name":"A","value":"1"}]},"message":{"header":[{"name":"B"}],"body":"x"}}`, body: true, want: &mail.Message{Header: mail.Header{{Name: "B", Value: "1"}}, Body: "x"}},
	{name: "invalid UTF-8", in: "{\"body\":\"a\xffb\xc3\"}", want: &mail.Message{Body: "a\uFFFDb\uFFFD"}},
	{name: "UTF-8 surrogate bytes", in: "{\"body\":\"\xed\xa0\x80\"}", want: &mail.Message{Body: "\uFFFD\uFFFD\uFFFD"}},
	{name: "lone high surrogate", in: `{"body":"a\ud800b"}`, want: &mail.Message{Body: "a\uFFFDb"}},
	{name: "lone low surrogate", in: `{"body":"\udc00"}`, want: &mail.Message{Body: "\uFFFD"}},
	{name: "two high surrogates", in: `{"body":"\ud800\ud800\udc00"}`, want: &mail.Message{Body: "\uFFFD\U00010000"}},
	{name: "surrogate pair", in: `{"body":"\ud83d\ude00"}`, want: &mail.Message{Body: "\U0001F600"}},
	{name: "escapes", in: `{"body":"\"\\\/\b\f\n\r\t\u00e9\u0000"}`, want: &mail.Message{Body: "\"\\/\b\f\n\r\t\u00e9\x00"}},
	{name: "invalid UTF-8 key", in: "{\"bod\xff\":\"x\"}", want: &mail.Message{}},
	{name: "unknown keys skipped on a line", in: `{"x":[1,-2.5e+3,true,false,null,"s",{"y":{}},[]],"body":"x"}`, want: &mail.Message{Body: "x"}},
	{name: "trailing value on a line", in: `{"body":"x"} {}`},
	{name: "trailing comma", in: `{"body":"x",}`},
	{name: "number type error", in: `{"body":1}`},
	{name: "object header", in: `{"header":{}}`},
	{name: "bad escape", in: `{"body":"\x"}`},
	{name: "control byte", in: "{\"body\":\"a\tb\"}"},
	{name: "leading zero", in: `{"x":01}`},
	{name: "bad exponent", in: `{"x":1e}`},
	{name: "top-level string", in: `"body"`},
	{name: "whitespace around", in: " \t\r\n{\"body\" : \"x\" } \n", want: &mail.Message{Body: "x"}},
	{name: "null then garbage", in: `nullx`, body: true, want: &mail.Message{}},
	{name: "deepest skipped value", in: `{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`, want: &mail.Message{}},
	{name: "too deep skipped value", in: `{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`},
	{name: "too deep skipped object", in: `{"x":` + strings.Repeat(`{"a":`, maxDepth) + `1` + strings.Repeat("}", maxDepth) + `}`},
}

// TestWireDecodeEdges checks each edge case against encoding/json, and
// against its written-out expectation.
func TestWireDecodeEdges(t *testing.T) {
	for _, tc := range wireEdges {
		t.Run(tc.name, func(t *testing.T) {
			checkWire(t, []byte(tc.in))
			got := wireLine([]byte(tc.in))
			if tc.body {
				got = wireBody([]byte(tc.in), true, 0)
			}
			if tc.want == nil {
				if got.err == nil {
					t.Fatalf("decoded %v, want an error", got)
				}
				return
			}
			if want := (outcome{msg: tc.want, spam: tc.spam}); !same(want, got) {
				t.Fatalf("decoded %v, want %v", got, want)
			}
		})
	}
}

// TestWireDecodeSample checks a sample of the benchmark's own traffic,
// encoded as batch lines and as classify and learn bodies.
func TestWireDecodeSample(t *testing.T) {
	g := wireGen()
	rng := stats.NewRNG(43)
	for i := 0; i < 200; i++ {
		m := WireFromMail(g.Message(rng, i%3 == 0))
		line, _ := json.Marshal(m)
		classify, _ := json.Marshal(ClassifyRequest{Message: m})
		learn, _ := json.Marshal(LearnRequest{Message: m, Spam: i%2 == 0})
		for _, data := range [][]byte{line, classify, learn} {
			checkWire(t, data)
		}
		if got := wireLine(line); got.err != nil || !reflect.DeepEqual(got.msg, m.Mail()) {
			t.Fatalf("line %d decoded to %v", i, got)
		}
	}
}

// benchMessage is one fixed benchmark-shaped message: the first spam
// the benchmark's generator makes from seed 1.
func benchMessage() WireMessage {
	return WireFromMail(wireGen().Message(stats.NewRNG(1), true))
}

// wireAllocs pins what decoding benchMessage allocates: the message,
// its exact-size header, and one string per non-empty header name,
// header value and body. Anything more is per-field garbage.
const wireAllocs = 27

func TestWireDecodeAllocs(t *testing.T) {
	m := benchMessage()
	strs := 1 // the body
	for _, h := range m.Header {
		strs += min(len(h.Name), 1) + min(len(h.Value), 1)
	}
	if want := 2 + strs; want != wireAllocs {
		t.Fatalf("benchmark message needs %d allocations, pinned %d: update the pin", want, wireAllocs)
	}
	line, _ := json.Marshal(m)
	body, _ := json.Marshal(LearnRequest{Message: m, Spam: true})
	r := bytes.NewReader(body)
	d := getDecoder()
	defer d.release()
	checks := []struct {
		name string
		run  func()
	}{
		{"batch line", func() {
			if _, err := d.line(line); err != nil {
				t.Fatal(err)
			}
		}},
		{"learn body", func() {
			r.Reset(body)
			if _, _, err := d.request(r, true); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range checks {
		if got := testing.AllocsPerRun(100, c.run); got != wireAllocs {
			t.Errorf("%s: %v allocs per decode, want %d", c.name, got, wireAllocs)
		}
	}
}

// BenchmarkWireDecode compares the wire decoder with encoding/json plus
// WireMessage.Mail on the benchmark's traffic: batch lines and learn
// bodies.
func BenchmarkWireDecode(b *testing.B) {
	g := wireGen()
	rng := stats.NewRNG(1)
	const n = 256
	var lines, bodies [][]byte
	size := [2]int{}
	for i := 0; i < n; i++ {
		m := WireFromMail(g.Message(rng, i%5 < 2))
		line, _ := json.Marshal(m)
		body, _ := json.Marshal(LearnRequest{Message: m, Spam: i%2 == 0})
		lines, bodies = append(lines, line), append(bodies, body)
		size[0] += len(line)
		size[1] += len(body)
	}
	var sink *mail.Message
	b.Run("line/encoding_json", func(b *testing.B) {
		b.SetBytes(int64(size[0] / n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wm WireMessage
			if err := json.Unmarshal(lines[i%n], &wm); err != nil {
				b.Fatal(err)
			}
			sink = wm.Mail()
		}
	})
	b.Run("line/wire", func(b *testing.B) {
		b.SetBytes(int64(size[0] / n))
		b.ReportAllocs()
		d := getDecoder()
		defer d.release()
		for i := 0; i < b.N; i++ {
			m, err := d.line(lines[i%n])
			if err != nil {
				b.Fatal(err)
			}
			sink = m
		}
	})
	b.Run("learn/encoding_json", func(b *testing.B) {
		b.SetBytes(int64(size[1] / n))
		b.ReportAllocs()
		r := bytes.NewReader(nil)
		for i := 0; i < b.N; i++ {
			r.Reset(bodies[i%n])
			dec := json.NewDecoder(r)
			dec.DisallowUnknownFields()
			var req LearnRequest
			if err := dec.Decode(&req); err != nil {
				b.Fatal(err)
			}
			sink = req.Message.Mail()
		}
	})
	b.Run("learn/wire", func(b *testing.B) {
		b.SetBytes(int64(size[1] / n))
		b.ReportAllocs()
		r := bytes.NewReader(nil)
		for i := 0; i < b.N; i++ {
			r.Reset(bodies[i%n])
			d := getDecoder()
			m, _, err := d.request(r, true)
			d.release()
			if err != nil {
				b.Fatal(err)
			}
			sink = m
		}
	})
	_ = sink
}
