package binfmt_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/binfmt"
)

// field is one typed value of a random field sequence.
type field struct {
	kind byte // one of the kinds below
	u    uint64
	p    []byte
	f    float64
	b    bool
}

// The field kinds a sequence draws from.
const (
	kindUvarint = iota
	kindBytes
	kindString
	kindUint64
	kindFloat64
	kindBool
	kindCount // a Count of Bools, each one byte
	kinds
)

// program reads data as a field sequence: each field a kind byte, then
// the bytes its value takes. Floats are kept finite (a non-finite one
// does not round-trip by design), and a count's items are bools.
func program(data []byte) []field {
	var out []field
	take := func(n int) []byte {
		n = min(n, len(data))
		p := data[:n]
		data = data[n:]
		return p
	}
	word := func(shift byte) uint64 {
		var w [8]byte
		copy(w[:], take(8))
		return binary.LittleEndian.Uint64(w[:]) >> (shift % 64)
	}
	for len(data) > 0 {
		op := take(1)[0]
		f := field{kind: op % kinds}
		switch f.kind {
		case kindUvarint:
			f.u = word(op >> 3)
		case kindBytes, kindString:
			n := 0
			if len(data) > 0 {
				n = int(take(1)[0])
			}
			f.p = bytes.Clone(take(n))
		case kindUint64:
			f.u = word(0)
		case kindFloat64:
			if f.f = math.Float64frombits(word(0)); math.IsNaN(f.f) || math.IsInf(f.f, 0) {
				f.f = 0
			}
		case kindBool:
			f.b = op&0x80 != 0
		case kindCount:
			f.u = uint64(op >> 3)
		}
		out = append(out, f)
	}
	return out
}

func write(w *binfmt.Writer, fs []field) {
	for _, f := range fs {
		switch f.kind {
		case kindUvarint:
			w.Uvarint(f.u)
		case kindBytes:
			w.Bytes(f.p)
		case kindString:
			w.String(string(f.p))
		case kindUint64:
			w.Uint64(f.u)
		case kindFloat64:
			w.Float64(f.f)
		case kindBool:
			w.Bool(f.b)
		case kindCount:
			w.Uvarint(f.u)
			for i := range f.u {
				w.Bool(i%2 == 1)
			}
		}
	}
}

// read reads fs's kinds back and returns what it read.
func read(r *binfmt.Reader, fs []field) []field {
	out := make([]field, len(fs))
	for i, f := range fs {
		g := field{kind: f.kind}
		switch f.kind {
		case kindUvarint:
			g.u = r.Uvarint("uvarint")
		case kindBytes:
			g.p = r.Bytes("bytes")
			if cap(g.p) != len(g.p) {
				panic("Bytes returned spare capacity into the input")
			}
		case kindString:
			g.p = []byte(r.String("string"))
		case kindUint64:
			g.u = r.Uint64("uint64")
		case kindFloat64:
			g.f = r.Float64("float64")
		case kindBool:
			g.b = r.Bool("bool")
		case kindCount:
			g.u = uint64(r.Count("count", 1))
			for j := range g.u {
				if r.Bool("item") != (j%2 == 1) && r.Err() == nil {
					r.Fail("count item %d changed", j)
				}
			}
		}
		out[i] = g
	}
	return out
}

func same(a, b field) bool {
	return a.kind == b.kind && a.u == b.u && bytes.Equal(a.p, b.p) && a.b == b.b &&
		math.Float64bits(a.f) == math.Float64bits(b.f)
}

// FuzzCodec holds the codec to two properties. A random field sequence
// — the input read as kinds and values — written by a Writer and sealed
// reads back through Open and a Reader unchanged and ends clean. And
// the input itself, read through every kind in a fixed order, bare and
// through Open, errors or reads and never panics; what it reads, the
// Writer writes back to bytes that read the same.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 1, 2, 3, 4, 5, 6, 7, 8, 0x01, 3, 'a', 'b', 'c', 0x05, 0x86})
	f.Add([]byte{0x04, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x3e, 0x02, 0x02, 'h', 'i', 0x85})
	w := binfmt.NewWriter("SNAP\x02", 0)
	w.String("sbayes")
	w.Uvarint(1 << 40)
	w.Bytes([]byte("payload"))
	f.Add(w.Seal())
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := program(data)
		w := binfmt.NewWriter("TEST\x01", 0)
		write(w, fs)
		v, r, err := binfmt.Open(w.Seal(), "TEST", 1, "fuzz")
		if err != nil || v != 1 {
			t.Fatalf("a sealed sequence of %d fields does not open: version %d, %v", len(fs), v, err)
		}
		got := read(r, fs)
		if err := r.End(); err != nil {
			t.Fatalf("a written sequence of %d fields does not read back: %v", len(fs), err)
		}
		for i := range fs {
			if !same(got[i], fs[i]) {
				t.Fatalf("field %d (kind %d) read back as %+v, wrote %+v", i, fs[i].kind, got[i], fs[i])
			}
		}

		fixed := make([]field, kinds)
		for k := range fixed {
			fixed[k].kind = byte(k)
		}
		r = binfmt.NewReader(data, "fuzz")
		got = read(r, fixed)
		if r.End() == nil {
			w := binfmt.NewWriter("", 0)
			write(w, got)
			r := binfmt.NewReader(w.Data(), "fuzz")
			again := read(r, fixed)
			if err := r.End(); err != nil {
				t.Fatalf("what the fixed sequence read does not read back: %v", err)
			}
			for i := range got {
				if !same(again[i], got[i]) {
					t.Fatalf("field %d re-read as %+v, was %+v", i, again[i], got[i])
				}
			}
		}
		if _, r, err := binfmt.Open(data, "SNAP", 2, "fuzz"); err == nil {
			read(r, fixed)
			r.End()
		}
	})
}

// TestReaderBounds pins the bounds every format inherits: the first
// error sticks, a count cannot outgrow the bytes left, a byte string
// cannot be appended into what follows it, floats are finite, trailing
// bytes are an error, and Open checks magic, version and checksum.
func TestReaderBounds(t *testing.T) {
	w := binfmt.NewWriter("", 0)
	w.Uvarint(3)
	w.Bytes([]byte("ab"))
	w.Bool(true)
	data := w.Data()

	r := binfmt.NewReader(data, "t")
	if n := r.Count("count", 2); n != 0 || r.Err() == nil {
		t.Fatalf("count 3 of two-byte items over 4 bytes: %d, %v; want a failure", n, r.Err())
	}
	r = binfmt.NewReader(data, "t")
	if n := r.Count("count", 1); n != 3 || r.Err() != nil {
		t.Fatalf("count 3 of one-byte items over 4 bytes: %d, %v", n, r.Err())
	}
	b := r.Bytes("bytes")
	if string(b) != "ab" || cap(b) != 2 {
		t.Fatalf("bytes %q with capacity %d, want \"ab\" with 2", b, cap(b))
	}
	if r.Uint64("word"); r.Err() == nil {
		t.Fatal("a word read from one byte")
	}
	if r.Bool("bool") || r.End() != r.Err() {
		t.Fatal("a read after the first error did not return zero and keep the error")
	}

	r = binfmt.NewReader(data, "t")
	r.Uvarint("n")
	if r.End() == nil {
		t.Fatal("trailing bytes ended clean")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := binfmt.NewWriter("", 0)
		w.Float64(v)
		if r := binfmt.NewReader(w.Data(), "t"); r.Float64("f") != 0 || r.Err() == nil {
			t.Fatalf("float %v read without error", v)
		}
	}

	sealed := binfmt.NewWriter("SNAP\x02", 0).Seal()
	for name, in := range map[string][]byte{
		"short":    sealed[:8],
		"magic":    append([]byte("SNAQ"), sealed[4:]...),
		"version":  binfmt.NewWriter("SNAP\x03", 0).Seal(),
		"version0": binfmt.NewWriter("SNAP\x00", 0).Seal(),
		"checksum": append(bytes.Clone(sealed[:8]), sealed[8]^1),
	} {
		if _, _, err := binfmt.Open(in, "SNAP", 2, "t"); err == nil {
			t.Errorf("%s: Open accepted %q", name, in)
		}
	}
	if v, r, err := binfmt.Open(sealed, "SNAP", 2, "t"); err != nil || v != 2 || r.End() != nil {
		t.Fatalf("Open of an empty sealed record: version %d, %v", v, err)
	}
}
