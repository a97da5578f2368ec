package hgio

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/rng"
)

// FuzzTextBinaryRoundTrip feeds arbitrary bytes through the text
// parser; whenever they parse, the canonical hypergraph must survive
// text→binary→text unchanged, and its digest must be format-invariant.
func FuzzTextBinaryRoundTrip(f *testing.F) {
	f.Add("hypergraph 4 2\n0 1\n2 3\n")
	f.Add("hypergraph 6 3\n0 1 2\n2 3 4\n1 4 5\n")
	f.Add("hypergraph 5 0\n")
	f.Add("hypergraph 3 1\n# comment\n0 1 2\n")
	f.Add("hypergraph 10 2\n9 0\n5 5 5\n") // unsorted + duplicate vertices: canonicalized
	var seedText bytes.Buffer
	if err := WriteText(&seedText, hypergraph.RandomMixed(rng.New(3), 40, 60, 2, 5)); err != nil {
		f.Fatal(err)
	}
	f.Add(seedText.String())

	f.Fuzz(func(t *testing.T, in string) {
		h, err := ReadText(strings.NewReader(in))
		if err != nil {
			return // malformed input: rejection is the correct behaviour
		}
		var text1 bytes.Buffer
		if err := WriteText(&text1, h); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		var bin bytes.Buffer
		if err := WriteBinary(&bin, h); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		h2, err := ReadBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("ReadBinary of own output: %v", err)
		}
		var text2 bytes.Buffer
		if err := WriteText(&text2, h2); err != nil {
			t.Fatalf("WriteText after binary trip: %v", err)
		}
		if text1.String() != text2.String() {
			t.Fatalf("text→binary→text not identity:\n%q\nvs\n%q", text1.String(), text2.String())
		}
		if d1, d2 := Digest(h), Digest(h2); d1 != d2 {
			t.Fatalf("digest changed across binary trip: %s vs %s", d1, d2)
		}
	})
}

// TestMalformedHeaders is the rejection table for both formats' headers.
func TestMalformedHeaders(t *testing.T) {
	textCases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"whitespace only", "   \n"},
		{"wrong keyword", "graph 3 1\n0 1\n"},
		{"missing counts", "hypergraph\n"},
		{"one count", "hypergraph 3\n"},
		{"non-numeric n", "hypergraph x 1\n0 1\n"},
		{"non-numeric m", "hypergraph 3 y\n0 1\n"},
		{"negative n", "hypergraph -3 1\n0 1\n"},
		{"n past 2^31", "hypergraph 3000000000 0\n"},
		{"m past 2^31", "hypergraph 5 3000000000\n"},
		{"declared too many", "hypergraph 3 2\n0 1\n"},
		{"declared too few", "hypergraph 3 1\n0 1\n1 2\n"},
	}
	for _, tc := range textCases {
		if _, err := ReadText(strings.NewReader(tc.in)); err == nil {
			t.Errorf("text %s: %q accepted", tc.name, tc.in)
		}
	}

	binCases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"short magic", []byte("HG")},
		{"wrong magic", []byte("HGB2....")},
		{"magic only", []byte("HGB1")},
		{"n without m", append([]byte("HGB1"), 5)},
		{"huge n", append([]byte("HGB1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0)},
		{"m past 2^31", binary.AppendUvarint(append([]byte("HGB1"), 5), 3000000000)},
		{"edge size zero", append([]byte("HGB1"), 3, 1, 0)},
		{"edge size over n", append([]byte("HGB1"), 3, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"truncated edge", append([]byte("HGB1"), 3, 1, 2, 0)},
	}
	for _, tc := range binCases {
		if _, err := ReadBinary(bytes.NewReader(tc.in)); err == nil {
			t.Errorf("binary %s: accepted", tc.name)
		}
	}
}

// TestReadBinaryHugeDeclaredEdge: a tiny stream declaring a gigantic
// edge must fail on read without first allocating the declared size.
func TestReadBinaryHugeDeclaredEdge(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("HGB1")
	var tmp [10]byte
	for _, x := range []uint64{1 << 30 /* n */, 1 /* m */, 1 << 29 /* k */} {
		k := binary.PutUvarint(tmp[:], x)
		buf.Write(tmp[:k])
	}
	// No vertex data follows: the reader must hit EOF, not OOM.
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("truncated huge-edge stream accepted")
	}
}

// TestDigest pins the digest's semantics: equal instances digest equal,
// any change to n or the edge set changes it.
func TestDigest(t *testing.T) {
	h1 := hypergraph.NewBuilder(6).AddEdge(0, 1, 2).AddEdge(2, 3).MustBuild()
	h2 := hypergraph.NewBuilder(6).AddEdge(2, 3).AddEdge(2, 1, 0).MustBuild() // same set, different build order
	if Digest(h1) != Digest(h2) {
		t.Fatal("equal instances digest differently")
	}
	h3 := hypergraph.NewBuilder(7).AddEdge(0, 1, 2).AddEdge(2, 3).MustBuild() // extra vertex
	if Digest(h1) == Digest(h3) {
		t.Fatal("different n, same digest")
	}
	h4 := hypergraph.NewBuilder(6).AddEdge(0, 1, 2).AddEdge(2, 4).MustBuild() // different edge
	if Digest(h1) == Digest(h4) {
		t.Fatal("different edges, same digest")
	}
	if len(Digest(h1)) != 64 {
		t.Fatalf("digest length %d, want 64 hex chars", len(Digest(h1)))
	}
}
