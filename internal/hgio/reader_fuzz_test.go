package hgio

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/rng"
)

// agreeWithReference fails unless the arena reader's result (got, err)
// and the reference reader's (want, wantErr) agree on accept or reject
// and, on acceptance, on N() and Digest. An accepted result must also
// be canonical on its own: each edge strictly increasing, the edge list
// strictly increasing, and Dim the largest edge.
func agreeWithReference(t *testing.T, in []byte, got *hypergraph.Hypergraph, err error, want *hypergraph.Hypergraph, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("input %q: reader error %v, reference error %v", in, err, wantErr)
	}
	if err != nil {
		return
	}
	if got.N() != want.N() || Digest(got) != Digest(want) {
		t.Fatalf("input %q: reader gives %v %v, reference %v %v", in, got, edgeList(got), want, edgeList(want))
	}
	dim := 0
	for i, e := range got.Edges() {
		dim = max(dim, len(e))
		for j := 1; j < len(e); j++ {
			if e[j-1] >= e[j] {
				t.Fatalf("input %q: edge %d = %v is not strictly increasing", in, i, e)
			}
		}
		if i > 0 && slices.Compare(got.Edge(i-1), e) >= 0 {
			t.Fatalf("input %q: edges %d and %d out of order: %v, %v", in, i-1, i, got.Edge(i-1), e)
		}
	}
	if got.Dim() != dim {
		t.Fatalf("input %q: Dim() = %d, largest edge %d", in, got.Dim(), dim)
	}
}

// FuzzReadTextMatchesReference checks ReadText against the reader it
// replaced on arbitrary bytes. The one deliberate difference is the
// shared header check: a header declaring more than 2^31 vertices,
// which the reference accepted, must be rejected. (The reference also
// refused lines over 64 MiB; no fuzz input gets near that.)
func FuzzReadTextMatchesReference(f *testing.F) {
	for _, s := range []string{
		"hypergraph 4 2\n0 1\n2 3\n",
		"hypergraph 5 0",
		"  hypergraph\t5 1 trailing words\n0 4",
		"hypergraph 6 2\n0\t1\r\n2\v3\f4\n",
		"hypergraph 6 2\r\n0 1\r\n# comment\r\n\r\n2 3\r\n",
		"hypergraph 6 2\n0\u00a01\n2\u00853\u20284\n",
		"hypergraph 6 1\n0\u00a11\n",
		"hypergraph 6 1\n0\xc2\n",
		"hypergraph 6 1\n\u3000# indented comment\n1 2\n",
		"hypergraph +6 +1\n+5 -0 0003 00000000000000000000000004\n",
		"hypergraph 6 1\n-1 2\n",
		"hypergraph 6 1\n1 +-2\n",
		"hypergraph 6 1\n1 2#\n",
		"hypergraph 2147483648 1\n2147483647 0\n",
		"hypergraph 2147483648 1\n2147483648 0\n",
		"hypergraph 5 1\n4294967297 2\n",
		"hypergraph 3000000000 0\n",
		"hypergraph 5 3000000000\n",
		"hypergraph -0 -0\n",
		"hypergraph 9 3\n5 6 7\n0 1\n3 2 1\n",
		"hypergraph 9 3\n0 1\n1 0\n0 1\n",
		"hypergraph 9 1\n4 4 4 1 1\n",
		"hypergraph3 0\n",
		"hypergraph 3,0\n",
		"hypergraph 3 0x\n",
		"\nhypergraph 3 0\n",
	} {
		f.Add([]byte(s))
	}
	var w bytes.Buffer
	if err := WriteText(&w, hypergraph.RandomMixed(rng.New(5), 40, 60, 2, 5)); err != nil {
		f.Fatal(err)
	}
	f.Add(w.Bytes())

	f.Fuzz(func(t *testing.T, in []byte) {
		want, wantErr := referenceReadText(bytes.NewReader(in))
		got, err := ReadText(bytes.NewReader(in))
		if wantErr == nil && want.N() > maxCount {
			if err == nil {
				t.Fatalf("input %q: n = %d past 2^31 accepted", in, got.N())
			}
			return
		}
		agreeWithReference(t, in, got, err, want, wantErr)
	})
}

// FuzzReadBinaryMatchesReference checks ReadBinary against the reader
// it replaced on arbitrary bytes; the two must agree exactly.
func FuzzReadBinaryMatchesReference(f *testing.F) {
	enc := func(xs ...uint64) []byte {
		b := []byte(binaryMagic)
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	for _, in := range [][]byte{
		enc(5, 0),
		enc(5, 2, 2, 0, 1, 3, 1, 1, 1),               // {0,1} {1,2,3}
		enc(5, 1, 3, 2, 0, 0),                        // zero gaps: {2,2,2}
		enc(5, 2, 2, 3, 1, 2, 0, 1),                  // out of order: {3,4} {0,1}
		enc(5, 2, 2, 0, 1, 2, 0, 1),                  // duplicate edges
		append(enc(5), 0x81, 0x80, 0x00),             // non-minimal varint m = 1
		append(enc(5, 1, 2), 0x80, 0x00, 0x84, 0x00), // non-minimal ids {0,4}
		enc(5, 1, 3, 0, 1),                           // truncated edge
		enc(5, 2, 2, 0, 1),                           // truncated edge list
		append(enc(5, 1, 1, 4), "trailing"...),
		enc(1<<31, 1, 1, 1<<31-1),
		enc(1<<31+1, 0),
		enc(5, 1<<31+1),
	} {
		f.Add(in)
	}
	var w bytes.Buffer
	if err := WriteBinary(&w, hypergraph.RandomMixed(rng.New(6), 40, 60, 2, 5)); err != nil {
		f.Fatal(err)
	}
	f.Add(w.Bytes())

	f.Fuzz(func(t *testing.T, in []byte) {
		want, wantErr := referenceReadBinary(bytes.NewReader(in))
		got, err := ReadBinary(bytes.NewReader(in))
		agreeWithReference(t, in, got, err, want, wantErr)
	})
}
