package hgio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/rng"
)

func roundTripText(t *testing.T, h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteText(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func roundTripBinary(t *testing.T, h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// edgeList collects h's edges for a failure message.
func edgeList(h *hypergraph.Hypergraph) []hypergraph.Edge {
	var edges []hypergraph.Edge
	for _, e := range h.Edges() {
		edges = append(edges, e)
	}
	return edges
}

func equalHypergraphs(a, b *hypergraph.Hypergraph) bool {
	if a.N() != b.N() || a.M() != b.M() || a.Dim() != b.Dim() {
		return false
	}
	for i := range a.Edges() {
		ea, eb := a.Edge(i), b.Edge(i)
		if len(ea) != len(eb) {
			return false
		}
		for j := range ea {
			if ea[j] != eb[j] {
				return false
			}
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	h := hypergraph.NewBuilder(10).AddEdge(0, 5).AddEdge(1, 2, 9).MustBuild()
	if !equalHypergraphs(h, roundTripText(t, h)) {
		t.Fatal("text round trip mismatch")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	h := hypergraph.NewBuilder(10).AddEdge(0, 5).AddEdge(1, 2, 9).MustBuild()
	if !equalHypergraphs(h, roundTripBinary(t, h)) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestRoundTripProperty(t *testing.T) {
	s := rng.New(1)
	check := func(seed uint16) bool {
		st := s.Child(uint64(seed))
		h := hypergraph.RandomMixed(st, 20+st.Intn(60), 1+st.Intn(80), 2, 5)
		return equalHypergraphs(h, roundTripText(t, h)) &&
			equalHypergraphs(h, roundTripBinary(t, h))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyHypergraphRoundTrip(t *testing.T) {
	h := hypergraph.NewBuilder(5).MustBuild()
	if got := roundTripText(t, h); got.N() != 5 || got.M() != 0 {
		t.Fatal("empty text round trip")
	}
	if got := roundTripBinary(t, h); got.N() != 5 || got.M() != 0 {
		t.Fatal("empty binary round trip")
	}
}

func TestReadTextComments(t *testing.T) {
	in := "hypergraph 4 2\n# comment\n0 1\n\n2 3\n"
	h, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != 2 {
		t.Fatalf("m = %d", h.M())
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",                         // empty
		"nonsense\n",               // bad header
		"hypergraph 3 2\n0 1\n",    // count mismatch
		"hypergraph 3 1\n0 x\n",    // bad vertex
		"hypergraph 3 1\n0 1 99\n", // out of range
		// Ids past int32 must not be narrowed into range: 2^32+1 and
		// −(2^32−1) would both alias vertex 1.
		"hypergraph 5 1\n4294967297 2\n",
		"hypergraph 9000000000 1\n4294967297 2\n",
		"hypergraph 5 1\n-4294967295 2\n",
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("HGB1")); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Valid magic, absurd n.
	var buf bytes.Buffer
	buf.WriteString("HGB1")
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge uvarint
	buf.WriteByte(0)
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("implausible n accepted")
	}
}

// TestReadersRejectAliasingIDs pins that binary ids outside [0, n) are
// rejected before they are narrowed to int32: a first id of 2^32+1
// would otherwise alias vertex 1, and a wrapping delta sum vertex 1 as
// well. The text cases are in TestReadTextErrors.
func TestReadersRejectAliasingIDs(t *testing.T) {
	binaryEdge := func(ids ...uint64) []byte {
		b := []byte(binaryMagic)
		b = binary.AppendUvarint(b, 5) // n
		b = binary.AppendUvarint(b, 1) // m
		b = binary.AppendUvarint(b, uint64(len(ids)))
		for _, d := range ids {
			b = binary.AppendUvarint(b, d)
		}
		return b
	}
	for name, in := range map[string][]byte{
		"first id 2^32+1":  binaryEdge(1<<32+1, 1),
		"gap past n":       binaryEdge(1, 4),
		"wrapping gap sum": binaryEdge(3, math.MaxUint64-1),
		"first id at n":    binaryEdge(5, 1),
	} {
		if h, err := ReadBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("binary %s accepted as %v", name, edgeList(h))
		}
	}
	// The largest in-range ids still parse.
	h, err := ReadBinary(bytes.NewReader(binaryEdge(3, 1)))
	if err != nil || h.M() != 1 || fmt.Sprint(h.Edge(0)) != "[3 4]" {
		t.Fatalf("binary {3, 4} on n=5: %v, %v", h, err)
	}
	h, err = ReadText(strings.NewReader("hypergraph 5 1\n3 4\n"))
	if err != nil || h.M() != 1 || fmt.Sprint(h.Edge(0)) != "[3 4]" {
		t.Fatalf("text {3, 4} on n=5: %v, %v", h, err)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	s := rng.New(2)
	h := hypergraph.RandomUniform(s, 5000, 8000, 4)
	var tb, bb bytes.Buffer
	if err := WriteText(&tb, h); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, h); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= tb.Len() {
		t.Fatalf("binary (%d) not smaller than text (%d)", bb.Len(), tb.Len())
	}
}

func TestVertexSetRoundTrip(t *testing.T) {
	mask := []bool{true, false, true, true, false}
	var buf bytes.Buffer
	if err := WriteVertexSet(&buf, mask); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVertexSet(&buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mask {
		if got[i] != mask[i] {
			t.Fatalf("mask mismatch at %d", i)
		}
	}
}

func TestReadVertexSetErrors(t *testing.T) {
	if _, err := ReadVertexSet(strings.NewReader("abc\n"), 3); err == nil {
		t.Fatal("bad id accepted")
	}
	if _, err := ReadVertexSet(strings.NewReader("7\n"), 3); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	got, err := ReadVertexSet(strings.NewReader("# only a comment\n"), 3)
	if err != nil || got[0] || got[1] || got[2] {
		t.Fatal("comment-only set should be empty")
	}
}

// failAfterWriter errors once n bytes have been accepted — an
// out-of-space disk for the vertex-set writer.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// failAfterReader yields data, then a read error — a device failing
// mid-stream rather than at a clean EOF.
type failAfterReader struct {
	data []byte
	err  error
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// oneByteReader returns at most one byte per Read call, forcing every
// short-read path in the scanner.
type oneByteReader struct{ data []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	p[0] = r.data[0]
	r.data = r.data[1:]
	return 1, nil
}

// TestWriteVertexSetErrorPropagation: durable records reuse this
// encoding, so a write error must surface — both mid-stream once the
// bufio buffer spills, and at the final Flush for small sets.
func TestWriteVertexSetErrorPropagation(t *testing.T) {
	boom := errors.New("disk full")
	// Large set: the buffered writer spills during the loop and the
	// Fprintln error return must propagate.
	big := make([]bool, 8192)
	for i := range big {
		big[i] = true
	}
	if err := WriteVertexSet(&failAfterWriter{n: 100, err: boom}, big); !errors.Is(err, boom) {
		t.Fatalf("mid-stream write error = %v, want %v", err, boom)
	}
	// Small set: everything fits in the bufio buffer, so the error can
	// only surface at Flush — it still must.
	small := []bool{true, true, true}
	if err := WriteVertexSet(&failAfterWriter{n: 0, err: boom}, small); !errors.Is(err, boom) {
		t.Fatalf("flush-time write error = %v, want %v", err, boom)
	}
	// An all-false mask writes nothing and cannot fail.
	if err := WriteVertexSet(&failAfterWriter{n: 0, err: boom}, make([]bool, 10)); err != nil {
		t.Fatalf("empty set write = %v, want nil (nothing to write)", err)
	}
}

// TestReadVertexSetReaderFailure: an error from the underlying reader
// (as opposed to malformed content) must be returned, not swallowed
// into a partial mask.
func TestReadVertexSetReaderFailure(t *testing.T) {
	boom := errors.New("I/O error")
	mask, err := ReadVertexSet(&failAfterReader{data: []byte("0\n1\n"), err: boom}, 5)
	if !errors.Is(err, boom) {
		t.Fatalf("reader failure = %v, want %v", err, boom)
	}
	if mask != nil {
		t.Fatal("partial mask returned alongside a reader error")
	}
}

// TestReadVertexSetShortReads: one byte per Read must decode
// identically to one big read — ids split across Read calls, the final
// line unterminated.
func TestReadVertexSetShortReads(t *testing.T) {
	const n = 1200
	want := make([]bool, n)
	var buf bytes.Buffer
	for v := 0; v < n; v += 7 {
		want[v] = true
		fmt.Fprintln(&buf, v)
	}
	data := bytes.TrimSuffix(buf.Bytes(), []byte("\n")) // unterminated tail line
	got, err := ReadVertexSet(&oneByteReader{data: data}, n)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("short-read decode differs at vertex %d", v)
		}
	}
}

// TestReadVertexSetRejectsNegative: "-1" is out of range, not a
// roll-over.
func TestReadVertexSetRejectsNegative(t *testing.T) {
	if _, err := ReadVertexSet(strings.NewReader("-1\n"), 3); err == nil {
		t.Fatal("negative id accepted")
	}
}

func TestDigestMatchesWriteBinary(t *testing.T) {
	for _, h := range []*hypergraph.Hypergraph{
		hypergraph.NewBuilder(5).MustBuild(),
		hypergraph.NewBuilder(6).AddEdge(0, 3, 5).AddEdge(1, 2).AddEdge(4).MustBuild(),
		hypergraph.RandomMixed(rng.New(3), 200, 400, 2, 7),
		// Large enough that the chunked writers flush mid-encoding.
		hypergraph.RandomMixed(rng.New(4), 5000, 12000, 2, 8),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, h); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got, want := Digest(h), hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("Digest = %s, want sha256 of WriteBinary output %s", got, want)
		}
	}
}

// oneLineBody returns a text instance on n vertices whose one edge line
// holds the ids i % n for i = 0, 1, … until the body reaches size bytes.
func oneLineBody(size, n int) []byte {
	b := make([]byte, 0, size+32)
	b = fmt.Appendf(b, "hypergraph %d 1\n", n)
	for i := 0; len(b) < size; i++ {
		b = strconv.AppendInt(b, int64(i%n), 10)
		b = append(b, ' ')
	}
	return append(b, '\n')
}

// manyLineBody returns a text instance of two-vertex lines, with short
// ids so that the lines are dense, until the body reaches size bytes.
// The ids wrap every 90,000 lines, so the edge list is out of order,
// and every eighth line repeats an earlier one.
func manyLineBody(size int) []byte {
	var lines []byte
	m := 0
	for i := 0; len(lines) < size; i++ {
		j := i
		if i%8 == 7 {
			j = i / 2
		}
		lines = strconv.AppendInt(lines, int64(j%90_000+10_000), 10)
		lines = append(lines, ' ')
		lines = strconv.AppendInt(lines, int64(j/90_000+100_000), 10)
		lines = append(lines, '\n')
		m++
	}
	return append(fmt.Appendf(nil, "hypergraph 200000 %d\n", m), lines...)
}

// TestReadTextMemoryBounded pins the text reader's memory amplification
// on 16 MiB bodies. A one-line body allocates at most 4·len(body) +
// 1 MiB in total, whether the line repeats ten ids (the open edge is
// compacted in place as it grows) or holds millions of distinct ones
// (the arena grows by doubling). The reader that split lines with
// strings.Fields allocated 239.0 MiB and 106.7 MiB here. A body of
// about 1.29 M two-vertex lines, out of order and with repeats,
// allocates at most 4.3·len(body) + 1 MiB (4.17× measured): each edge
// costs its vertices and a 4-byte offset in the doubling arena, an
// int32 index to sort it, and its packed copy. Sorting temporary Edge
// headers allocated 7.56·len(body), and keeping a 24-byte Edge header
// per edge in the Hypergraph 6.02·len(body).
func TestReadTextMemoryBounded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		body   []byte
		factor float64 // the bound, in multiples of len(body), plus 1 MiB
		check  func(h *hypergraph.Hypergraph) bool
	}{
		{"ten ids on one line", oneLineBody(16<<20, 10), 4, func(h *hypergraph.Hypergraph) bool { return h.M() == 1 && h.Dim() == 10 }},
		{"ids i%4000000 on one line", oneLineBody(16<<20, 4_000_000), 4, func(h *hypergraph.Hypergraph) bool { return h.M() == 1 }},
		{"two-vertex lines", manyLineBody(16 << 20), 4.3, func(h *hypergraph.Hypergraph) bool { return h.Dim() == 2 && h.M() == 1_209_896 }},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h, err := ReadText(bytes.NewReader(tc.body))
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.check(h) {
			t.Fatalf("%s: read %v", tc.name, h)
		}
		alloc, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(tc.factor*float64(len(tc.body)))+1<<20
		t.Logf("%s: %d-byte body, %.1f MiB allocated (%.2f×)", tc.name, len(tc.body), float64(alloc)/(1<<20), float64(alloc)/float64(len(tc.body)))
		if alloc > limit {
			t.Errorf("%s: reading a %d-byte body allocated %d bytes, limit %d", tc.name, len(tc.body), alloc, limit)
		}
	}
}

// TestReadBinaryMemoryBounded pins what one binary read of serve-small's
// instance shape, RandomGraph(1000, 3000), allocates: at most 45 KB,
// most of it the arena (24.0 KB) and the offsets (12.0 KB). With a
// 24-byte Edge header per edge in the Hypergraph, a read allocated
// 115,108 B.
func TestReadBinaryMemoryBounded(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, hypergraph.RandomGraph(rng.New(1), 1000, 3000)); err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per > 45_000 {
		t.Fatalf("a binary read of RandomGraph(1000, 3000) allocated %d bytes, limit 45000", per)
	}
}

// BenchmarkReadBinary reads serve-small's instance shape,
// RandomGraph(1000, 3000), from its binary encoding.
func BenchmarkReadBinary(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, hypergraph.RandomGraph(rng.New(1), 1000, 3000)); err != nil {
		b.Fatal(err)
	}
	benchmarkRead(b, buf.Bytes(), ReadBinary)
}

// BenchmarkReadText reads serve-repeat's instance shape,
// RandomMixed(1000, 2000, 2..12), from its text encoding.
func BenchmarkReadText(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteText(&buf, hypergraph.RandomMixed(rng.New(1), 1000, 2000, 2, 12)); err != nil {
		b.Fatal(err)
	}
	benchmarkRead(b, buf.Bytes(), ReadText)
}

func benchmarkRead(b *testing.B, data []byte, read func(io.Reader) (*hypergraph.Hypergraph, error)) {
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		if _, err := read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
