// Package hgio serializes hypergraphs and vertex sets. Two formats:
//
// Text (the CLI interchange format): line-oriented, human-editable.
//
//	hypergraph <n> <m>
//	v1 v2 v3        # one edge per line, space-separated vertex ids
//	...
//
// Binary: a compact varint encoding for large instances (magic "HGB1",
// then n, m, then each edge as a length-prefixed delta-encoded vertex
// list). Canonical form (sorted edges) makes delta encoding effective.
//
// Vertex-set files (MIS certificates) are one vertex id per line.
package hgio

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/hypergraph"
)

// encodeBufs pools the binary-encoding chunk buffers Digest and
// WriteBinary use, so the service's per-request cache-key and response
// encodings stop allocating once warm. Encoding is chunked (flushed
// every encodeChunk bytes), so buffers stay small regardless of
// instance size; maxPooledEncodeBuf is a backstop against pathological
// single-edge encodings pinning large buffers in the pool.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const (
	encodeChunk        = 1 << 15
	maxPooledEncodeBuf = 1 << 20
)

func putEncodeBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledEncodeBuf {
		encodeBufs.Put(bp)
	}
}

// Digest returns the canonical instance digest: the hex SHA-256 of the
// binary encoding. Hypergraphs are canonical by construction (sorted,
// deduplicated edges), so two instances digest equal iff they have the
// same vertex count and edge set — the property result caches key on.
// The encoding streams through a pooled chunk buffer, never
// materializing more than encodeChunk bytes at once.
func Digest(h *hypergraph.Hypergraph) string {
	d := sha256.New()
	bp := encodeBufs.Get().(*[]byte)
	b := appendHeader((*bp)[:0], h)
	for _, e := range h.Edges() {
		if len(b) >= encodeChunk {
			d.Write(b)
			b = b[:0]
		}
		b = appendEdge(b, e)
	}
	d.Write(b)
	*bp = b[:0]
	putEncodeBuf(bp)
	return hex.EncodeToString(d.Sum(nil))
}

// appendHeader appends the encoding header: magic, n, m.
func appendHeader(b []byte, h *hypergraph.Hypergraph) []byte {
	b = append(b, binaryMagic...)
	b = binary.AppendUvarint(b, uint64(h.N()))
	return binary.AppendUvarint(b, uint64(h.M()))
}

// appendEdge appends one edge as a length-prefixed vertex list with
// delta encoding (sortedness makes the first vertex absolute and the
// rest gaps ≥ 1).
func appendEdge(b []byte, e hypergraph.Edge) []byte {
	b = binary.AppendUvarint(b, uint64(len(e)))
	prev := uint64(0)
	for i, v := range e {
		cur := uint64(v)
		if i == 0 {
			b = binary.AppendUvarint(b, cur)
		} else {
			b = binary.AppendUvarint(b, cur-prev)
		}
		prev = cur
	}
	return b
}

// WriteText emits the text format.
func WriteText(w io.Writer, h *hypergraph.Hypergraph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "hypergraph %d %d\n", h.N(), h.M()); err != nil {
		return err
	}
	for _, e := range h.Edges() {
		for i, v := range e {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(v))); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. Blank lines and '#' comments are
// permitted after the header. The edge count in the header must match.
func ReadText(r io.Reader) (*hypergraph.Hypergraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("hgio: empty input")
	}
	var n, m int
	if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "hypergraph %d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("hgio: bad header %q: %w", sc.Text(), err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("hgio: bad header %q: negative counts", sc.Text())
	}
	b := hypergraph.NewBuilder(n)
	edges := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		e := make(hypergraph.Edge, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("hgio: bad vertex %q", f)
			}
			// Checked before narrowing to V, so an id past the int32
			// range cannot alias a small one.
			if v < 0 || v >= n || v > math.MaxInt32 {
				return nil, fmt.Errorf("hgio: vertex %d out of range [0,%d)", v, n)
			}
			e = append(e, hypergraph.V(v))
		}
		b.AddEdgeSlice(e)
		edges++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if edges != m {
		return nil, fmt.Errorf("hgio: header declares %d edges, found %d", m, edges)
	}
	return b.Build()
}

// binaryMagic identifies the binary format, versioned.
const binaryMagic = "HGB1"

// WriteBinary emits the compact varint format through a pooled chunk
// buffer (the encoder — appendHeader/appendEdge — is shared with
// Digest so the two cannot drift).
func WriteBinary(w io.Writer, h *hypergraph.Hypergraph) error {
	bp := encodeBufs.Get().(*[]byte)
	b := appendHeader((*bp)[:0], h)
	defer func() {
		*bp = b[:0]
		putEncodeBuf(bp)
	}()
	for _, e := range h.Edges() {
		if len(b) >= encodeChunk {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
		b = appendEdge(b, e)
	}
	_, err := w.Write(b)
	return err
}

// ReadBinary parses the binary format.
func ReadBinary(r io.Reader) (*hypergraph.Hypergraph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("hgio: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("hgio: bad magic %q", magic)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	m, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<31 || m > 1<<31 {
		return nil, fmt.Errorf("hgio: implausible sizes n=%d m=%d", n, m)
	}
	b := hypergraph.NewBuilder(int(n))
	for i := uint64(0); i < m; i++ {
		k, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("hgio: edge %d size: %w", i, err)
		}
		if k == 0 || k > n {
			return nil, fmt.Errorf("hgio: edge %d has implausible size %d", i, k)
		}
		// Grow the edge as bytes actually arrive instead of trusting the
		// declared size k up front: a truncated stream with a huge k must
		// fail on read, not allocate gigabytes first.
		e := make(hypergraph.Edge, 0, min(k, 1<<16))
		prev := uint64(0)
		for j := uint64(0); j < k; j++ {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("hgio: edge %d vertex %d: %w", i, j, err)
			}
			// The first id is absolute, the rest are gaps. Checking
			// against n−prev keeps the sum below n ≤ 2^31, so it can
			// neither wrap nor alias a small id when narrowed to V.
			if d >= n-prev {
				return nil, fmt.Errorf("hgio: edge %d vertex %d: id out of range [0,%d)", i, j, n)
			}
			prev += d
			e = append(e, hypergraph.V(prev))
		}
		b.AddEdgeSlice(e)
	}
	return b.Build()
}

// WriteVertexSet emits a vertex mask as one id per line (ascending).
func WriteVertexSet(w io.Writer, mask []bool) error {
	bw := bufio.NewWriter(w)
	for v, in := range mask {
		if in {
			if _, err := fmt.Fprintln(bw, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadVertexSet parses one id per line into a mask of length n.
func ReadVertexSet(r io.Reader, n int) ([]bool, error) {
	mask := make([]bool, n)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("hgio: bad vertex %q", line)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("hgio: vertex %d out of range [0,%d)", v, n)
		}
		mask[v] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return mask, nil
}
