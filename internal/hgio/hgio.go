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
// Both readers decode straight from the bufio window into the
// hypergraph.Builder's CSR arena: no per-line string, per-token slice
// or per-edge allocation. Each edge is canonicalized in place, and the
// edge list is sorted only if it arrives out of order, which the
// writers' output never does. Both share one header check (n and m at
// most 2^31), and a declared count reserves arena room only up to a
// fixed cap, so a header alone cannot buy a large allocation.
//
// Vertex-set files (MIS certificates) are one vertex id per line.
package hgio

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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

// ReadText parses the text format. The header is "hypergraph <n> <m>"
// after optional leading spaces, and anything after m on its line is
// ignored. Each further line holds one edge: vertex ids, each an
// optional sign and decimal digits, separated by spaces as
// strings.Fields splits them (any unicode.IsSpace rune but '\n'). Blank
// lines and lines whose first non-space byte is '#' are skipped. The
// edge count in the header must match. Lines have no length limit: ids
// stream from the read buffer into the arena, and no line is collected
// whole.
func ReadText(r io.Reader) (*hypergraph.Hypergraph, error) {
	t := textReader{window: newWindow(r)}
	n, m, err := t.header()
	if err != nil {
		return nil, err
	}
	b, err := newBuilder(n, m)
	if err != nil {
		return nil, err
	}
	edges := uint64(0)
	for {
		c, err := t.skipBlanks()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch {
		case c == '\n':
			continue
		case c == '#':
			if err := t.skipLine(); err != nil {
				return nil, err
			}
			continue
		case edges == m:
			return nil, fmt.Errorf("hgio: header declares %d edges, found more", m)
		}
		if err := t.edge(b, c, n, edges); err != nil {
			return nil, err
		}
		edges++
	}
	if edges != m {
		return nil, fmt.Errorf("hgio: header declares %d edges, found %d", m, edges)
	}
	return b.Build()
}

// maxCount bounds both header counts: a vertex id must fit
// hypergraph.V, and so must an edge index.
const maxCount = 1 << 31

// reserveEdges caps the edges a header's declared count reserves arena
// room for; past it the arena grows as edges actually arrive.
const reserveEdges = 1 << 14

// newBuilder is the header check both formats share. It returns a
// builder with arena room for up to reserveEdges edges of two vertices.
func newBuilder(n, m uint64) (*hypergraph.Builder, error) {
	if n > maxCount || m > maxCount {
		return nil, fmt.Errorf("hgio: implausible sizes n=%d m=%d", n, m)
	}
	b := hypergraph.NewBuilder(int(n))
	e := int(min(m, reserveEdges))
	b.Grow(e, 2*e)
	return b, nil
}

// window reads straight from a bufio.Reader's buffer: buf is the
// buffered window and buf[i:] its unread bytes.
type window struct {
	br  *bufio.Reader
	buf []byte
	i   int
	err error // why the input ended: io.EOF or the reader's error
}

func newWindow(r io.Reader) window {
	return window{br: bufio.NewReader(r)}
}

// fill replaces a used-up window with the next buffered bytes. It
// reports false, with err set, once the input has ended.
func (w *window) fill() bool {
	if w.err != nil {
		return false
	}
	// Discarding or peeking bytes already buffered cannot fail.
	_, _ = w.br.Discard(len(w.buf))
	w.buf, w.i = nil, 0
	if _, err := w.br.Peek(1); err != nil {
		w.err = err
		return false
	}
	w.buf, _ = w.br.Peek(w.br.Buffered())
	return true
}

// ReadByte implements io.ByteReader.
func (w *window) ReadByte() (byte, error) {
	if w.i == len(w.buf) && !w.fill() {
		return 0, w.err
	}
	c := w.buf[w.i]
	w.i++
	return c, nil
}

// uvarint decodes a varint in place when the window holds all of it,
// and otherwise byte by byte, as binary.ReadUvarint does.
func (w *window) uvarint() (uint64, error) {
	if x, k := binary.Uvarint(w.buf[w.i:]); k > 0 {
		w.i += k
		return x, nil
	}
	return binary.ReadUvarint(w)
}

// skipLine reads past the next '\n', or to the end of the input.
func (w *window) skipLine() error {
	for {
		if k := bytes.IndexByte(w.buf[w.i:], '\n'); k >= 0 {
			w.i += k + 1
			return nil
		}
		w.i = len(w.buf)
		if !w.fill() {
			if w.err == io.EOF {
				return nil
			}
			return w.err
		}
	}
}

// textReader decodes the text format from a window.
type textReader struct{ window }

// blank reports whether c, just read, starts a space as strings.Fields
// splits on: a unicode.IsSpace rune other than '\n', which ends a line.
// For a multibyte space it reads the rest of the encoding. No caller
// accepts a non-ASCII byte that does not start a space, so the bytes
// read to decide that are never needed again, and a read error there
// needs no report: the byte reads as 0, which continues no encoding.
func (t *textReader) blank(c byte) bool {
	switch c {
	case ' ', '\t', '\v', '\f', '\r':
		return true
	case 0xC2: // U+0085, U+00A0
		c1, _ := t.ReadByte()
		return c1 == 0x85 || c1 == 0xA0
	case 0xE1: // U+1680
		return t.next2() == 0x9A80
	case 0xE2: // U+2000–U+200A, U+2028, U+2029, U+202F, U+205F
		x := t.next2()
		return x >= 0x8080 && x <= 0x808A || x == 0x80A8 || x == 0x80A9 || x == 0x80AF || x == 0x819F
	case 0xE3: // U+3000
		return t.next2() == 0x8080
	}
	return false
}

// next2 reads two bytes as a big-endian pair; a missing byte reads as 0.
func (t *textReader) next2() uint16 {
	c1, _ := t.ReadByte()
	c2, _ := t.ReadByte()
	return uint16(c1)<<8 | uint16(c2)
}

// skipBlanks reads past spaces and returns the first other byte, '\n'
// included, or the error that ended the input (io.EOF at its end).
func (t *textReader) skipBlanks() (byte, error) {
	for {
		for t.i < len(t.buf) {
			c := t.buf[t.i]
			t.i++
			if c != ' ' && !t.blank(c) {
				return c, nil
			}
		}
		if !t.fill() {
			return 0, t.err
		}
	}
}

// saturated is where number stops counting: far above maxCount, and
// 10·saturated+9 still fits an int64.
const saturated = 1 << 59

// errNoDigits reports a number without a digit.
var errNoDigits = errors.New("no digits")

// number reads a sign, if any, and decimal digits as strconv.Atoi
// accepts them, c being the first byte. The value saturates at
// ±saturated, so no digit string overflows it. It returns the byte
// after the digits, or the error that ended the input there (io.EOF at
// its end); errNoDigits if there is no digit.
func (t *textReader) number(c byte) (v int64, next byte, err error) {
	sign := int64(1)
	if c == '+' || c == '-' {
		if c == '-' {
			sign = -1
		}
		if c, err = t.ReadByte(); err == io.EOF {
			return 0, 0, errNoDigits
		} else if err != nil {
			return 0, 0, err
		}
	}
	if c-'0' > 9 {
		return 0, c, errNoDigits
	}
	v = int64(c - '0')
	for {
		buf, i := t.buf, t.i
		for i < len(buf) {
			c = buf[i]
			i++
			if c-'0' > 9 {
				t.i = i
				return sign * v, c, nil
			}
			v = min(10*v+int64(c-'0'), saturated)
		}
		t.i = i
		if !t.fill() {
			return sign * v, 0, t.err
		}
	}
}

// header parses the first line as fmt.Sscanf(strings.TrimSpace(line),
// "hypergraph %d %d") does: leading spaces, the keyword, at least one
// space, n, at least one space, m, and then anything up to the end of
// the line.
func (t *textReader) header() (n, m uint64, err error) {
	const keyword = "hypergraph"
	bad := func(what string) (uint64, uint64, error) {
		if err != nil && err != io.EOF && err != errNoDigits {
			return 0, 0, err
		}
		return 0, 0, fmt.Errorf("hgio: bad header: %s", what)
	}
	c, err := t.skipBlanks()
	if err == io.EOF {
		return 0, 0, fmt.Errorf("hgio: empty input")
	}
	for i := range len(keyword) {
		if err != nil || c != keyword[i] {
			return bad(`want "hypergraph <n> <m>"`)
		}
		c, err = t.ReadByte()
	}
	var counts [2]int64
	for i := range counts {
		if err != nil || !t.blank(c) {
			return bad("want a space before each count")
		}
		if c, err = t.skipBlanks(); err != nil {
			return bad("missing counts")
		}
		counts[i], c, err = t.number(c)
		switch {
		case err == errNoDigits:
			return bad("counts must be integers")
		case counts[i] < 0:
			return bad("negative counts")
		}
	}
	switch {
	case err == io.EOF:
		err = nil
	case err == nil && c != '\n':
		err = t.skipLine()
	}
	return uint64(counts[0]), uint64(counts[1]), err
}

// edge reads the ids of edge i's line into b, c being the line's first
// byte after its leading spaces, and reads past the line's end.
func (t *textReader) edge(b *hypergraph.Builder, c byte, n, i uint64) error {
	for {
		v, next, err := t.number(c)
		switch {
		case err == errNoDigits:
			return fmt.Errorf("hgio: edge %d: bad vertex id", i)
		case err != nil && err != io.EOF:
			return err
		case v < 0 || uint64(v) >= n:
			// Checked before narrowing to V, so an id past the int32
			// range cannot alias a small one.
			return fmt.Errorf("hgio: edge %d: vertex id out of range [0,%d)", i, n)
		}
		b.Push(hypergraph.V(v))
		// next ends the id: a space, the line's end or the input's.
		if err == nil && next != '\n' {
			if next != ' ' && !t.blank(next) {
				return fmt.Errorf("hgio: edge %d: bad vertex id", i)
			}
			if c, err = t.skipBlanks(); err == nil && c != '\n' {
				continue
			}
			if err != nil && err != io.EOF {
				return err
			}
		}
		b.EndEdge()
		return nil
	}
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

// ReadBinary parses the binary format. Bytes after the last edge are
// ignored.
func ReadBinary(r io.Reader) (*hypergraph.Hypergraph, error) {
	w := newWindow(r)
	var magic [len(binaryMagic)]byte
	for i := range magic {
		c, err := w.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("hgio: reading magic: %w", err)
		}
		magic[i] = c
	}
	if string(magic[:]) != binaryMagic {
		return nil, fmt.Errorf("hgio: bad magic %q", magic[:])
	}
	n, err := w.uvarint()
	if err != nil {
		return nil, err
	}
	m, err := w.uvarint()
	if err != nil {
		return nil, err
	}
	b, err := newBuilder(n, m)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < m; i++ {
		k, err := w.uvarint()
		if err != nil {
			return nil, fmt.Errorf("hgio: edge %d size: %w", i, err)
		}
		if k == 0 || k > n {
			return nil, fmt.Errorf("hgio: edge %d has implausible size %d", i, k)
		}
		// The edge grows as bytes actually arrive, never by the declared
		// size k: a truncated stream with a huge k fails on read.
		prev := uint64(0)
		for j := uint64(0); j < k; j++ {
			d, err := w.uvarint()
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
			b.Push(hypergraph.V(prev))
		}
		b.EndEdge()
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
