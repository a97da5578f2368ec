package hgio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/hypergraph"
)

// The readers below are the differential fuzz targets' oracle
// (reader_fuzz_test.go). They are kept verbatim apart from their names
// and doc comments, so the fuzzer compares the arena readers with the
// reading rules users relied on.

// referenceReadText is ReadText as it was before the readers decoded
// into the arena: bufio.Scanner lines, strings.Fields and strconv.Atoi,
// one Edge per line.
//
// It parses the text format. Blank lines and '#' comments are
// permitted after the header. The edge count in the header must match.
func referenceReadText(r io.Reader) (*hypergraph.Hypergraph, error) {
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

// referenceReadBinary is ReadBinary as it was before the readers
// decoded into the arena: binary.ReadUvarint and one Edge per edge.
//
// It parses the binary format.
func referenceReadBinary(r io.Reader) (*hypergraph.Hypergraph, error) {
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
