// Command hypermis is the command-line front end of the library:
// generate instances, solve them with any of the six algorithms, and
// verify independence/maximality (or transversal-minimality)
// certificates.
//
// Usage:
//
//	hypermis generate -n 1000 -m 2000 -min 2 -max 6 -seed 1 > h.txt
//	hypermis solve -algo sbl -seed 7 < h.txt > mis.txt
//	hypermis color -algo sbl -seed 7 < h.txt > colors.txt
//	hypermis transversal -seed 7 < h.txt > tv.txt
//	hypermis verify -mis mis.txt < h.txt
//	hypermis batch < items.ndjson > results.ndjson
//	hypermis stats < h.txt
//
// color and transversal run locally by default; -addr sends the same
// request to a running hypermisd (POST /v1/color, /v1/transversal) and
// prints the identical, locally re-verified output.
//
// Instances use the line-oriented text format of internal/hgio by
// default ("hypergraph <n> <m>" header, one edge per line); -bin on any
// subcommand switches to the compact binary format. MIS files are one
// vertex id per line.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	hypermis "repro"
	"repro/internal/hgio"
	"repro/internal/hypergraph"
	"repro/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "generate":
		err = cmdGenerate(args)
	case "solve":
		err = cmdSolve(args)
	case "color":
		err = cmdColor(args)
	case "transversal":
		err = cmdTransversal(args)
	case "verify":
		err = cmdVerify(args)
	case "batch":
		err = cmdBatch(args)
	case "stats":
		err = cmdStats(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypermis:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hypermis <generate|solve|color|transversal|verify|batch|stats> [flags]
  generate    -n N -m M [-min S] [-max S] [-d D] [-kind uniform|mixed|graph|linear|sunflower] [-seed S] [-bin]
  solve       [-algo auto|sbl|bl|kuw|luby|greedy|permbl|help] [-seed S] [-alpha A] [-cost] [-trace] [-transversal] [-bin]  < instance
  color       [-algo A] [-seed S] [-alpha A] [-addr URL] [-bin]  < instance  > colors.txt
  transversal [-algo A] [-seed S] [-alpha A] [-addr URL] [-bin]  < instance  > transversal.txt
  verify      -mis FILE [-transversal] [-bin]  < instance
  batch       [-addr URL]  < items.ndjson  > results.ndjson
  stats       [-bin]  < instance`)
}

func readInstance(r io.Reader, bin bool) (*hypergraph.Hypergraph, error) {
	if bin {
		return hgio.ReadBinary(r)
	}
	return hgio.ReadText(r)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	n := fs.Int("n", 1000, "vertices")
	m := fs.Int("m", 2000, "edges")
	minS := fs.Int("min", 2, "min edge size (mixed)")
	maxS := fs.Int("max", 6, "max edge size (mixed)")
	d := fs.Int("d", 3, "edge size (uniform/linear)")
	kind := fs.String("kind", "mixed", "uniform|mixed|graph|linear|sunflower")
	seed := fs.Uint64("seed", 1, "seed")
	bin := fs.Bool("bin", false, "binary output format")
	fs.Parse(args)

	h, err := hypermis.Generate(hypermis.GenerateSpec{
		Kind: *kind, Seed: *seed, N: *n, M: *m, D: *d, MinSize: *minS, MaxSize: *maxS,
	})
	if err != nil {
		return err
	}
	if *bin {
		return hgio.WriteBinary(os.Stdout, h)
	}
	return hgio.WriteText(os.Stdout, h)
}

func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	algoName := fs.String("algo", "auto", "algorithm")
	seed := fs.Uint64("seed", 1, "seed")
	alpha := fs.Float64("alpha", 0, "SBL sampling exponent (0 = default)")
	cost := fs.Bool("cost", false, "print PRAM depth/work to stderr")
	trace := fs.Bool("trace", false, "print per-round telemetry (residual shape, decided, wall time) to stderr")
	transversal := fs.Bool("transversal", false, "output the dual minimal transversal instead of the MIS")
	bin := fs.Bool("bin", false, "binary instance format")
	fs.Parse(args)

	if *algoName == "help" {
		fmt.Println("algorithms:", strings.Join(hypermis.AlgorithmNames, " "))
		return nil
	}
	algo, err := hypermis.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	h, err := readInstance(os.Stdin, *bin)
	if err != nil {
		return err
	}
	res, err := hypermis.Solve(h, hypermis.Options{
		Algorithm: algo, Seed: *seed, Alpha: *alpha, CollectCost: *cost, Trace: *trace,
	})
	if err != nil {
		return err
	}
	for _, r := range res.Trace {
		fmt.Fprintf(os.Stderr, "round=%d n=%d m=%d dim=%d decided=%d elapsed=%s\n",
			r.Round, r.N, r.M, r.Dim, r.Decided, r.Elapsed)
	}
	if err := hypermis.VerifyMIS(h, res.MIS); err != nil {
		return fmt.Errorf("internal verification failed: %w", err)
	}
	out := res.MIS
	kind := "MIS"
	if *transversal {
		out = hypergraph.ComplementMask(res.MIS)
		kind = "minimal transversal"
	}
	if err := hgio.WriteVertexSet(os.Stdout, out); err != nil {
		return err
	}
	size := 0
	for _, in := range out {
		if in {
			size++
		}
	}
	fmt.Fprintf(os.Stderr, "algorithm=%v %s size=%d rounds=%d", res.Algorithm, kind, size, res.Rounds)
	if *cost {
		fmt.Fprintf(os.Stderr, " depth=%d work=%d", res.Depth, res.Work)
	}
	fmt.Fprintln(os.Stderr)
	return nil
}

// workloadQuery renders the shared solver flags as the service's query
// parameters (zero values omitted, matching the server defaults).
func workloadQuery(algo string, seed uint64, alpha float64) url.Values {
	q := url.Values{}
	if algo != "" && algo != "auto" {
		q.Set("algo", algo)
	}
	q.Set("seed", strconv.FormatUint(seed, 10))
	if alpha != 0 {
		q.Set("alpha", strconv.FormatFloat(alpha, 'g', -1, 64))
	}
	return q
}

// postWorkload sends the instance to a daemon workload endpoint
// (/v1/color or /v1/transversal) and decodes the JSON response into
// out. The daemon computes exactly what the local path would — the
// caller re-verifies the answer against the instance either way.
func postWorkload(addr, path string, q url.Values, h *hypergraph.Hypergraph, out any) error {
	var buf bytes.Buffer
	if err := hgio.WriteBinary(&buf, h); err != nil {
		return err
	}
	u := strings.TrimSuffix(addr, "/") + path
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	resp, err := http.Post(u, service.ContentTypeBinary, &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return fmt.Errorf("daemon status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// cmdColor colors the instance by MIS peeling — locally through
// hypermis.ColorByMISCtx, or through a running hypermisd's POST
// /v1/color with -addr. Both paths print the identical color vector
// (line v = color of vertex v) and re-verify the coloring before
// printing, so a daemon answer is held to the same standard as a local
// one.
func cmdColor(args []string) error {
	fs := flag.NewFlagSet("color", flag.ExitOnError)
	algoName := fs.String("algo", "auto", "algorithm")
	seed := fs.Uint64("seed", 1, "seed")
	alpha := fs.Float64("alpha", 0, "SBL sampling exponent (0 = default)")
	addr := fs.String("addr", "", "daemon base URL (empty = color locally)")
	bin := fs.Bool("bin", false, "binary instance format")
	fs.Parse(args)

	algo, err := hypermis.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	h, err := readInstance(os.Stdin, *bin)
	if err != nil {
		return err
	}
	var c hypermis.Coloring
	var algoStr string
	var rounds int
	if *addr != "" {
		var cr service.ColorResponse
		if err := postWorkload(*addr, "/v1/color", workloadQuery(*algoName, *seed, *alpha), h, &cr); err != nil {
			return err
		}
		c = hypermis.Coloring{Colors: cr.Colors, NumColors: cr.NumColors, ClassSizes: cr.ClassSizes}
		algoStr, rounds = cr.Algorithm, cr.Rounds
	} else {
		res, err := hypermis.ColorByMISCtx(context.Background(), h, hypermis.Options{
			Algorithm: algo, Seed: *seed, Alpha: *alpha,
		})
		if err != nil {
			return err
		}
		c = *res.Coloring()
		algoStr, rounds = res.Algorithm.String(), res.Rounds
	}
	if err := hypermis.VerifyColoring(h, &c); err != nil {
		return fmt.Errorf("coloring verification failed: %w", err)
	}
	out := bufio.NewWriter(os.Stdout)
	for _, col := range c.Colors {
		fmt.Fprintln(out, col)
	}
	if err := out.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "algorithm=%s colors=%d rounds=%d class_sizes=%v\n",
		algoStr, c.NumColors, rounds, c.ClassSizes)
	return nil
}

// cmdTransversal computes a verified minimal transversal — locally via
// hypermis.MinimalTransversalCtx, or through POST /v1/transversal with
// -addr. Output is the member vertex set in the same format `hypermis
// solve -transversal` emits, bit-identical across the two paths.
func cmdTransversal(args []string) error {
	fs := flag.NewFlagSet("transversal", flag.ExitOnError)
	algoName := fs.String("algo", "auto", "algorithm")
	seed := fs.Uint64("seed", 1, "seed")
	alpha := fs.Float64("alpha", 0, "SBL sampling exponent (0 = default)")
	addr := fs.String("addr", "", "daemon base URL (empty = compute locally)")
	bin := fs.Bool("bin", false, "binary instance format")
	fs.Parse(args)

	algo, err := hypermis.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	h, err := readInstance(os.Stdin, *bin)
	if err != nil {
		return err
	}
	var mask []bool
	var algoStr string
	var rounds int
	if *addr != "" {
		var tr service.TransversalResponse
		if err := postWorkload(*addr, "/v1/transversal", workloadQuery(*algoName, *seed, *alpha), h, &tr); err != nil {
			return err
		}
		mask = make([]bool, h.N())
		for _, v := range tr.Transversal {
			if v < 0 || v >= h.N() {
				return fmt.Errorf("daemon returned out-of-range vertex %d", v)
			}
			mask[v] = true
		}
		algoStr, rounds = tr.Algorithm, tr.Rounds
	} else {
		res, err := hypermis.MinimalTransversalCtx(context.Background(), h, hypermis.Options{
			Algorithm: algo, Seed: *seed, Alpha: *alpha,
		})
		if err != nil {
			return err
		}
		mask = res.Transversal
		algoStr, rounds = res.Algorithm.String(), res.Rounds
	}
	if err := hypermis.VerifyMinimalTransversal(h, mask); err != nil {
		return fmt.Errorf("transversal verification failed: %w", err)
	}
	if err := hgio.WriteVertexSet(os.Stdout, mask); err != nil {
		return err
	}
	size := 0
	for _, in := range mask {
		if in {
			size++
		}
	}
	fmt.Fprintf(os.Stderr, "algorithm=%s minimal transversal size=%d rounds=%d\n", algoStr, size, rounds)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	misFile := fs.String("mis", "", "file with one vertex id per line")
	transversal := fs.Bool("transversal", false, "verify a minimal transversal instead of a MIS")
	bin := fs.Bool("bin", false, "binary instance format")
	fs.Parse(args)
	if *misFile == "" {
		return fmt.Errorf("verify: -mis required")
	}
	h, err := readInstance(os.Stdin, *bin)
	if err != nil {
		return err
	}
	f, err := os.Open(*misFile)
	if err != nil {
		return err
	}
	defer f.Close()
	mask, err := hgio.ReadVertexSet(f, h.N())
	if err != nil {
		return err
	}
	if *transversal {
		if err := hypermis.VerifyMinimalTransversal(h, mask); err != nil {
			return err
		}
		fmt.Println("OK: minimal transversal")
		return nil
	}
	if err := hypermis.VerifyMIS(h, mask); err != nil {
		return err
	}
	fmt.Println("OK: maximal independent set")
	return nil
}

// cmdBatch solves a stream of NDJSON batch items (the POST /v1/batch
// wire format — see internal/service.BatchItem and docs/api.md) and
// writes one NDJSON result per item. By default items solve in-process
// through one shared solver workspace, in input order; with -addr the
// whole stream is forwarded to a running hypermisd and the daemon's
// streamed response (completion order) is copied through. The two
// paths produce bit-identical per-item results.
func cmdBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon base URL (empty = solve locally)")
	fs.Parse(args)

	if *addr != "" {
		return forwardBatch(strings.TrimSuffix(*addr, "/") + "/v1/batch")
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<26)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	ws := hypermis.NewWorkspace()
	parser := service.NewBatchParser()
	index := 0
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		res := solveBatchLine([]byte(line), index, ws, parser)
		if err := enc.Encode(res); err != nil {
			return err
		}
		index++
	}
	return in.Err()
}

// forwardBatch posts the whole stdin stream to a daemon's /v1/batch,
// honouring its backpressure: a 503 or 429 response is retried with
// jittered exponential backoff — waiting at least the daemon's
// Retry-After when it sent one — up to a bounded number of attempts.
// Stdin is buffered up front so the identical body can be re-sent
// (stdin is not rewindable), which also keeps a mid-stream shed from
// emitting a partial result stream.
func forwardBatch(url string) error {
	body, err := io.ReadAll(os.Stdin)
	if err != nil {
		return fmt.Errorf("batch: reading stdin: %v", err)
	}
	const maxAttempts = 6
	for attempt := 1; ; attempt++ {
		resp, err := http.Post(url, service.ContentTypeNDJSON, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if attempt == maxAttempts {
				return fmt.Errorf("batch: daemon still shedding after %d attempts (status %d: %s)",
					maxAttempts, resp.StatusCode, strings.TrimSpace(string(raw)))
			}
			// Exponential base capped at 2s; the daemon's Retry-After is a
			// floor, not a suggestion to ignore. Jitter over (base/2, base]
			// so parallel invocations don't retry in lockstep.
			base := min(time.Duration(attempt*attempt)*50*time.Millisecond, 2*time.Second)
			if v := resp.Header.Get("Retry-After"); v != "" {
				if secs, aerr := strconv.Atoi(v); aerr == nil && secs > 0 {
					base = max(base, min(time.Duration(secs)*time.Second, 5*time.Second))
				}
			}
			time.Sleep(base/2 + time.Duration(rand.Int64N(int64(base/2)+1)))
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			return fmt.Errorf("batch: daemon status %d: %s", resp.StatusCode, raw)
		}
		_, err = io.Copy(os.Stdout, resp.Body)
		return err
	}
}

// solveBatchLine runs one batch item locally, mirroring the server's
// per-item semantics: any failure is that item's error, never the
// stream's.
func solveBatchLine(line []byte, index int, ws *hypermis.Workspace, parser *service.BatchParser) service.BatchItemResult {
	res := service.BatchItemResult{Index: index}
	var it service.BatchItem
	if err := json.Unmarshal(line, &it); err != nil {
		res.Error = fmt.Sprintf("bad item JSON: %v", err)
		return res
	}
	res.ID = it.ID
	opts, err := it.Options()
	if err != nil {
		res.Error = err.Error()
		return res
	}
	h, err := parser.Instance(&it)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	opts.Workspace = ws
	start := time.Now()
	solved, err := hypermis.Solve(h, opts)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Solve = service.SolveResponseFor(h, solved, false, time.Since(start))
	return res
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	bin := fs.Bool("bin", false, "binary instance format")
	fs.Parse(args)
	h, err := readInstance(os.Stdin, *bin)
	if err != nil {
		return err
	}
	fmt.Printf("n=%d m=%d dim=%d\n", h.N(), h.M(), h.Dim())
	hist := h.DimHistogram()
	for size, count := range hist {
		if count > 0 {
			fmt.Printf("  edges of size %d: %d\n", size, count)
		}
	}
	maxDeg, isolated := h.DegreeSummary()
	fmt.Printf("  max vertex degree: %d, isolated vertices: %d\n", maxDeg, isolated)
	return nil
}
