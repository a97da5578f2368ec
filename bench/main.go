// Command bench is the repository benchmark: four fixed workloads that
// drive the real hypermisd serving stack over loopback HTTP, or the
// library directly, and report end-to-end metrics; with -trace 1, a
// second run breaks each workload down into per-layer metrics. Every
// answer is verified after the timed window.
//
// Usage (from the repository root; see README.md):
//
//	bash bench/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//
// Each metric is printed as "workload metric value unit". A run of one
// workload ends with a one-line JSON result; -workload all runs every
// workload in its own child process. The exit status is non-zero when
// any answer is wrong or a workload fails.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// endToEnd and perLayer name the metrics of the JSON result of an
// untraced and a traced run; BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"setup_s", "p50_ms", "capacity_rps", "peak_rss_mb"}
	perLayer = []string{
		"hgio.read_binary_us", "hgio.read_allocs", "hgio.read_text_us", "hgio.digest_us",
		"service.workkey_us", "service.cache_hit_ratio", "service.cache_lookup_us",
		"durable.hit_ratio", "durable.lookup_us", "durable.fill_us", "durable.write_errors", "durable.recover_s",
		"service.queue_wait_us", "service.checkout_us", "admit.rejected",
		"service.encode_us", "service.unattributed_us",
		"service.batch_parse_us", "service.batch_flush_us",
		"coloring.color_us", "coloring.classes_per_item", "hypergraph.complement_us", "hypergraph.verify_mis_us",
		"solver.solve_us", "solver.rounds_per_solve", "solver.round_p50_us", "solver.pram_depth", "solver.pram_work",
		"par.speedup_2", "par.inline_ratio", "par.handoffs_per_solve",
		"runtime.allocs_per_op", "runtime.alloc_bytes_per_op", "runtime.gc_cpu_fraction", "runtime.heap_peak_mb",
		"loadgen.p90_ms", "loadgen.p99_ms", "loadgen.lag_p99_ms", "loadgen.samples", "loadgen.trace_overhead_pct",
	}
)

// nproc is the parallelism every workload is sized by: GOMAXPROCS,
// which defaults to the CPUs the process may run on.
func nproc() int { return runtime.GOMAXPROCS(0) }

// workDir holds build outputs, durable segments and span files; the
// repository ignores it.
const workDir = ".bench_build"

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of every instance and request stream")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer variant")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace must be 0 or 1")
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rc := runConfig{
		seed:  *seed,
		dur:   time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1,
		dir:   workDir,
		sizes: fullSizes,
	}
	res, err := runWorkload(*workload, rc)
	if err == nil {
		res.rep.writeLines(os.Stdout)
		names := endToEnd
		if rc.trace {
			names = perLayer
		}
		err = res.rep.writeResult(os.Stdout, names, res.wrong == 0, res.attempted, res.failed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if res.wrong > 0 {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, passing their
// metric lines through, and returns the exit status.
func runAll(seed uint64, seconds float64, trace int) int {
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(os.Args[0], "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if line := sc.Text(); !strings.HasPrefix(line, "{") {
				fmt.Println(line)
			}
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}
