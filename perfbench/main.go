// Command perfbench is the repository's end-to-end benchmark: it runs the
// paper's per-input loop (Decide → execute → Observe) against the real
// serving stack, checks every served decision against a solo in-process
// controller, and prints the end-to-end metrics, or with -trace 1 the
// per-layer metrics, as one JSON object on the last line of its output.
//
//	bash perfbench/run.sh --workload loop-binary --seed 1 --seconds 20 --trace 0
//
// Workloads (shapes in network.go and churn.go; README.md says why each
// exists and which layer metric should move which end-to-end metric):
//
//	loop-binary       64 phased streams, 2 closed-loop callers over binwire
//	                  to an alertserve child process, feedback on every input
//	decide-json       16 steady streams, 2 closed-loop callers over HTTP/JSON,
//	                  feedback on every 16th input
//	churn-inproc      in-process alert.Server, 2 closed-loop workers; streams
//	                  are created, run for 8 inputs and evicted on a seeded
//	                  schedule
//
// -workload all runs the three workloads one after another, each printing
// its table and result line.
//
// Inputs come only from -seed (scenario.Compile plus sim); the server sees
// nothing but the requests they generate. Exit status is non-zero on any
// decision mismatch, on a run the load generator itself spoiled (it held
// more connections than CPUs), or on error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	alertserve string
	root       string
}

// errInvalid marks a run the load generator spoiled, as opposed to a
// failure of the system under test.
var errInvalid = errors.New("invalid run")

// errMismatch marks a served decision that differs from the solo replay.
var errMismatch = errors.New("decision mismatch")

func main() {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "loop-binary | decide-json | churn-inproc, or all for the three in turn")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.alertserve, "alertserve", "", "alertserve binary built from the same checkout (network workloads)")
	fs.StringVar(&cfg.root, "root", ".", "checkout root, hashed into the result stamp")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = trace == 1
	workloads := []string{cfg.workload}
	if cfg.workload == "all" {
		workloads = allWorkloads
	}
	code := 0
	for _, wl := range workloads {
		cfg.workload = wl
		res, err := run(cfg, os.Stdout)
		if res != nil {
			b, _ := json.Marshal(res)
			fmt.Println(string(b))
		}
		switch {
		case errors.Is(err, errInvalid):
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			code = max(code, 3)
		case err != nil:
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			code = max(code, 1)
		}
	}
	os.Exit(code)
}

// allWorkloads are the workloads BENCHMARK.json lists, in the order
// -workload all runs them.
var allWorkloads = []string{"loop-binary", "decide-json", "churn-inproc"}

// run executes one workload and returns the result line. A decision
// mismatch returns both a result (correct=false) and an error.
func run(cfg config, out io.Writer) (*result, error) {
	if cfg.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n || runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(min(n, 2))
	}
	var r *runData
	var err error
	switch cfg.workload {
	case "loop-binary":
		r, err = runNetwork(cfg, loopBinary)
	case "decide-json":
		r, err = runNetwork(cfg, decideJSON)
	case "churn-inproc":
		r, err = runChurn(cfg)
	default:
		return nil, fmt.Errorf("unknown -workload %q (loop-binary | decide-json | churn-inproc)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	st := stampOf(cfg, r)
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "stamp: %s\n", st)

	res := &result{Correct: r.mismatch == nil, Attempted: r.sum.attempted, Failed: r.sum.failed}
	if cfg.trace {
		res.Metrics = r.layers
	} else {
		res.Metrics = r.endToEnd()
	}
	printTable(out, r, res.Metrics)
	if r.sum.attempted < 1 {
		return nil, errors.New("no input was attempted in the measured window")
	}
	if r.mismatch != nil {
		return res, fmt.Errorf("%w: %v", errMismatch, r.mismatch)
	}
	if r.connsHeld > runtime.NumCPU() {
		return nil, fmt.Errorf("%w: the load generator held %d connections to the server, more than nproc=%d", errInvalid, r.connsHeld, runtime.NumCPU())
	}
	return res, nil
}

func printTable(out io.Writer, r *runData, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	s := r.sum
	fmt.Fprintf(out, "attempted=%d failed=%d failed_ratio=%.6f latency_samples=%d window=%.3fs\n",
		s.attempted, s.failed, float64(s.failed)/float64(max(s.attempted, 1)), s.completed, s.window.Seconds())
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, note := range []string{s.sliceNote, r.note} {
		if note != "" {
			fmt.Fprintln(out, note)
		}
	}
}

// runData is what every workload measures.
type runData struct {
	setup []float64 // seconds per timed set-up
	sum   summary   // the measured (untraced) window
	rssMB float64
	axes  axes

	connsHeld int
	mismatch  error
	layers    map[string]metric
	note      string
}

func (r *runData) endToEnd() map[string]metric {
	s := r.sum
	return map[string]metric{
		"setup_s":            {medianF(r.setup), "s"},
		"loop_p50_us":        {us(s.p50), "us"},
		"loop_p99_us":        {us(s.tail), "us"},
		"slo_attainment":     {s.attainment, "ratio"},
		"throughput_ops_s":   {s.throughput, "1/s"},
		"server_peak_rss_mb": {r.rssMB, "MB"},
		"energy_per_input_j": {r.axes.energy / float64(r.axes.n), "J"},
		"deadline_miss_rate": {float64(r.axes.misses) / float64(r.axes.n), "ratio"},
		"avg_quality":        {r.axes.quality / float64(r.axes.n), "ratio"},
	}
}
