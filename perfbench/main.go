// Command perfbench is the repository benchmark: it runs one named workload
// in-process against the real serving stack or the learners, checks the
// program's outputs, and prints one JSON result line.
//
//	perfbench --workload serve-json --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and prints the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"chameleon/internal/cli"
)

// processStart approximates process start: the first set-up is timed from
// here.
var processStart = time.Now()

// A run sets its workload up at least setupReps times and until the set-ups
// have taken setupBudget together; setup_s is the median. Only the last
// set-up is measured. A cheap set-up (0.1 s on the training workloads) is
// repeated about twenty times, so the median spans a couple of seconds of
// the host's speed rather than half of one.
const (
	setupReps   = 5
	setupBudget = 2 * time.Second
)

type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	dataRoot string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one measured run of a workload.
type outcome struct {
	e2e    map[string]metric
	layers map[string]metric
	// tails are the client-seen p99 latencies. They are printed but not
	// gated: on a shared VM they move with host steal by more than any
	// bound a gate could hold (README.md).
	tails     map[string]metric
	attempted int64
	failed    int64
	checkErrs []error
	// rate is the run's headline rate (throughput_rps on the serving
	// workloads, train_samples_per_s on the training ones), the base of
	// trace.overhead_pct.
	rate float64
	// Go runtime cost per op (completed request or applied batch) over the
	// measured window. The traced run reports the untraced run's figures:
	// tracing allocates too.
	allocsPerOp, gcPauseMs float64
}

// runtimeCost fills o's runtime figures from MemStats read before and after
// the measured window of ops operations.
func (o *outcome) runtimeCost(ms0, ms1 *runtime.MemStats, ops int) {
	if ops > 0 {
		o.allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	}
	o.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}, tails: map[string]metric{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.e2e[name] = metric{v, unit} }

func (o *outcome) layer(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.layers[name] = metric{v, unit}
}

func (o *outcome) check(err error) {
	if err != nil {
		o.checkErrs = append(o.checkErrs, err)
	}
}

type workload struct {
	name string
	run  func(opt options, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"serve-json", func(o options, t *tracer) (*outcome, error) { return runServing("serve-json", o, t) }},
	{"fleet-zipf-wal", func(o options, t *tracer) (*outcome, error) { return runServing("fleet-zipf-wal", o, t) }},
	{"train-chameleon", func(o options, t *tracer) (*outcome, error) { return runTraining("chameleon", 0, o, t) }},
	{"train-der", func(o options, t *tracer) (*outcome, error) { return runTraining("der", 1, o, t) }},
}

// unreached names the modules no workload exercises, printed instead of
// zeros for their layers.
const unreached = "mobilenet (no image traffic: latents only), exp, hw, memcost, data, cli (construction only, untimed)"

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: print per-layer metrics from a traced run")
	data := fs.String("data", ".bench_build/perfbench-data", "scratch directory for per-run data (removed after the run)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	opt := options{workload: *wl, seed: *seed, duration: time.Duration(*secs) * time.Second, trace: *trace == 1, dataRoot: *data}
	if *secs < 1 {
		return opt, fmt.Errorf("--seconds must be >= 1, got %d", *secs)
	}
	if *trace != 0 && *trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if _, ok := lookup(opt.workload); !ok {
		return opt, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	return opt, nil
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func run(opt options) error {
	// The worker pool and training path exactly as every cmd binary applies
	// the cli defaults (-workers 0, -batch-train).
	stop, err := cli.Perf{Precision: cli.PrecisionFP32, BatchTrain: true}.Start(nil)
	if err != nil {
		return err
	}
	defer stop()
	if err := os.MkdirAll(opt.dataRoot, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(opt.dataRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	opt.dataRoot = root
	w, _ := lookup(opt.workload)

	steal0 := hostSteal()
	base, err := w.run(opt, nil)
	if err != nil {
		return err
	}
	steal := hostSteal().since(steal0)
	fmt.Fprintf(os.Stderr, "perfbench: host steal during the run: %.1f%% of CPU time\n", steal)
	res := base
	metrics := base.e2e
	if opt.trace {
		tr := newTracer()
		traced, err := w.run(opt, tr)
		if err != nil {
			return err
		}
		traced.layer("trace.overhead_pct", 100*(base.rate-traced.rate)/base.rate, "%")
		traced.layer("runtime.allocs_per_op", base.allocsPerOp, "count")
		traced.layer("runtime.gc_pause_ms", base.gcPauseMs, "ms")
		traced.layer("host.steal_pct", steal, "%")
		for name, m := range base.tails {
			traced.layer("loadgen."+name, m.Value, m.Unit)
		}
		traced.attempted += base.attempted
		traced.failed += base.failed
		traced.checkErrs = append(traced.checkErrs, base.checkErrs...)
		res, metrics = traced, traced.layers
		fmt.Fprintln(os.Stderr, "perfbench: modules not reached by any workload:", unreached)
	}
	for _, err := range res.checkErrs {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", err)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.checkErrs) == 0, res.attempted, res.failed, metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	printHuman(metrics)
	if !opt.trace {
		fmt.Println("not gated (they track host steal; README.md):")
		printHuman(res.tails)
	}
	fmt.Println(string(line))
	if len(res.checkErrs) > 0 {
		return errors.New("output checks failed")
	}
	return nil
}

// printHuman prints every metric by name with its unit, one per line, ahead
// of the JSON result line.
func printHuman(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// timedSetups sets a workload up as setupReps and setupBudget ask and keeps
// the last set-up; the first is timed from process start. It returns the
// median set-up time.
func timedSetups[E any](setup func() (E, error), discard func(E)) (E, float64, error) {
	var env E
	var times []float64
	start := time.Now()
	for i := 0; i < setupReps || time.Since(start) < setupBudget; i++ {
		if i > 0 {
			discard(env)
			runtime.GC()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		env = e
		times = append(times, time.Since(t0).Seconds())
	}
	return env, median(times), nil
}

// cpuMs is the process CPU time (user + sys) so far.
func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuTicks is a reading of the machine-wide CPU counters in /proc/stat.
type cpuTicks struct{ steal, total float64 }

// hostSteal reads the time the hypervisor ran other guests on this
// machine's CPUs. Steal inflates every wall-clock figure, so a run reports
// how much there was.
func hostSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i := 1; i < len(f) && i <= 8; i++ { // user … steal
		v, _ := strconv.ParseFloat(f[i], 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// since is the steal share of CPU time, in percent, between two readings.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return 100 * (t.steal - t0.steal) / (t.total - t0.total)
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20)
}
