// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one workload per process and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {value, unit}}}
//
// With --trace 0 the metrics are the workload's end-to-end metrics, measured
// with nothing but the benchmark's own clocks attached. With --trace 1 the
// same work runs with spans around every call into a layer, a CPU profile
// and the program's own counters switched on, and the metrics are the
// per-layer ones. --repeat N re-runs the workload N times in child
// processes (seeds seed..seed+N-1) and prints the median and quartiles of
// every metric. See README.md for the workloads and the metric map.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's inputs and accumulates its outcome. Every
// operation a workload performs is counted through op, and every check
// through check, so a failed check fails exactly the operation it belongs
// to.
type run struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string

	spans *spanLog // nil unless tracing

	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

// op records one attempted operation; ok=false counts it as failed.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check reports whether cond holds, logging msg when it does not.
func (r *run) check(cond bool, format string, args ...any) bool {
	if !cond {
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
	}
	return cond
}

// set records a metric.
func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// span times fn as a span named name in the given layer when tracing, and
// returns fn's wall time either way.
func (r *run) span(layer, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if r.spans != nil {
		r.spans.add(layer, name, 0, start, d)
	}
	return d
}

// endToEnd lists the untraced run's metrics (BENCHMARK.json end_to_end).
// Every workload reports every one of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"run_cpu_s", "s"}, {"sim_cycles", "cycles"}, {"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics (BENCHMARK.json per_layer).
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"loadcalc.compute_s", "s"}, {"machine.build_s", "s"}, {"multicast.tables_s", "s"},
		{"kernel.run_s", "s"}, {"kernel.ns_per_node_cycle", "ns"}, {"kernel.cycles_per_s", "1/s"},
	}
	for _, l := range profLayers {
		out = append(out, struct{ name, unit string }{"prof." + l + "_s", "s"})
	}
	for _, m := range []struct{ name, unit string }{
		{"core.norm_throughput", "ratio"}, {"fabric.torus_util_mean", "ratio"}, {"fabric.torus_util_max", "ratio"}, {"core.fairness", "ratio"},
		{"arbiter.sa1_mean_jain", "ratio"}, {"arbiter.sa2_mean_jain", "ratio"}, {"router.grants_per_router_cycle", "ratio"},
		{"workload.halo_cycles", "cycles"}, {"workload.multicast_cycles", "cycles"}, {"workload.reduce_cycles", "cycles"},
		{"workload.record_s", "s"}, {"workload.replay_s", "s"}, {"trace.encode_s", "s"}, {"trace.decode_s", "s"}, {"trace.bytes", "bytes"},
		{"ckpt.snapshot_s", "s"}, {"ckpt.encode_s", "s"}, {"ckpt.bytes", "bytes"},
		{"serve.cold_cpu_ms", "ms"}, {"serve.hit_p50_ms", "ms"}, {"serve.cold_p50_ms", "ms"}, {"serve.disk_p50_us", "us"}, {"serve.disk_cpu_us", "us"},
		{"serve.parse_us", "us"}, {"serve.livez_p50_us", "us"}, {"serve.store_load_us", "us"}, {"serve.store_save_us", "us"},
		{"serve.loads_restore_s", "s"}, {"serve.simulations", "count"},
		{"serve.hits_flight", "count"}, {"serve.hits_memory", "count"}, {"serve.hits_disk", "count"},
	} {
		out = append(out, m)
	}
	return out
}()

type workloadFunc func(r *run) error

var workloads = map[string]workloadFunc{
	"fig9-sat":  fig9Sat,
	"mdstep":    mdstep,
	"serve-mix": serveMix,
}

const workloadNames = "fig9-sat, mdstep, serve-mix"

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames)
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 24, "run length; sets how much work one run does (see README)")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times in child processes and print median and quartiles")
	outDir := fs.String("out", "", "directory for span files, profiles and scratch stores (default $CARGO_TARGET_DIR/perfbench or .bench_build/perfbench)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds < 1 || *seconds > 600 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be in [1, 600]\n")
		return 2
	}
	if *outDir == "" {
		base := os.Getenv("CARGO_TARGET_DIR")
		if base == "" {
			base = ".bench_build"
		}
		*outDir = filepath.Join(base, "perfbench")
	}
	if *repeat > 0 {
		return repeatMode(*name, *seed, *seconds, *traceFlag, *repeat)
	}

	r := &run{
		workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		outDir: *outDir, metrics: map[string]metric{},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d host: %s\n",
		*name, *seed, *seconds, *traceFlag, fingerprint())
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var prof bytes.Buffer
	if r.trace {
		r.spans = newSpanLog()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
	}
	werr := fn(r)
	if r.trace {
		if err := finishTrace(r, &prof); err != nil && werr == nil {
			werr = err
		}
	}
	if werr != nil {
		// An error means the workload could not run to its end: no result.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, werr)
		return 1
	}
	if r.trace {
		// Every per-layer metric is reported; a layer the workload does
		// not exercise reads 0.
		for _, m := range perLayer {
			if _, ok := r.metrics[m.name]; !ok {
				r.set(m.name, 0, m.unit)
			}
		}
		if len(r.metrics) != len(perLayer) {
			fmt.Fprintf(os.Stderr, "perfbench: %s reported %d per-layer metrics, want %d\n", *name, len(r.metrics), len(perLayer))
			return 1
		}
	} else {
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		// A workload that leaves an end-to-end metric out, or adds one,
		// is a fault of the benchmark: no result.
		if len(r.metrics) != len(endToEnd) {
			fmt.Fprintf(os.Stderr, "perfbench: %s reported %d end-to-end metrics, want %d\n", *name, len(r.metrics), len(endToEnd))
			return 1
		}
		for _, m := range endToEnd {
			if got, ok := r.metrics[m.name]; !ok || got.Unit != m.unit || !(got.Value > 0) {
				fmt.Fprintf(os.Stderr, "perfbench: %s end-to-end metric %s is missing or not positive: %+v\n", *name, m.name, got)
				return 1
			}
		}
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// finishTrace stops the profile, folds it into prof.* metrics and writes the
// span file and the raw profile next to each other.
func finishTrace(r *run, prof *bytes.Buffer) error {
	pprof.StopCPUProfile()
	raw := prof.Bytes()
	self, err := attributeProfile(raw)
	if err != nil {
		return err
	}
	for _, name := range profLayers {
		r.set("prof."+name+"_s", self[name], "s")
	}
	base := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d", r.workload, r.seed))
	if err := os.WriteFile(base+".cpu.pprof", raw, 0o644); err != nil {
		return err
	}
	if err := r.spans.write(base+".trace.json", r.workload+" | "+fingerprint()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s.trace.json (Perfetto) and %s.cpu.pprof\n", base, base)
	return nil
}

// fingerprint identifies the host a run measured.
func fingerprint() string {
	model := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
