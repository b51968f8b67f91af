package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"anton2/internal/sim"
	"anton2/internal/telemetry"
)

// spanLog keeps the traced run's spans in memory until the run ends. Spans
// are written as telemetry.ChromeTraceFile, the Perfetto-loadable format
// the packet traces already use: one thread per lane (the main goroutine
// is lane 0, serve clients take lanes 1 and up), nesting by time within a
// lane, and the layer called as the event category.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	events []telemetry.ChromeEvent
	lanes  map[uint64]bool
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), lanes: map[uint64]bool{}}
}

func (l *spanLog) add(layer, name string, lane uint64, start time.Time, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lanes[lane] = true
	l.events = append(l.events, telemetry.ChromeEvent{
		Name: name, Cat: layer, Ph: "X", PID: 1, TID: lane,
		TS:  float64(start.Sub(l.origin).Nanoseconds()) / 1e3,
		Dur: float64(d.Nanoseconds()) / 1e3,
	})
}

// write emits the spans, preceded by process and lane names.
func (l *spanLog) write(path, process string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := telemetry.ChromeTraceFile{DisplayTimeUnit: "ms"}
	f.TraceEvents = append(f.TraceEvents, telemetry.ChromeEvent{
		Name: "process_name", Ph: "M", PID: 1, Args: &telemetry.ChromeArgs{Name: "perfbench " + process},
	})
	lanes := make([]uint64, 0, len(l.lanes))
	for lane := range l.lanes {
		lanes = append(lanes, lane)
	}
	sort.Slice(lanes, func(i, j int) bool { return lanes[i] < lanes[j] })
	for _, lane := range lanes {
		name := "main"
		if lane > 0 {
			name = fmt.Sprintf("client %d", lane)
		}
		f.TraceEvents = append(f.TraceEvents, telemetry.ChromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: lane, Args: &telemetry.ChromeArgs{Name: name},
		})
	}
	f.TraceEvents = append(f.TraceEvents, l.events...)
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// the repeat mode reads the same spread an outside checker computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB is the process's high-water resident set size (the kernel's
// ru_maxrss, the same figure as VmHWM), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the CPU time the process has used so far, user and system,
// all threads. Unlike wall time it leaves out the time the hypervisor gave
// the host's CPUs to other tenants (steal), which moved whole runs by a
// third on the reference host.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// settle collects garbage before a timed section, so the section does not
// pay for an earlier one's heap.
func settle() { runtime.GC() }

// roundSeed derives the machine seed of one round from the workload seed,
// so rounds and workloads never share a random stream.
func roundSeed(seed uint64, round int) uint64 {
	st := seed*0x9E3779B97F4A7C15 + uint64(round)
	return sim.SplitMix64(&st)
}

// repeatMode runs the workload n times, each in its own child process with
// seed, seed+1, ..., and prints every metric's median, quartiles and
// quartile spread as a share of the median, the figure the benchmark's
// bounds are set against.
func repeatMode(workload string, seed uint64, secs, trace, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("perfbench repeat: %s x%d seconds=%d trace=%d host: %s\n", workload, n, secs, trace, fingerprint())
	values := map[string][]float64{}
	units := map[string]string{}
	attempted, failed := 0, 0
	status := 0
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(secs), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Printf("seed %d: no result (%v, %v)\n", s, err, jerr)
			status = 1
			continue
		}
		if err != nil || !res.Correct {
			status = 1
		}
		attempted += res.Attempted
		failed += res.Failed
		var line []string
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			line = append(line, fmt.Sprintf("%s=%.5g", name, m.Value))
		}
		sort.Strings(line)
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d %s\n", s, res.Correct, res.Attempted, res.Failed, strings.Join(line, " "))
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %-7s %14s %14s %14s %9s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, name := range names {
		xs := values[name]
		q1, q3 := quartiles(xs)
		med := median(xs)
		spread := math.NaN()
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Printf("%-30s %-7s %14.6g %14.6g %14.6g %9.4f\n", name, units[name], q1, med, q3, spread)
	}
	fmt.Printf("attempted %d, failed %d over %d runs\n", attempted, failed, n)
	return status
}
