package main

import (
	"fmt"
	"math"
	"time"

	"anton2/internal/arbiter"
	"anton2/internal/core"
	"anton2/internal/fabric"
	"anton2/internal/loadcalc"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// fig9-sat: Figure 9's uniform-random traffic on the paper's 8x8x8 machine
// with inverse-weighted arbiters (weights from uniform loads), every core
// injecting a fixed batch at once. The injection queues hold work from
// cycle 0, so every router, adapter and arbiter is busy nearly every cycle
// and the saturated cycle-kernel path does almost all of the run; the
// 8x8x8 load-table computation does almost all of the set-up.
const (
	fig9Batch = 32
	// fig9RoundSeconds is the nominal host time of one point on the
	// reference host; --seconds / fig9RoundSeconds points run (at least
	// one), so a run's work is fixed by --seconds and the same on every
	// commit.
	fig9RoundSeconds = 24
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median.
	setupReps = 3
)

var fig9Shape = topo.Shape3(8, 8, 8)

func fig9Sat(r *run) error {
	mc := machine.DefaultConfig(fig9Shape)
	mc.Arbiter = arbiter.KindInverseWeighted
	tm, err := topo.NewMachine(fig9Shape)
	if err != nil {
		return err
	}

	// Set-up, several times: the uniform load table, the inverse-weight
	// tables built from it, and the machine. The first repetition goes
	// through core.PatternLoads so the shared load cache the measured
	// point reads is filled; the others call loadcalc.Compute directly,
	// which is the same computation without the cache.
	scheme := mc.Scheme
	if scheme == nil {
		scheme = route.AntonScheme{}
	}
	var computes, builds []time.Duration
	var setups []float64
	var loads *loadcalc.Loads
	for rep := 0; rep < setupReps; rep++ {
		settle()
		cpu := cpuSeconds()
		var l *loadcalc.Loads
		var lerr error
		computes = append(computes, r.span("loadcalc", "loadcalc.Compute uniform 8x8x8", func() {
			if rep == 0 {
				l, lerr = core.PatternLoads(mc, traffic.Uniform{})
				return
			}
			rc := &route.Config{Machine: tm, Scheme: scheme, DirOrder: mc.DirOrder, UseSkip: mc.UseSkip, ExitSkip: mc.ExitSkip}
			l = loadcalc.Compute(rc, tm.Chip.CoreEndpoints(), traffic.Uniform{}.Flows(tm), route.ClassRequest)
		}))
		var berr error
		builds = append(builds, r.span("machine", "loadcalc.BuildWeights + machine.New", func() {
			c := mc
			c.Weights = loadcalc.BuildWeights(l)
			_, berr = machine.New(c)
		}))
		setups = append(setups, cpuSeconds()-cpu)
		ok := r.check(lerr == nil && berr == nil, "fig9-sat set-up: loads %v, machine %v", lerr, berr)
		r.op(ok)
		if !ok {
			return fmt.Errorf("set-up failed")
		}
		loads = l
	}

	// Closed-form check of the load table, made apart from loadcalc: under
	// uniform traffic with randomized minimal dimension-order routing over
	// two slices, each torus channel of the longest ring carries
	// S*k_max/16 * N/(N-1) traversals per round (S cores per node inject
	// one packet each per round, 1/(N-1) of them to every other node).
	nodes := float64(tm.NumNodes())
	cores := float64(len(tm.Chip.CoreEndpoints()))
	kmax := 0
	for _, k := range fig9Shape.K {
		kmax = max(kmax, k)
	}
	wantLoad := cores * float64(kmax) / 16 * nodes / (nodes - 1)
	gotLoad := loads.MaxTorusLoad()
	loadOK := r.check(relClose(gotLoad, wantLoad, 1e-9), "fig9-sat busiest torus load %.12g, closed form %.12g", gotLoad, wantLoad)
	satRate := (1000.0 / float64(fabric.TorusRateMilli)) / wantLoad

	rounds := max(1, r.seconds/fig9RoundSeconds)
	var cpus, cycles, norms []float64
	for round := 0; round < rounds; round++ {
		cfg := core.ThroughputConfig{
			Machine:        mc,
			Pattern:        traffic.Uniform{},
			WeightPatterns: []traffic.Pattern{traffic.Uniform{}},
			Batch:          fig9Batch,
		}
		cfg.Machine.Seed = roundSeed(r.seed, round)
		var rep *telemetry.Report
		if r.trace {
			cfg.Machine.Telemetry = &telemetry.Options{Sink: func(t *telemetry.Report) { rep = t }}
		}
		var res core.ThroughputResult
		var terr error
		settle()
		cpu := cpuSeconds()
		d := r.span("core", fmt.Sprintf("core.RunThroughput batch %d", fig9Batch), func() {
			res, terr = core.RunThroughput(cfg)
		})
		cpus = append(cpus, cpuSeconds()-cpu)
		ok := r.check(terr == nil, "fig9-sat point: %v", terr) && loadOK
		if ok {
			// Every one of the N*S*batch packets must arrive:
			// RunThroughput returns only once that many deliveries are
			// counted, and the traced run recounts them from the
			// ejection channels' packet counters.
			total := nodes * cores * fig9Batch
			if rep != nil {
				got := ejected(tm, rep)
				ok = r.check(float64(got) == total, "fig9-sat ejected %d packets, want %.0f", got, total) && ok
			}
			norm := (fig9Batch / float64(res.Cycles)) / satRate
			ok = r.check(relClose(res.Normalized, norm, 1e-9), "fig9-sat normalized throughput %.12g, recomputed %.12g", res.Normalized, norm) && ok
			ok = r.check(res.Normalized > 0 && res.Normalized <= 1, "fig9-sat normalized throughput %g outside (0, 1]", res.Normalized) && ok
			ok = r.check(res.MeanUtilization > 0 && res.MaxUtilization <= 1 && res.MeanUtilization <= res.MaxUtilization,
				"fig9-sat torus utilization mean %g max %g", res.MeanUtilization, res.MaxUtilization) && ok
		}
		r.op(ok)
		cycles = append(cycles, float64(res.Cycles))
		norms = append(norms, res.Normalized)
		if r.trace && terr == nil {
			fig9Layers(r, tm, res, rep, d-time.Duration(median(seconds(builds))*float64(time.Second)))
		}
	}

	if r.trace {
		r.set("loadcalc.compute_s", median(seconds(computes)), "s")
		r.set("machine.build_s", median(seconds(builds)), "s")
		r.set("core.norm_throughput", median(norms), "ratio")
		return nil
	}
	r.set("setup_s", median(setups), "s")
	r.set("run_cpu_s", median(cpus), "s")
	r.set("sim_cycles", median(cycles), "cycles")
	return nil
}

// fig9Layers reports the traced point's counters. kernel time is the point's
// host time less one weight-and-machine build, which RunThroughput repeats
// inside the point.
func fig9Layers(r *run, tm *topo.Machine, res core.ThroughputResult, rep *telemetry.Report, point time.Duration) {
	kernel := point.Seconds()
	r.set("kernel.run_s", kernel, "s")
	r.set("kernel.cycles_per_s", float64(res.Cycles)/kernel, "1/s")
	r.set("kernel.ns_per_node_cycle", kernel*1e9/(float64(res.Cycles)*float64(tm.NumNodes())), "ns")
	r.set("fabric.torus_util_mean", res.MeanUtilization, "ratio")
	r.set("fabric.torus_util_max", res.MaxUtilization, "ratio")
	r.set("core.fairness", res.Fairness, "ratio")
	if rep == nil {
		return
	}
	for _, s := range rep.ArbSummary {
		switch s.Kind {
		case "sa1":
			r.set("arbiter.sa1_mean_jain", s.MeanJain, "ratio")
		case "sa2":
			r.set("arbiter.sa2_mean_jain", s.MeanJain, "ratio")
			r.set("router.grants_per_router_cycle",
				float64(s.TotalGrants)/(float64(tm.NumNodes()*topo.NumRouters)*float64(res.Cycles)), "ratio")
		}
	}
}

// ejected sums the packets carried by every router-to-endpoint channel.
func ejected(tm *topo.Machine, rep *telemetry.Report) uint64 {
	var n uint64
	for _, cs := range rep.Channels {
		if cs.Torus {
			continue
		}
		if _, ch := tm.IntraChanOf(cs.ID); ch.To.Kind == topo.LocEndpoint {
			n += cs.Packets
		}
	}
	return n
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
