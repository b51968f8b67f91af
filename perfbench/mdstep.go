package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"anton2/internal/ckpt"
	"anton2/internal/core"
	"anton2/internal/fabric"
	"anton2/internal/machine"
	"anton2/internal/packet"
	"anton2/internal/topo"
	"anton2/internal/trace"
	"anton2/internal/workload"
)

// mdstep: the default MD timestep (halo exchange, multicast force
// distribution, global reduction) on the 8x8x8 machine with the anton
// strategy and round-robin arbiters, recorded, encoded, decoded and
// replayed on a fresh machine, as anton2bench mdstep does. Its phases
// alternate bursts with quiescent barriers, so the active-set scheduler,
// multicast expansion and the trace codec do the work, and loadcalc none.
const (
	// --seconds / mdstepSecondsPerRound record-and-replay rounds run (at
	// least one), so a run's work is fixed by --seconds. A round takes
	// about 10 CPU-s on the reference host; run_cpu_s is the median of
	// the rounds.
	mdstepSecondsPerRound = 12
	// mdstepSetupReps: the set-up takes a tenth of a second, so it is
	// repeated more often than fig9-sat's to steady its median.
	mdstepSetupReps = 7
	// mdstepCkptEvery is the traced run's snapshot interval in cycles.
	mdstepCkptEvery = 1024
)

var mdstepShape = topo.Shape3(8, 8, 8)

func mdstep(r *run) error {
	spec := workload.DefaultSpec()
	tm, err := topo.NewMachine(mdstepShape)
	if err != nil {
		return err
	}

	// Set-up, several times: the workload's multicast tables and the
	// machine that loads them.
	var tables, builds []time.Duration
	var setups []float64
	for rep := 0; rep < mdstepSetupReps; rep++ {
		settle()
		cpu := cpuSeconds()
		mc := machine.DefaultConfig(mdstepShape)
		tables = append(tables, r.span("multicast", "workload.Spec.Tables", func() {
			mc.Multicast = spec.Tables(tm)
		}))
		var berr error
		builds = append(builds, r.span("machine", "core.BuildMachine", func() {
			_, _, berr = core.BuildMachine(mc)
		}))
		setups = append(setups, cpuSeconds()-cpu)
		ok := r.check(berr == nil, "mdstep set-up: %v", berr)
		r.op(ok)
		if !ok {
			return fmt.Errorf("set-up failed")
		}
	}

	want := expectedDeliveries(tm, spec)
	bounds := phaseLowerBounds(tm, spec)
	rounds := max(1, r.seconds/mdstepSecondsPerRound)
	var records, replays, encodes, decodes []time.Duration
	var cpus, cycles []float64
	var traceBytes int
	var phases []workload.PhaseResult
	for round := 0; round < rounds; round++ {
		cfg := core.MDStepConfig{Machine: machine.DefaultConfig(mdstepShape), Workload: spec}
		cfg.Machine.Seed = roundSeed(r.seed, round)

		settle()
		cpu := cpuSeconds()
		var pt core.MDStepPoint
		var tr, dec *trace.Trace
		var data []byte
		var rep workload.Result
		var recErr, encErr, decErr, repErr error
		records = append(records, r.span("workload", "core.RunMDStepPointRecorded", func() {
			pt, tr, recErr = core.RunMDStepPointRecorded(cfg, true)
		}))
		if recErr == nil {
			encodes = append(encodes, r.span("trace", "trace.Encode", func() { data, encErr = tr.Encode() }))
		}
		if recErr == nil && encErr == nil {
			decodes = append(decodes, r.span("trace", "trace.Decode", func() { dec, decErr = trace.Decode(data) }))
		}
		if recErr == nil && encErr == nil && decErr == nil {
			replays = append(replays, r.span("workload", "core.ReplayMDStepTrace", func() {
				rep, repErr = core.ReplayMDStepTrace(cfg, dec)
			}))
		}
		cpus = append(cpus, cpuSeconds()-cpu)
		fmt.Fprintf(os.Stderr, "perfbench: mdstep round %d: %.3f CPU-s\n", round, cpus[len(cpus)-1])

		ok := r.check(recErr == nil && encErr == nil && decErr == nil && repErr == nil,
			"mdstep round %d: record %v, encode %v, decode %v, replay %v", round, recErr, encErr, decErr, repErr)
		if ok {
			again, err := dec.Encode()
			ok = r.check(err == nil && bytes.Equal(again, data), "mdstep trace encode-decode-encode changed the bytes (%v)", err) && ok
			ok = r.check(reflect.DeepEqual(rep.Phases, pt.Phases) && rep.TotalCycles == pt.TotalCycles,
				"mdstep replay took %d cycles, recorded run %d (or a phase differs)", rep.TotalCycles, pt.TotalCycles) && ok
			ok = checkPhases(r, pt.Phases, want, bounds) && ok
			traceBytes = len(data)
			phases = pt.Phases
		}
		r.op(ok)
		cycles = append(cycles, float64(pt.TotalCycles))
	}

	if !r.trace {
		r.set("setup_s", median(setups), "s")
		r.set("run_cpu_s", median(cpus), "s")
		r.set("sim_cycles", median(cycles), "cycles")
		return nil
	}
	r.set("multicast.tables_s", median(seconds(tables)), "s")
	r.set("machine.build_s", median(seconds(builds)), "s")
	rec := median(seconds(records))
	r.set("workload.record_s", rec, "s")
	r.set("workload.replay_s", median(seconds(replays)), "s")
	r.set("trace.encode_s", median(seconds(encodes)), "s")
	r.set("trace.decode_s", median(seconds(decodes)), "s")
	r.set("trace.bytes", float64(traceBytes), "bytes")
	// The recorded run is one machine build plus the kernel.
	kernel := rec - median(seconds(tables)) - median(seconds(builds))
	simCycles := median(cycles)
	r.set("kernel.run_s", kernel, "s")
	r.set("kernel.cycles_per_s", simCycles/kernel, "1/s")
	r.set("kernel.ns_per_node_cycle", kernel*1e9/(simCycles*float64(tm.NumNodes())), "ns")
	for _, ph := range phases {
		r.set("workload."+ph.Phase+"_cycles", float64(ph.Cycles), "cycles")
	}
	return mdstepCkpt(r, tm, spec)
}

// mdstepCkpt times machine.Snapshot and its checkpoint encoding from a
// workload.RunResumable sink, every mdstepCkptEvery cycles of one timestep.
func mdstepCkpt(r *run, tm *topo.Machine, spec workload.Spec) error {
	mc := machine.DefaultConfig(mdstepShape)
	mc.Seed = roundSeed(r.seed, 0)
	mc.Multicast = spec.Tables(tm)
	m, _, err := core.BuildMachine(mc)
	if err != nil {
		return err
	}
	var snaps, encs []time.Duration
	size := 0
	var sinkErr error
	sink := func(p workload.Progress) {
		var snap *machine.Snapshot
		var err error
		snaps = append(snaps, r.span("ckpt", "machine.Snapshot", func() { snap, err = m.Snapshot() }))
		if err != nil {
			sinkErr = err
			return
		}
		var b []byte
		encs = append(encs, r.span("ckpt", "ckpt encode", func() {
			var mb, pb []byte
			if mb, err = json.Marshal(snap); err != nil {
				return
			}
			if pb, err = json.Marshal(p); err != nil {
				return
			}
			b, err = ckpt.New("perfbench-mdstep", snap.Now).Add("machine", mb).Add("driver", pb).Encode()
		}))
		if err != nil {
			sinkErr = err
			return
		}
		size = max(size, len(b))
	}
	_, err = workload.RunResumable(m, spec, 0, nil, mdstepCkptEvery, sink)
	ok := r.check(err == nil && sinkErr == nil && len(snaps) > 0, "mdstep checkpointed run: %v, sink %v, %d snapshots", err, sinkErr, len(snaps))
	r.op(ok)
	r.set("ckpt.snapshot_s", median(seconds(snaps)), "s")
	r.set("ckpt.encode_s", median(seconds(encs)), "s")
	r.set("ckpt.bytes", float64(size), "bytes")
	return nil
}

// phaseCount is one phase's expected injections and deliveries.
type phaseCount struct{ injected, delivered uint64 }

// expectedDeliveries computes every phase's injection and delivery counts
// from the workload spec alone: halo and reduction packets are delivered
// once each, and a force multicast reaches every distinct node of the
// (2r+1)x(2r+1) XY patch around its root except the root itself, wrap
// aliases counted once.
func expectedDeliveries(tm *topo.Machine, spec workload.Spec) map[string]phaseCount {
	s := spec.WithDefaults()
	n := uint64(tm.NumNodes())
	cores := uint64(len(tm.Chip.CoreEndpoints()))
	var mcast uint64
	for node := 0; node < tm.NumNodes(); node++ {
		c := tm.Shape.Coord(node)
		seen := map[int]bool{}
		for dx := -s.FanoutRadius; dx <= s.FanoutRadius; dx++ {
			for dy := -s.FanoutRadius; dy <= s.FanoutRadius; dy++ {
				x := ((c.Get(topo.DimX)+dx)%tm.Shape.K[topo.DimX] + tm.Shape.K[topo.DimX]) % tm.Shape.K[topo.DimX]
				y := ((c.Get(topo.DimY)+dy)%tm.Shape.K[topo.DimY] + tm.Shape.K[topo.DimY]) % tm.Shape.K[topo.DimY]
				d := tm.Shape.NodeID(c.With(topo.DimX, x).With(topo.DimY, y))
				if d != node {
					seen[d] = true
				}
			}
		}
		mcast += uint64(s.Multicasts) * uint64(len(seen))
	}
	return map[string]phaseCount{
		"halo":      {n * cores * uint64(s.HaloPackets), n * cores * uint64(s.HaloPackets)},
		"multicast": {n * uint64(s.Multicasts), mcast},
		"reduce":    {(n - 1) * cores * uint64(s.ReducePackets), (n - 1) * cores * uint64(s.ReducePackets)},
	}
}

// phaseLowerBounds gives each phase a floor on its cycles from the spec:
//   - halo: every core serializes its packets of packet.MaxFlits flits
//     through a one-flit-per-cycle injection channel;
//   - multicast: every copy crosses at least one torus channel;
//   - reduce: node 0 cannot finish before each of its core endpoints has
//     ejected, one flit per cycle, the single-flit packets bound for it
//     (sources take the root's cores in turn).
func phaseLowerBounds(tm *topo.Machine, spec workload.Spec) map[string]uint64 {
	s := spec.WithDefaults()
	cfg := machine.DefaultConfig(tm.Shape)
	perFlit := uint64(fabric.MeshRateMilli) / 1000
	cores := len(tm.Chip.CoreEndpoints())
	perEp := make([]uint64, cores)
	rr := 0
	for n := 1; n < tm.NumNodes(); n++ {
		for c := 0; c < cores; c++ {
			for k := 0; k < s.ReducePackets; k++ {
				perEp[rr%cores]++
				rr++
			}
		}
	}
	var maxEp uint64
	for _, v := range perEp {
		maxEp = max(maxEp, v)
	}
	return map[string]uint64{
		"halo":      uint64(s.HaloPackets) * packet.MaxFlits * perFlit,
		"multicast": cfg.TorusLatency,
		"reduce":    maxEp * perFlit,
	}
}

func checkPhases(r *run, phases []workload.PhaseResult, want map[string]phaseCount, bounds map[string]uint64) bool {
	ok := r.check(len(phases) == len(want), "mdstep ran %d phases, want %d", len(phases), len(want))
	for _, ph := range phases {
		w, known := want[ph.Phase]
		ok = r.check(known && ph.Injected == w.injected && ph.Delivered == w.delivered,
			"mdstep %s phase injected %d delivered %d, want %d and %d", ph.Phase, ph.Injected, ph.Delivered, w.injected, w.delivered) && ok
		ok = r.check(ph.Cycles >= bounds[ph.Phase],
			"mdstep %s phase took %d cycles, below its lower bound %d", ph.Phase, ph.Cycles, bounds[ph.Phase]) && ok
	}
	return ok
}
