package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"anton2/internal/exp"
	"anton2/internal/route"
	"anton2/internal/serve"
	"anton2/internal/telemetry"
)

// serve-mix: an in-process anton2serve with checkpointing on, over a fresh
// store and loopback HTTP, driven by a closed loop of serveClients clients.
// A seeded sequence submits every distinct small spec once (cold:
// simulated, checkpointed, stored, WAL-logged), then many repeats (memory
// tier). A server restarted over the same store then receives every
// distinct spec again (disk tier, load-table restore); the restart is made
// serveRestarts times. Admission, caches, the store and checkpoint writes do
// the work; the simulator does little. The whole sequence runs serveRounds
// times over fresh stores.
const (
	serveClients = 2
	// serveHitsPerSecond sets the memory-tier phase: --seconds times this
	// many repeats, shared among the rounds, so a run's work is fixed by
	// --seconds.
	serveHitsPerSecond = 8000
	// serveCkptEvery is the server's checkpoint interval in cycles, short
	// enough that cold points of a few hundred cycles write snapshots.
	serveCkptEvery = 128
	// serveRounds fresh stores each take a cold phase and a share of the
	// memory hits; serveRestarts restarts per store each take a disk
	// phase. Pooling the rounds steadies the per-tier figures, and
	// run_cpu_s is the median of the rounds' request CPU.
	serveRounds   = 5
	serveRestarts = 16
)

// tiers, in the order the sequence reaches them.
const (
	tierCold = iota
	tierMemory
	tierDisk
	numTiers
)

var tierNames = [numTiers]string{"cold", "memory", "disk"}

// serveSpecs draws one round's distinct specs: every (pattern, arbiter)
// throughput cell and two mdstep cells per routing strategy, with the seed
// and round choosing each cell's batch or halo size from a narrow range.
// Every round has different specs of about the same total cost.
func serveSpecs(seed uint64, round int) []*serve.Request {
	rng := rand.New(rand.NewSource(int64(roundSeed(seed, 1000+round))))
	var out []*serve.Request
	for _, pat := range serve.PatternNames() {
		for _, arb := range []string{"rr", "iw"} {
			out = append(out, &serve.Request{
				Family: "throughput", Shape: "4x2x2", Pattern: pat, Arbiter: arb,
				Batches: []int{4 + rng.Intn(4)},
			})
		}
	}
	for _, strat := range route.StrategyNames() {
		for _, base := range []int{2, 5} {
			out = append(out, &serve.Request{
				Family: "mdstep", Shape: "2x2x2", Strategies: []string{strat},
				HaloPackets: base + rng.Intn(3),
			})
		}
	}
	return out
}

// liveServer is one anton2serve instance behind a loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startServer opens the store, starts the server and waits for /readyz.
func startServer(dir string, client *http.Client) (*liveServer, error) {
	store, err := serve.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Store: store, Workers: serveClients, CheckpointEvery: serveCkptEvery})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(ls.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if time.Now().After(deadline) {
			ls.stop()
			return nil, fmt.Errorf("server over %s not ready after 30s: %v", dir, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server and waits for its HTTP loop to exit.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx) // a timeout leaves Drain to cancel the rest
	_ = ls.srv.Drain(ctx)
	<-ls.done
}

// metrics reads /metrics?format=json.
func (ls *liveServer) metrics(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(ls.base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// reply is one completed request. Only cold replies keep their bytes; a
// hit is compared with the cold bytes of its spec as it arrives.
type reply struct {
	round      int
	spec       int
	tier       int
	status     int
	header     string // X-Anton2-Cache, reported only
	body       []byte // cold tier, or the error text
	sameAsCold bool
	latency    time.Duration
}

// drive sends reqs (indices into bodies) from serveClients closed-loop
// clients; client c sends reqs[c], reqs[c+serveClients], ... in order.
// coldBodies is nil for the cold phase. drive returns the replies and the
// CPU seconds the process (clients and server) spent on them.
func drive(r *run, client *http.Client, base string, bodies [][]byte, reqs []int, tier int, coldBodies [][]byte) ([]reply, float64) {
	out := make([]reply, len(reqs))
	// Open every client's connection before the clock starts: after a
	// restart the first request would otherwise pay a TCP dial.
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := client.Get(base + "/livez"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	settle()
	cpu := cpuSeconds()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += serveClients {
				rp := reply{spec: reqs[i], tier: tier}
				t0 := time.Now()
				var body []byte
				resp, err := client.Post(base+"/v1/runs?wait=1", "application/json", bytes.NewReader(bodies[reqs[i]]))
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					rp.status = resp.StatusCode
					rp.header = resp.Header.Get("X-Anton2-Cache")
				}
				rp.latency = time.Since(t0)
				if r.spans != nil {
					r.spans.add("serve", "POST /v1/runs "+tierNames[tier], uint64(c+1), t0, rp.latency)
				}
				switch {
				case err != nil:
					rp.status = -1
					rp.body = []byte(err.Error())
				case coldBodies == nil || rp.status != http.StatusOK:
					rp.body = body
				default:
					rp.sameAsCold = bytes.Equal(body, coldBodies[rp.spec])
				}
				out[i] = rp
			}
		}(c)
	}
	wg.Wait()
	return out, cpuSeconds() - cpu
}

// serveRound is one fresh store's share of the sequence.
type serveRound struct {
	specs  []*serve.Request
	bodies [][]byte
	ids    []string
	ref    [][]byte           // exp.Run's canonical artifact by spec
	cold   [][]byte           // the server's cold artifact by spec
	first  map[string]float64 // the first server's /metrics
	disk   []map[string]float64
}

func serveMix(r *run) error {
	dir, err := os.MkdirTemp(r.outDir, "serve-mix-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()

	hits := r.seconds * serveHitsPerSecond / serveRounds
	var livez []time.Duration
	var freshSetups, restartSetups []float64
	var replies []reply
	var tierCPU [numTiers]float64
	roundCPU := make([]float64, serveRounds)
	rounds := make([]*serveRound, serveRounds)
	for k := range rounds {
		rd := &serveRound{specs: serveSpecs(r.seed, k)}
		rounds[k] = rd
		d := len(rd.specs)
		rd.bodies, rd.ids = make([][]byte, d), make([]string, d)
		for i, q := range rd.specs {
			if rd.bodies[i], err = json.Marshal(q); err != nil {
				return err
			}
			if rd.ids[i], err = q.ID(); err != nil {
				return fmt.Errorf("spec %s: %w", rd.bodies[i], err)
			}
		}
		storeDir := filepath.Join(dir, fmt.Sprintf("store%d", k))
		phase := func(ls *liveServer, reqs []int, tier int) {
			rs, cpu := drive(r, client, ls.base, rd.bodies, reqs, tier, rd.cold)
			for i := range rs {
				rs[i].round = k
			}
			replies = append(replies, rs...)
			tierCPU[tier] += cpu
			roundCPU[k] += cpu
			if tier == tierCold {
				rd.cold = make([][]byte, d)
				for _, rp := range rs {
					rd.cold[rp.spec] = rp.body
				}
			}
		}

		settle()
		var live *liveServer
		var serr error
		cpu := cpuSeconds()
		r.span("serve", "start server (fresh store)", func() { live, serr = startServer(storeDir, client) })
		freshSetups = append(freshSetups, cpuSeconds()-cpu)
		r.op(r.check(serr == nil, "serve-mix fresh server: %v", serr))
		if serr != nil {
			return serr
		}
		cold := make([]int, d)
		for i := range cold {
			cold[i] = i
		}
		phase(live, cold, tierCold)
		rng := rand.New(rand.NewSource(int64(roundSeed(r.seed, 2000+k))))
		repeats := make([]int, hits)
		for i := range repeats {
			repeats[i] = rng.Intn(d)
		}
		phase(live, repeats, tierMemory)
		if r.trace {
			for i := 0; i < 200; i++ {
				t0 := time.Now()
				resp, err := client.Get(live.base + "/livez")
				if err != nil {
					live.stop()
					return fmt.Errorf("livez: %w", err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				livez = append(livez, time.Since(t0))
			}
		}
		rd.first, err = live.metrics(client)
		live.stop()
		if err != nil {
			return err
		}

		// Restarts over the populated store, each followed by the disk
		// phase.
		for rep := 0; rep < serveRestarts; rep++ {
			var ls *liveServer
			cpu := cpuSeconds()
			r.span("serve", "restart server (populated store)", func() { ls, serr = startServer(storeDir, client) })
			restartSetups = append(restartSetups, cpuSeconds()-cpu)
			r.op(r.check(serr == nil, "serve-mix restarted server: %v", serr))
			if serr != nil {
				return serr
			}
			phase(ls, cold, tierDisk)
			m, err := ls.metrics(client)
			ls.stop()
			if err != nil {
				return err
			}
			rd.disk = append(rd.disk, m)
		}
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix round %d: %.3f CPU-s of requests\n", k, roundCPU[k])
	}

	// Reference artifacts, computed apart from the server: each request's
	// own jobs run directly through exp.Run.
	for _, rd := range rounds {
		rd.ref = make([][]byte, len(rd.specs))
		for i, q := range rd.specs {
			jobs, err := q.Jobs(func() *telemetry.Options { return nil })
			if err != nil {
				return err
			}
			if rd.ref[i], err = exp.MarshalCanonical(exp.Run(jobs, exp.Serial())); err != nil {
				return err
			}
		}
	}

	lat := make([][]float64, numTiers)
	mismatchedHeaders := 0
	for _, rp := range replies {
		ok := r.check(rp.status == http.StatusOK, "serve-mix %s request for spec %d: status %d: %s", tierNames[rp.tier], rp.spec, rp.status, truncate(rp.body))
		if rp.tier == tierCold {
			ok = ok && r.check(bytes.Equal(rp.body, rounds[rp.round].ref[rp.spec]),
				"serve-mix cold artifact for spec %d differs from exp.Run's canonical artifact", rp.spec)
		} else {
			ok = ok && r.check(rp.sameAsCold, "serve-mix %s artifact for spec %d differs from its cold artifact", tierNames[rp.tier], rp.spec)
		}
		r.op(ok)
		lat[rp.tier] = append(lat[rp.tier], rp.latency.Seconds())
		if rp.header != [numTiers]string{"", "memory", "disk"}[rp.tier] {
			mismatchedHeaders++
		}
	}
	if mismatchedHeaders > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix: %d of %d responses carry an X-Anton2-Cache header that does not name their tier (README: known fault)\n",
			mismatchedHeaders, len(replies))
	}

	// /metrics must count exactly one simulation per distinct spec, and
	// every other request as a hit of the tier the sequence put it in.
	var sims, simCycles, flightHits, memHits, diskHits float64
	for k, rd := range rounds {
		d, first := float64(len(rd.specs)), rd.first
		ok := r.check(first["anton2serve_runs_total{state=\"started\"}"] == d &&
			first["anton2serve_points_total{state=\"run\"}"] == d &&
			first["anton2serve_cache_misses_total"] == d &&
			first["anton2serve_cache_hits_total{tier=\"memory\"}"] == float64(hits) &&
			first["anton2serve_cache_hits_total{tier=\"flight\"}"] == 0 &&
			first["anton2serve_cache_hits_total{tier=\"disk\"}"] == 0,
			"serve-mix round %d first server metrics: started %v, points run %v, misses %v, memory hits %v, flight hits %v, disk hits %v; want %v simulations and %d memory hits",
			k, first["anton2serve_runs_total{state=\"started\"}"], first["anton2serve_points_total{state=\"run\"}"],
			first["anton2serve_cache_misses_total"], first["anton2serve_cache_hits_total{tier=\"memory\"}"],
			first["anton2serve_cache_hits_total{tier=\"flight\"}"], first["anton2serve_cache_hits_total{tier=\"disk\"}"], d, hits)
		sims += first["anton2serve_runs_total{state=\"started\"}"]
		simCycles += first["anton2serve_sim_cycles_total"]
		flightHits += first["anton2serve_cache_hits_total{tier=\"flight\"}"]
		memHits += first["anton2serve_cache_hits_total{tier=\"memory\"}"]
		for i, m := range rd.disk {
			ok = r.check(m["anton2serve_runs_total{state=\"started\"}"] == 0 && m["anton2serve_cache_hits_total{tier=\"disk\"}"] == d,
				"serve-mix round %d restarted server %d metrics: started %v, disk hits %v; want 0 and %v",
				k, i, m["anton2serve_runs_total{state=\"started\"}"], m["anton2serve_cache_hits_total{tier=\"disk\"}"], d) && ok
			diskHits += m["anton2serve_cache_hits_total{tier=\"disk\"}"]
			memHits += m["anton2serve_cache_hits_total{tier=\"memory\"}"]
			flightHits += m["anton2serve_cache_hits_total{tier=\"flight\"}"]
		}
		r.op(ok)
	}

	if !r.trace {
		r.set("setup_s", median(freshSetups)+median(restartSetups), "s")
		r.set("run_cpu_s", median(roundCPU), "s")
		r.set("sim_cycles", simCycles, "cycles")
		return nil
	}
	r.set("serve.cold_cpu_ms", tierCPU[tierCold]/float64(len(lat[tierCold]))*1e3, "ms")
	r.set("serve.hit_p50_ms", median(lat[tierMemory])*1e3, "ms")
	r.set("serve.cold_p50_ms", median(lat[tierCold])*1e3, "ms")
	r.set("serve.disk_p50_us", median(lat[tierDisk])*1e6, "us")
	r.set("serve.disk_cpu_us", tierCPU[tierDisk]/float64(len(lat[tierDisk]))*1e6, "us")
	r.set("serve.simulations", sims, "count")
	r.set("serve.hits_flight", flightHits, "count")
	r.set("serve.hits_memory", memHits, "count")
	r.set("serve.hits_disk", diskHits, "count")
	r.set("serve.livez_p50_us", median(seconds(livez))*1e6, "us")
	return serveLayers(r, filepath.Join(dir, "store0"), filepath.Join(dir, "save"), rounds[0])
}

// serveLayers times the request parser and the store's reads, writes and
// load-table restore directly.
func serveLayers(r *run, storeDir, scratchDir string, rd *serveRound) error {
	specs, bodies, ids := rd.specs, rd.bodies, rd.ids
	var parses []time.Duration
	for rep := 0; rep < 20; rep++ {
		for _, b := range bodies {
			var err error
			parses = append(parses, r.span("serve", "serve.ParseRequest", func() { _, err = serve.ParseRequest(bytes.NewReader(b)) }))
			if err != nil {
				return err
			}
		}
	}
	store, err := serve.OpenStore(storeDir)
	if err != nil {
		return err
	}
	scratch, err := serve.OpenStore(scratchDir)
	if err != nil {
		return err
	}
	var loads, saves, restores []time.Duration
	for i := range specs {
		var b []byte
		var found bool
		var lerr, serr error
		loads = append(loads, r.span("serve", "Store.LoadArtifact", func() { b, found, lerr = store.LoadArtifact(ids[i]) }))
		if lerr != nil || !found {
			return fmt.Errorf("store load %s: found %v, %v", ids[i], found, lerr)
		}
		saves = append(saves, r.span("serve", "Store.SaveArtifact", func() { serr = scratch.SaveArtifact(ids[i], b) }))
		if serr != nil {
			return serr
		}
	}
	for rep := 0; rep < setupReps; rep++ {
		var rerr error
		restores = append(restores, r.span("serve", "Store.RestoreLoads", func() { _, rerr = store.RestoreLoads() }))
		if rerr != nil {
			return rerr
		}
	}
	r.set("serve.parse_us", median(seconds(parses))*1e6, "us")
	r.set("serve.store_load_us", median(seconds(loads))*1e6, "us")
	r.set("serve.store_save_us", median(seconds(saves))*1e6, "us")
	r.set("serve.loads_restore_s", median(seconds(restores)), "s")
	return nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
