// Command perfbench measures the memcached path end to end: it builds the
// kvserver exactly as memkv's default store (a concurrent FPTree per shard,
// two shards behind the jump-hash router, in-memory SCM arenas), drives it
// over loopback TCP with a closed-loop pipelined client that checks every
// reply, crashes and recovers it, and reports end-to-end metrics (or, with
// -trace 1, per-layer metrics from an untraced and a decorated run). The
// untraced end-to-end run alternates its load with a yardstick server, and
// gates the real server's throughput as a ratio to the yardstick's.
//
// Usage:
//
//	python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 10 --trace 0
//
// run.py builds this package and passes its flags through. The last line of
// standard output is one JSON object; the lines before it are the report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"fptree/internal/obs"
)

// config is everything one run depends on.
type config struct {
	w          workload
	seed       int64
	traced     bool
	keys       uint64        // preloaded keys
	poolBytes  int64         // arena size per shard
	setups     int           // set-ups timed; the last one serves the load
	recoveries int           // crash-and-recover rounds timed
	warmup     time.Duration // unmeasured load before each measured run
	sliceDur   time.Duration
	slices     int // measured slices per run or round; figures are medians over them

	// Untraced runs only: the load alternates between the yardstick
	// (refSlices slices) and the real server (slices slices) rounds times,
	// then ends on the yardstick, so the yardstick brackets every real
	// round. Every switch is followed by settle of unmeasured load.
	rounds    int
	refSlices int
	settle    time.Duration
}

// defaultConfig measures for about the given seconds in half-second slices.
// An untraced invocation spends them in rounds of 1 yardstick and 2
// real-server slices, each load preceded by 0.1 s of settling. A
// traced invocation splits them between its untraced and decorated loads and
// sets up once, since it reports no setup_s.
func defaultConfig(w workload, seed int64, seconds int, traced bool) config {
	cfg := config{
		w: w, seed: seed, traced: traced,
		keys:       200_000,
		poolBytes:  64 << 20,
		setups:     3,
		recoveries: 9,
		warmup:     2 * time.Second,
		sliceDur:   time.Second / 2,
		slices:     2,
		refSlices:  1,
		settle:     time.Second / 10,
	}
	if traced {
		cfg.setups, cfg.slices = 1, max(seconds, 1)
		return cfg
	}
	round := time.Duration(cfg.slices+cfg.refSlices)*cfg.sliceDur + 2*cfg.settle
	cfg.rounds = max(int((time.Duration(seconds)*time.Second-cfg.warmup)/round), 1)
	return cfg
}

// result is one run's outcome.
type result struct {
	stamp     map[string]any
	e2e       metrics // end-to-end figures of the untraced run
	layers    metrics // per-layer figures (traced runs only)
	extra     metrics // figures of op kinds only some workloads have
	chain     [numOpKinds]chainLink
	attempted uint64
	failed    uint64
	firstErr  error
}

// chainLink is the mean time per request spent inside each layer boundary,
// in ns, from the traced run: the client's round trip contains the server's
// residence, which contains the router calls, which contain the engine calls.
type chainLink struct {
	reqs                              uint64
	client, residence, router, engine float64
}

func run(cfg config) (*result, error) {
	out := &result{stamp: stamp(cfg), e2e: metrics{}, layers: metrics{}, extra: metrics{}}
	var f *fleet
	var setups []time.Duration
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			f.stop()
			f = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		nf, d, err := newFleet(cfg.w, cfg.keys, cfg.poolBytes)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		f, setups = nf, append(setups, d)
	}
	defer f.stop()

	led := &ledger{}
	gens := newGenerators(cfg, led)
	snap := func() snapshot { return takeSnapshot(f) }
	if !cfg.traced {
		real, ref, err := runRounds(cfg, f, gens, led, snap)
		if err != nil {
			return nil, err
		}
		for _, res := range slices.Concat(real, ref) {
			out.note(res.attempted, res.failed, res.firstErr)
		}
		recs, err := recoveries(cfg, f)
		if err != nil {
			return nil, err
		}
		out.note(f.verify(led, cfg.keys, gens))
		out.extra.put("process.peak_rss_mib", peakRSSMiB(), "MiB")
		out.endToEnd(real, ref, setups, recs)
		return out, nil
	}

	plain, err := runLoad(f.addr, gens, led, cfg.warmup, cfg.sliceDur, cfg.slices, snap)
	if err != nil {
		return nil, fmt.Errorf("untraced load: %w", err)
	}
	out.note(plain.attempted, plain.failed, plain.firstErr)
	f.stop()
	if err := f.serve(true); err != nil {
		return nil, err
	}
	traced, err := runLoad(f.addr, gens, led, cfg.warmup, cfg.sliceDur, cfg.slices, snap)
	if err != nil {
		return nil, fmt.Errorf("traced load: %w", err)
	}
	out.note(traced.attempted, traced.failed, traced.firstErr)
	recs, err := recoveries(cfg, f)
	if err != nil {
		return nil, err
	}
	out.note(f.verify(led, cfg.keys, gens))
	out.extra.put("process.peak_rss_mib", peakRSSMiB(), "MiB")
	out.perLayer(cfg, plain, traced, recs)
	return out, nil
}

func newGenerators(cfg config, led *ledger) []*generator {
	gens := make([]*generator, numConns)
	for i := range gens {
		gens[i] = newGenerator(cfg.w, cfg.seed, i, cfg.keys, led)
	}
	return gens
}

// runRounds alternates the load between the yardstick and the real server,
// cfg.rounds times, and ends with one more yardstick load. The yardstick gets
// the same request streams through its own generators and ledger, and its
// replies are checked the same way. It returns each load's result: real[i]
// ran between ref[i] and ref[i+1].
func runRounds(cfg config, f *fleet, gens []*generator, led *ledger, snap func() snapshot) (real, ref []*loadResult, err error) {
	ys, err := newRefServer(cfg.keys)
	if err != nil {
		return nil, nil, fmt.Errorf("yardstick: %w", err)
	}
	defer ys.close()
	refLed := &ledger{}
	refGens := newGenerators(cfg, refLed)
	for i := 0; ; i++ {
		settle := cfg.settle
		if i == 0 {
			settle = cfg.warmup
		}
		res, err := runLoad(ys.addr(), refGens, refLed, settle, cfg.sliceDur, cfg.refSlices, snap)
		if res != nil {
			ref = append(ref, res)
		}
		if err != nil {
			return real, ref, fmt.Errorf("yardstick load: %w", err)
		}
		if i == cfg.rounds {
			return real, ref, nil
		}
		res, err = runLoad(f.addr, gens, led, settle, cfg.sliceDur, cfg.slices, snap)
		if res != nil {
			real = append(real, res)
		}
		if err != nil {
			return real, ref, fmt.Errorf("untraced load: %w", err)
		}
	}
}

// recoveries crashes and recovers the fleet cfg.recoveries times.
func recoveries(cfg config, f *fleet) ([]recovery, error) {
	var recs []recovery
	for i := 0; i < cfg.recoveries; i++ {
		runtime.GC()
		rec, err := f.crashAndRecover()
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func (r *result) note(attempted, failed uint64, err error) {
	r.attempted += attempted
	r.failed += failed
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// gatedIfGet returns gated for figures of gets, which every workload issues,
// and the report-only figures otherwise.
func (r *result) gatedIfGet(k opKind, gated metrics) metrics {
	if k == opGet {
		return gated
	}
	return r.extra
}

// endToEnd computes the end-to-end figures from the rounds of an untraced
// run. Throughput is gated as the median over rounds of the real server's
// throughput over the yardstick's around it. The raw figures, over all
// rounds, are printed in the report; README.md says why no latency is gated.
func (r *result) endToEnd(real, ref []*loadResult, setups []time.Duration, recs []recovery) {
	m := r.e2e
	res := concatRounds(real)
	m.put("ops_per_s_vs_ref", roundOpsRatio(real, ref), "ratio")
	r.extra.put("ops_per_s", opsPerSec(res), "1/s")
	r.extra.put("ref.ops_per_s", opsPerSec(concatRounds(ref)), "1/s")
	r.extra.put("get_mean_us", meanRTTus(res, opGet), "us")
	for k := opKind(0); k < numOpKinds; k++ {
		lat, ok := sliceLatencies(res, k)
		if !ok {
			continue
		}
		r.extra.put(opNames[k]+"_p50_us", lat.p50, "us")
		r.extra.put(opNames[k]+"_p99_us", lat.p99, "us")
		r.extra.put(opNames[k]+"_samples", float64(lat.samples), "count")
	}
	m.put("setup_s", durationsMedian(setups).Seconds(), "s")
	walls := make([]time.Duration, len(recs))
	for i, rec := range recs {
		walls[i] = rec.wall
	}
	m.put("recovery_s", durationsMedian(walls).Seconds(), "s")
	reg := res.after.reg
	var live float64
	for i := 0; i < numShards; i++ {
		live += reg.Get(obs.Series("memkv_shard_len", obs.ShardLabel(i)))
	}
	m.put("scm_bytes_per_user_byte", ratio(reg.Get("scm_pool_allocated_bytes"), live*(keyLen+valueLen)), "ratio")
	r.extra.put("error_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	b, a := res.before, res.after
	r.extra.put("host.steal_ratio", ratio(float64(a.stealTicks-b.stealTicks), float64(a.allTicks-b.allTicks)), "ratio")
}

func (r *result) perLayer(cfg config, plain, traced *loadResult, recs []recovery) {
	m, x := r.layers, r.extra
	d := plain.after.reg.Sub(plain.before.reg)
	t := plain.totals()
	reqs, keyOps := float64(t.reqs), float64(t.keyOps)

	// Protocol layer: server residence from the request histograms' exact
	// sum and count (never their power-of-two quantiles), and what the
	// client waited outside it.
	var resSum, resCount, rttSum float64
	for k := opKind(0); k < numOpKinds; k++ {
		h := "memkv_" + opNames[k] + "_latency_seconds"
		sum, count := d.Get(h+"_sum_ns"), d.Get(h+"_count")
		resSum, resCount, rttSum = resSum+sum, resCount+count, rttSum+float64(t.rttNs[k])
		r.gatedIfGet(k, m).put("kvserver."+opNames[k]+"_residence_us", ratio(sum, count)/1e3, "us")
	}
	m.put("kvserver.outside_us", (ratio(rttSum, reqs)-ratio(resSum, resCount))/1e3, "us")
	if plain.before.syscalls > 0 && plain.after.syscalls > 0 {
		server := float64(plain.after.syscalls-plain.before.syscalls) - float64(plain.clientCalls)
		m.put("kvserver.syscalls_per_op", ratio(server, reqs), "calls/req")
	}
	m.put("kvserver.bytes_in_per_op", ratio(d.Get("memkv_bytes_read_total"), reqs), "B/req")
	m.put("kvserver.bytes_out_per_op", ratio(d.Get("memkv_bytes_written_total"), reqs), "B/req")
	m.put("kvserver.errors", d.Get("memkv_store_errors_total")+d.Get("memkv_protocol_errors_total"), "count")

	// Go runtime, whole process (server and client; the client reuses its
	// buffers and allocates nothing per request).
	b, a := plain.before, plain.after
	m.put("runtime.allocs_per_op", ratio(float64(a.mallocs-b.mallocs), reqs), "allocs/req")
	m.put("runtime.alloc_bytes_per_op", ratio(float64(a.allocB-b.allocB), reqs), "B/req")
	m.put("runtime.gc_per_mop", ratio(float64(a.numGC-b.numGC)*1e6, reqs), "GC/Mreq")
	m.put("runtime.cpu_us_per_op", ratio(float64(a.cpuNs-b.cpuNs)/1e3, reqs), "us/req")

	// Engine and SCM counters: registry deltas of the untraced run, per
	// store call (a 10-key get is 10 calls).
	m.put("core.searches_per_op", ratio(d.Get("fptree_searches_total"), keyOps), "1/op")
	m.put("core.key_probes_per_search", d.Ratio("fptree_key_probes_total", "fptree_searches_total"), "1/search")
	m.put("core.fp_false_positive_ratio", d.Ratio("fptree_fingerprint_false_positives_total", "fptree_fingerprint_compares_total"), "ratio")
	m.put("core.leaf_splits_per_kop", ratio(d.Get("fptree_leaf_splits_total")*1e3, keyOps), "1/kop")
	misses, hits := d.Get("scm_read_misses_total"), d.Get("scm_read_hits_total")
	flushes := d.Get("scm_flushes_total")
	m.put("scm.read_misses_per_op", ratio(misses, keyOps), "1/op")
	m.put("scm.hit_ratio", ratio(hits, hits+misses), "ratio")
	m.put("scm.flushes_per_op", ratio(flushes, keyOps), "1/op")
	m.put("scm.fences_per_op", ratio(d.Get("scm_fences_total"), keyOps), "1/op")
	m.put("scm.allocs_per_op", ratio(d.Get("scm_allocs_total"), keyOps), "1/op")
	m.put("scm.frees_per_op", ratio(d.Get("scm_frees_total"), keyOps), "1/op")
	x.put("scm.write_amp", ratio(d.Get("scm_bytes_flushed_total"), float64(t.userBytes)), "ratio")
	lat := float64(cfg.w.Latency.Nanoseconds())
	m.put("scm.media_ns_per_op", ratio((misses+flushes)*lat, keyOps), "ns/op")
	m.put("htm.aborts_per_op", ratio(d.Get("htm_aborts_total"), keyOps), "1/op")
	m.put("htm.fallbacks_per_op", ratio(d.Get("htm_fallbacks_total"), keyOps), "1/op")
	m.put("htm.commit_ratio", ratio(keyOps, keyOps+d.Get("htm_restarts_total")), "ratio")

	// Router and engine self time from the decorated run.
	r.chain = chainOf(traced)
	td := traced.after.timing.sub(*traced.before.timing)
	var routerNs, routerCalls, shardNs float64
	shardCalls := make([]float64, len(td.shards))
	for k := opKind(0); k < numOpKinds; k++ {
		routerCalls += float64(td.router[k].calls)
		routerNs += float64(td.router[k].ns)
		var calls, ns float64
		for i, sh := range td.shards {
			calls += float64(sh[k].calls)
			ns += float64(sh[k].ns)
			shardCalls[i] += float64(sh[k].calls)
		}
		shardNs += ns
		r.gatedIfGet(k, m).put("core."+opNames[k]+"_ns", ratio(ns, calls), "ns")
	}
	m.put("kvserver.router_ns", ratio(routerNs-shardNs, routerCalls), "ns")
	m.put("kvserver.shard_skew", ratio(slices.Max(shardCalls)*float64(len(shardCalls)), routerCalls), "ratio")
	m.put("trace.overhead_ratio", ratio(opsPerSec(traced), opsPerSec(plain)), "ratio")

	var perLeaf []float64
	for _, rec := range recs {
		perLeaf = append(perLeaf, ratio(float64(rec.shardNs), float64(rec.leaves)))
	}
	m.put("core.recovery_leaves", float64(recs[len(recs)-1].leaves), "count")
	m.put("core.recovery_ns_per_leaf", median(perLeaf), "ns/leaf")
}

// chainOf gives, per op kind, the mean ns per request inside each layer
// boundary during a decorated run.
func chainOf(res *loadResult) [numOpKinds]chainLink {
	var c [numOpKinds]chainLink
	t := res.totals()
	d := res.after.reg.Sub(res.before.reg)
	td := res.after.timing.sub(*res.before.timing)
	for k := opKind(0); k < numOpKinds; k++ {
		n := float64(t.reqsBy[k])
		if n == 0 {
			continue
		}
		h := "memkv_" + opNames[k] + "_latency_seconds"
		var engine float64
		for _, sh := range td.shards {
			engine += float64(sh[k].ns)
		}
		c[k] = chainLink{
			reqs:      t.reqsBy[k],
			client:    float64(t.rttNs[k]) / n,
			residence: d.Ratio(h+"_sum_ns", h+"_count"),
			router:    ratio(float64(td.router[k].ns), d.Get(h+"_count")),
			engine:    ratio(engine, d.Get(h+"_count")),
		}
	}
	return c
}

// stamp records what the figures depend on.
func stamp(cfg config) map[string]any {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	host, _ := os.Hostname()
	return map[string]any{
		"rev": rev, "rev_modified": modified, "host": host,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seed": cfg.seed, "workload": cfg.w, "scm_mode": cfg.w.scmMode(),
		"conns": numConns, "shards": numShards, "keys": cfg.keys,
		"key_bytes": keyLen, "value_bytes": valueLen, "zipf_theta": zipfTheta,
		"slice_s": cfg.sliceDur.Seconds(), "slices": cfg.slices, "warmup_s": cfg.warmup.Seconds(),
		"setups": cfg.setups, "recoveries": cfg.recoveries, "traced": cfg.traced,
		"rounds": cfg.rounds, "ref_slices": cfg.refSlices, "settle_s": cfg.settle.Seconds(),
		"pool_bytes_per_shard": cfg.poolBytes,
	}
}

// final is the last line of the output.
type final struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// write prints the report and then the result line.
func (r *result) write(w io.Writer, traced bool) error {
	st, err := json.Marshal(r.stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stamp %s\n", st)
	section := func(title string, m metrics) {
		fmt.Fprintf(w, "%s:\n", title)
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			fmt.Fprintln(w, describe(n, m[n]))
		}
	}
	if !traced {
		section("end-to-end", r.e2e)
	} else {
		section("per-layer", r.layers)
		fmt.Fprintln(w, "per-request chain (traced run, ns): client >= residence >= router >= engine")
		for k, c := range r.chain {
			if c.reqs > 0 {
				fmt.Fprintf(w, "  %-6s %10.0f %10.0f %10.0f %10.0f  (%d requests)\n",
					opNames[k], c.client, c.residence, c.router, c.engine, c.reqs)
			}
		}
	}
	section("more figures (not in BENCHMARK.json)", r.extra)
	if r.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.firstErr)
	}
	m := r.e2e
	if traced {
		m = r.layers
	}
	line, err := json.Marshal(final{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	name := flag.String("workload", "", "read_zipf | multiget_cold | write_churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds, about (half-second slices)")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from an extra decorated run")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *traceFlag != 0 && *traceFlag != 1 {
		err = errors.New("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(defaultConfig(w, *seed, *seconds, *traceFlag == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}
