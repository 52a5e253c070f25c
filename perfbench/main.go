// Command perfbench is the repository's end-to-end benchmark: one
// paper-shaped campaign workload per run, driven through the public
// entry points (core.NewAssessment over each Source, and the assessd
// service's Manager, Handler and Client), timed, checked and reported as
// one JSON line. Run it from the repository root through run.py:
//
//	python3 perfbench/run.py --workload paper-direct --seed 1 --seconds 15 --trace 0
//
// With --trace 1 the run also executes the workload through tracing
// decorators and reports per-layer metrics instead of end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/calib"
	"repro/internal/silicon"
)

// stateRoot holds the benchmark's scratch files, traces and digest
// memory, inside the build directory of the checkout it runs in.
const stateRoot = ".bench_build/perfbench"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>:", err)
		return 2
	}
	exp, err := loadExpected("perfbench/expected.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	store, err := newDigestStore(filepath.Join(stateRoot, "digests"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if runtime.NumCPU() > benchWorkers {
		runtime.GOMAXPROCS(benchWorkers)
	}
	rep := execute(context.Background(), w, options{
		seed: *seed, seconds: *seconds, trace: *trace == 1, expected: exp, store: store,
	})
	rep.print(stdout)
	if rep.fatal != nil {
		fmt.Fprintln(stderr, "perfbench:", rep.fatal)
		return 1
	}
	return 0
}

type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	expected expected
	store    digestStore
}

// campaignSeed derives the campaign seed the program under test receives
// from the workload seed and name.
func campaignSeed(seed uint64, workload string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, workload)
	x := seed ^ h.Sum64()
	// splitmix64 finaliser
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

type metric struct {
	name, unit string
	value      float64
}

type report struct {
	attempted int
	failed    int
	problems  []string
	lines     []string // human-readable notes printed before the metrics
	metrics   []metric
	fatal     error
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	failed := r.failed
	if len(r.problems) > 0 && failed == 0 {
		failed = attempted
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, ms})
	fmt.Fprintln(w, string(out))
}

// campaignStat is one campaign's measurement and check outcome.
type campaignStat struct {
	wall   time.Duration
	cpu    time.Duration
	peak   uint64
	meas   int64
	digest string
	err    error
}

// execute runs one workload: untimed profile warm-up, timed set-ups,
// then campaigns back to back for the run's seconds, each checked
// outside its timed region.
func execute(ctx context.Context, w *workload, o options) *report {
	rep := &report{}
	seed := campaignSeed(o.seed, w.name)
	dir := filepath.Join(stateRoot, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		rep.fatal = err
		rep.fail("%v", err)
		return rep
	}
	defer os.RemoveAll(dir)

	// Resolving a profile the first time in a process reads (or, in a
	// fresh temp directory, computes) the disk-cached calibration; timed
	// set-ups start with that cache warm.
	for _, p := range w.profiles {
		if _, err := silicon.Lookup(p); err != nil {
			rep.fatal = err
			rep.fail("resolving profile %s: %v", p, err)
			return rep
		}
	}

	var tr *tracer
	var coldCalib time.Duration
	// Set-up repeats at least minSetups times, and while the set-ups so
	// far took under a second, so that cheap set-ups report the median
	// of many.
	minSetups, maxSetups := 3, 100
	if o.trace {
		tr = newTracer()
		t0 := time.Now()
		if _, err := calib.Calibrate(calib.PaperTargets(), paperWindow, paperDevices); err != nil {
			rep.fail("cold calibration: %v", err)
		}
		coldCalib = time.Since(t0)
		minSetups, maxSetups = 1, 1
	}

	var setups []float64
	var setupTotal float64
	var inst instance
	for i := 0; i < minSetups || (setupTotal < 1 && i < maxSetups); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				rep.fail("closing set-up %d: %v", i, err)
			}
		}
		t0 := time.Now()
		var err error
		inst, err = w.prepare(ctx, w, dir, seed, tr)
		setups = append(setups, time.Since(t0).Seconds())
		setupTotal += setups[i]
		if err != nil {
			rep.attempted, rep.failed = 1, 1
			rep.fatal = fmt.Errorf("set-up: %w", err)
			rep.fail("set-up: %v", err)
			return rep
		}
	}
	defer func() {
		if err := inst.close(); err != nil {
			rep.fail("closing: %v", err)
		}
	}()

	if !o.trace {
		stats := phase(ctx, w, inst, nil, o.seconds, rep)
		checkDigests(w, o, stats, rep)
		reportEndToEnd(rep, setups, stats)
		return rep
	}
	setupTot := tr.tot
	tr.tot = layerTotals{}
	untraced := phase(ctx, w, inst, nil, o.seconds/2, rep)
	traced := phase(ctx, w, inst, tr, o.seconds/2, rep)
	checkDigests(w, o, append(untraced, traced...), rep)
	reportLayers(rep, w, tr, setupTot, coldCalib, untraced, traced)
	path := filepath.Join(stateRoot, "traces", fmt.Sprintf("%s-seed%d-%d.jsonl", w.name, o.seed, os.Getpid()))
	if err := tr.write(path); err != nil {
		rep.fail("writing trace: %v", err)
	} else {
		rep.lines = append(rep.lines, "spans written to "+path)
	}
	return rep
}

// phase runs campaigns until the next one would end past budget seconds
// (at least one), stopping at the first failure.
func phase(ctx context.Context, w *workload, inst instance, tr *tracer, budget float64, rep *report) []campaignStat {
	start := time.Now()
	var out []campaignStat
	for {
		st := runCampaign(ctx, w, inst, tr)
		out = append(out, st)
		rep.attempted++
		if st.err != nil {
			rep.failed++
			rep.fail("campaign %d: %v", rep.attempted, st.err)
			return out
		}
		if time.Since(start).Seconds()+st.wall.Seconds() > budget {
			return out
		}
	}
}

// runCampaign times one campaign (wall, CPU, peak heap) from a collected
// heap, then checks its results untimed.
func runCampaign(ctx context.Context, w *workload, inst instance, tr *tracer) campaignStat {
	runtime.GC()
	heap := startHeapSampler()
	var gc0, alloc0 uint64
	if tr != nil {
		tr.startCampaign(w.name)
		gc0, alloc0 = runtimeCounters()
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	res, err := inst.campaign(ctx, tr)
	st := campaignStat{wall: time.Since(t0), cpu: cpuTime() - cpu0, peak: heap.finish()}
	if tr != nil {
		gc1, alloc1 := runtimeCounters()
		tr.endCampaign()
		tr.add(func(l *layerTotals) { l.gcCycles += int64(gc1 - gc0); l.allocBytes += int64(alloc1 - alloc0) })
	}
	if err != nil {
		st.err = err
		return st
	}
	st.meas = w.shape.measurements(res)
	if st.digest, err = digest(res); err == nil {
		err = inst.check(ctx, res)
	}
	st.err = err
	return st
}

// checkDigests requires every campaign of the run to produce one digest,
// equal to the recorded one for the default seed and to what earlier
// runs of this build recorded for this seed.
func checkDigests(w *workload, o options, stats []campaignStat, rep *report) {
	var first string
	for i, st := range stats {
		if st.err != nil {
			continue
		}
		if first == "" {
			first = st.digest
		} else if st.digest != first {
			rep.failed++
			rep.fail("campaign %d digest %s differs from the run's first %s", i+1, st.digest, first)
		}
	}
	if first == "" {
		return
	}
	rep.lines = append(rep.lines, fmt.Sprintf("digest %s seed %d: %s", w.name, o.seed, first))
	if o.seed == o.expected.DefaultSeed {
		if want := o.expected.Digests[w.name]; want != first {
			rep.fail("digest %s for the default seed, expected.json records %q", first, want)
		}
	}
	if err := o.store.check(w.name, o.seed, first); err != nil {
		rep.fail("%v", err)
	}
}

func reportEndToEnd(rep *report, setups []float64, stats []campaignStat) {
	var rate, cpu, heap []float64
	for i, st := range stats {
		if st.err != nil || st.meas == 0 {
			continue
		}
		rate = append(rate, float64(st.meas)/st.wall.Seconds())
		cpu = append(cpu, float64(st.cpu.Microseconds())/float64(st.meas))
		heap = append(heap, float64(st.peak)/(1<<20))
		rep.lines = append(rep.lines, fmt.Sprintf("campaign %d: %d measurements in %.3f s, %.0f/s, %.2f us CPU each, peak live heap %.1f MB",
			i+1, st.meas, st.wall.Seconds(), rate[len(rate)-1], cpu[len(cpu)-1], heap[len(heap)-1]))
	}
	rep.lines = append(rep.lines, fmt.Sprintf("%d set-ups, %d campaigns (%d measured); calibration cache warm for set-up",
		len(setups), len(stats), len(rate)))
	if len(rate) == 0 {
		return
	}
	rep.add("setup_s", "s", median(setups))
	rep.add("measurements_per_s", "1/s", median(rate))
	rep.add("cpu_us_per_meas", "us", median(cpu))
	rep.add("peak_heap_mb", "MB", median(heap))
}

// reportLayers turns the traced totals into per-layer metrics, per
// traced campaign except for the set-up layers, and prints each busy
// layer's share.
func reportLayers(rep *report, w *workload, tr *tracer, setup layerTotals, cold time.Duration, untraced, traced []campaignStat) {
	n := float64(len(traced))
	t := tr.tot
	sec := func(ns int64) float64 { return float64(ns) / 1e9 / n }
	per := func(v int64) float64 { return float64(v) / n }
	mean := func(ns, count int64) float64 {
		if count == 0 {
			return 0
		}
		return float64(ns) / float64(count)
	}
	var rebuild, evaluate int64
	if w.lazy {
		rebuild = int64(w.shape.workers)*t.measureNs - t.accNs - t.sampleNs
	}
	if t.measureNs > 0 {
		evaluate = t.monthNs - t.measureNs
	}
	rep.add("sram.age_busy_s", "s", sec(t.ageNs))
	rep.add("sram.sample_busy_s", "s", sec(t.sampleNs))
	rep.add("sram.sample_ns", "ns", mean(t.sampleNs, t.samples))
	rep.add("core.lazy_rebuild_busy_s", "s", sec(rebuild))
	rep.add("core.measure_s", "s", sec(t.measureNs))
	rep.add("core.evaluate_s", "s", sec(evaluate))
	rep.add("core.prune_s", "s", sec(t.pruneNs))
	rep.add("core.device_months", "count", per(t.deviceMonth))
	rep.add("stream.accumulate_busy_s", "s", sec(t.accNs))
	rep.add("stream.accumulate_ns", "ns", mean(t.accNs, t.adds))
	rep.add("stream.adds", "count", per(t.adds))
	rep.add("store.open_s", "s", float64(setup.openNs)/1e9)
	rep.add("store.decode_busy_s", "s", sec(t.decodeNs))
	rep.add("store.bytes_read", "bytes", per(t.bytesRead))
	rep.add("store.write_s", "s", float64(setup.writeNs)/1e9)
	rep.add("store.bytes_written", "bytes", float64(setup.bytesWrite))
	rep.add("serve.submit_s", "s", sec(t.submitNs))
	rep.add("serve.ndjson_bytes", "bytes", per(t.ndjsonBytes))
	rep.add("serve.events", "count", per(t.events))
	rep.add("serve.checkpoint_bytes", "bytes", per(t.ckptBytes))
	rep.add("calib.cold_s", "s", cold.Seconds())
	rep.add("runtime.gc_cycles", "count", per(t.gcCycles))
	rep.add("runtime.alloc_mb", "MB", per(t.allocBytes)/(1<<20))

	wall := func(stats []campaignStat) float64 {
		var xs []float64
		for _, st := range stats {
			xs = append(xs, st.wall.Seconds())
		}
		return median(xs)
	}
	overhead := 0.0
	if u := wall(untraced); u > 0 {
		overhead = (wall(traced)/u - 1) * 100
	}
	rep.add("trace.overhead_pct", "%", overhead)
	rep.add("trace.spans", "count", float64(len(tr.spans)))

	busy := []struct {
		name string
		ns   int64
	}{
		{"sram.age", t.ageNs}, {"sram.sample", t.sampleNs}, {"core.lazy_rebuild", rebuild},
		{"stream.accumulate", t.accNs}, {"store.decode", t.decodeNs}, {"core.evaluate", evaluate},
		{"core.prune", t.pruneNs},
	}
	var total int64
	largest := 0
	for i, b := range busy {
		total += b.ns
		if b.ns > busy[largest].ns {
			largest = i
		}
	}
	rep.lines = append(rep.lines, fmt.Sprintf("traced %d campaign(s) against %d untraced; per-layer values are per traced campaign",
		len(traced), len(untraced)))
	if total > 0 {
		for _, b := range busy {
			rep.lines = append(rep.lines, fmt.Sprintf("layer share %-20s %6.1f%%", b.name, 100*float64(b.ns)/float64(total)))
		}
		rep.lines = append(rep.lines, "largest layer: "+busy[largest].name)
	}
}
