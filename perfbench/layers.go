package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"punt"
	"punt/internal/core"
	"punt/internal/resolve"
	"punt/internal/stategraph"
	"punt/internal/stg"
	"punt/internal/unfolding"
	"punt/internal/verify"
)

// The traced run replays the op sequence (on service, with spans around each
// request on every other round), then replays its first rounds once more
// layer by layer: it calls each module's public function directly on the
// op's input, so a layer's time is measured from outside, not read from the
// program's own stats.  Every round has the workload's mix, so a prefix of
// whole rounds has it too.  A layer the workload never reaches reports the
// work it did there: zero.

// layerInput is one input of the direct per-layer replay.
type layerInput struct {
	op   int
	text string
	opts []punt.Option
	// res, when set, is the input's known result: the replay then only
	// parses, keys and moves it through the codec and cache tiers (a warm
	// request does no more).
	res *punt.Result
	// verify runs closed-loop verification, directly and through the
	// facade: only where it is tractable.
	verify bool
}

// layerKit is the replay's own cache tiers; a nil kit skips the codec and
// cache layers.
type layerKit struct {
	lru  *punt.LRU
	disk *punt.DiskCache
}

func newLayerKit(dir string) (*layerKit, error) {
	disk, err := punt.NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	return &layerKit{lru: punt.NewLRU(16), disk: disk}, nil
}

// layerPass times every layer's public function on one input.
func layerPass(ctx context.Context, tr *tracer, kit *layerKit, in layerInput) error {
	root := tr.begin("layers", -1, in.op)
	defer tr.end(root)
	var spec *punt.Spec
	var err error
	tr.timed("stg.parse", root, in.op, func() { spec, err = punt.Parse(in.text) })
	if err != nil {
		return err
	}
	synth := punt.New(in.opts...)
	key := synth.CacheKey(spec)
	if in.res != nil {
		return codecAndCache(tr, kit, root, in.op, key, in.res, false)
	}
	// The unfolding and the core run on the specification the circuit
	// realises: the resolver's repaired one when it had to repair CSC.
	var res *punt.Result
	facadeMs := tr.timed("punt.synthesize", root, in.op, func() { res, err = synth.Synthesize(ctx, spec) })
	if err != nil {
		return err
	}
	if res.Resolved() {
		if err := resolveLayer(ctx, tr, root, in); err != nil {
			return err
		}
	}
	realised := res.Spec.Text()
	g, err := stg.ParseString(realised)
	if err != nil {
		return err
	}
	var u *unfolding.Unfolding
	tr.timed("unfolding.build", root, in.op, func() { u, err = unfolding.Build(ctx, g, unfolding.Options{}) })
	if err != nil {
		return err
	}
	tr.count("unfolding.events", float64(u.NumEvents()))
	tr.count("unfolding.cutoffs", float64(u.NumCutoffs()))
	if g, err = stg.ParseString(realised); err != nil {
		return err
	}
	var st *core.Stats
	var coreMs float64
	mb := allocMB(func() {
		coreMs = tr.timed("core.synth", root, in.op, func() { _, st, err = core.New(core.Options{}).Synthesize(ctx, g) })
	})
	if err != nil {
		return err
	}
	// The facade's own share, on ops it did not send through the resolver:
	// a repair would otherwise count as facade time.
	if !res.Resolved() {
		tr.count("punt.facade_ms", facadeMs-coreMs)
	}
	tr.count("core.alloc_mb", mb)
	tr.count("core.covers_ms", float64(st.SynTime)/1e6)
	tr.count("core.minimise_ms", float64(st.EspTime)/1e6)
	tr.count("core.terms_refined", float64(st.TermsRefined))
	if kit != nil {
		if err := codecAndCache(tr, kit, root, in.op, key, res, true); err != nil {
			return err
		}
	}
	if !in.verify {
		return nil
	}
	if g, err = stg.ParseString(realised); err != nil {
		return err
	}
	var rep *verify.Report
	var checkMs float64
	mb = allocMB(func() {
		checkMs = tr.timed("verify.check", root, in.op, func() { rep, err = verify.Verify(ctx, g, res.Impl, verify.Options{}) })
	})
	if err != nil {
		return err
	}
	tr.count("verify.alloc_mb", mb)
	tr.count("verify.composed_states", float64(rep.ComposedStates))
	tr.count("verify.composed_edges", float64(rep.ComposedEdges))
	tr.count("verify.clusters", float64(rep.Clusters))
	puntMs := tr.timed("punt.verify", root, in.op, func() { _, err = punt.Verify(ctx, res.Spec, res) })
	tr.count("punt.verify_overhead_ms", puntMs-checkMs)
	return err
}

// resolveLayer times the state graph and the resolver on the unrepaired
// specification.
func resolveLayer(ctx context.Context, tr *tracer, root int, in layerInput) error {
	g, err := stg.ParseString(in.text)
	if err != nil {
		return err
	}
	tr.timed("stategraph.build", root, in.op, func() { _, err = stategraph.Build(ctx, g, stategraph.Options{}) })
	if err != nil {
		return err
	}
	if g, err = stg.ParseString(in.text); err != nil {
		return err
	}
	var rep *resolve.Report
	tr.timed("resolve.resolve", root, in.op, func() { _, rep, err = resolve.Resolve(ctx, g, resolve.Options{}) })
	if err != nil {
		return err
	}
	tr.count("resolve.candidates_tried", float64(rep.CandidatesTried))
	tr.count("resolve.inserted", float64(len(rep.Inserted)))
	tr.count("resolve.states_reused", float64(rep.StatesReused))
	tr.count("resolve.full_rebuilds", float64(rep.FullRebuilds))
	return nil
}

// codecAndCache moves a result through the codec and the cache tiers; put
// stores it first (a cold result), otherwise the tiers already hold it.
func codecAndCache(tr *tracer, kit *layerKit, root, op int, key string, res *punt.Result, put bool) error {
	var blob []byte
	var err error
	tr.timed("punt.encode", root, op, func() { blob, err = punt.EncodeResult(res) })
	if err != nil {
		return err
	}
	tr.timed("punt.decode", root, op, func() { _, err = punt.DecodeResult(blob) })
	if err != nil {
		return err
	}
	if put {
		kit.lru.Put(key, res)
		tr.timed("cache.disk_put", root, op, func() { kit.disk.Put(key, res) })
	}
	var okL, okD bool
	tr.timed("cache.lru_get", root, op, func() { _, okL = kit.lru.Get(key) })
	tr.timed("cache.disk_get", root, op, func() { _, okD = kit.disk.Get(key) })
	if !okD {
		return fmt.Errorf("layer replay: disk tier lost %s", key)
	}
	_ = okL // a 16-entry LRU may have evicted the key; the lookup is still timed
	return nil
}

// samples is what a traced run gathered: span self times in milliseconds
// and counter samples, both by name.
type samples struct{ self, counts map[string][]float64 }

func (t *tracer) samples() samples { return samples{t.selfByName(), t.counts} }

// layerMetric is one per-layer metric and how the traced run derives it;
// value reports false, with a value of 0, when the run gathered no samples
// for it: the workload did no work in that layer.
type layerMetric struct {
	name, unit string
	value      func(samples) (float64, bool)
}

// spanMean is the mean self time of a span, scaled from milliseconds.
func spanMean(name string, scale float64) func(samples) (float64, bool) {
	return func(s samples) (float64, bool) { return mean(s.self[name]) * scale, len(s.self[name]) > 0 }
}

func spanMedian(name string) func(samples) (float64, bool) {
	return func(s samples) (float64, bool) { return median(s.self[name]), len(s.self[name]) > 0 }
}

func countMean(name string) func(samples) (float64, bool) {
	return func(s samples) (float64, bool) { return mean(s.counts[name]), len(s.counts[name]) > 0 }
}

func countSum(name string) func(samples) (float64, bool) {
	return func(s samples) (float64, bool) {
		sum := 0.0
		for _, x := range s.counts[name] {
			sum += x
		}
		return sum, len(s.counts[name]) > 0
	}
}

func ratio(num, den func(samples) (float64, bool)) func(samples) (float64, bool) {
	return func(s samples) (float64, bool) {
		n, okN := num(s)
		d, okD := den(s)
		if !okN || !okD || d == 0 {
			return 0, okN && okD
		}
		return n / d, true
	}
}

// layerMetrics is the per-layer catalogue, in BENCHMARK.json order.
var layerMetrics = []layerMetric{
	{"stg.parse_ms", "ms", spanMean("stg.parse", 1)},
	{"unfolding.build_ms", "ms", spanMean("unfolding.build", 1)},
	{"unfolding.events", "count", countMean("unfolding.events")},
	{"unfolding.cutoffs", "count", countMean("unfolding.cutoffs")},
	{"core.synth_ms", "ms", spanMean("core.synth", 1)},
	{"core.covers_ms", "ms", countMean("core.covers_ms")},
	{"core.minimise_ms", "ms", countMean("core.minimise_ms")},
	{"core.terms_refined", "count", countMean("core.terms_refined")},
	{"core.alloc_mb", "MB", countMean("core.alloc_mb")},
	{"punt.facade_ms", "ms", countMean("punt.facade_ms")},
	{"punt.verify_overhead_ms", "ms", countMean("punt.verify_overhead_ms")},
	{"verify.check_ms", "ms", spanMean("verify.check", 1)},
	{"verify.composed_states", "count", countMean("verify.composed_states")},
	{"verify.composed_edges", "count", countMean("verify.composed_edges")},
	{"verify.clusters", "count", countMean("verify.clusters")},
	{"verify.states_per_ms", "1/ms", ratio(countMean("verify.composed_states"), spanMean("verify.check", 1))},
	{"verify.alloc_mb", "MB", countMean("verify.alloc_mb")},
	{"server.warm_ms_p50", "ms", spanMedian("server.warm")},
	{"server.cold_ms_p50", "ms", spanMedian("server.cold")},
	{"server.warm_hits", "count", countSum("server.warm_hits")},
	{"server.syntheses", "count", countSum("server.syntheses")},
	{"server.joined", "count", countSum("server.joined")},
	{"server.rejected", "count", countSum("server.rejected")},
	{"server.errors", "count", countSum("server.errors")},
	{"cache.l1_hit_frac", "fraction", countMean("cache.l1_hit_frac")},
	{"cache.l2_hit_frac", "fraction", countMean("cache.l2_hit_frac")},
	{"cache.lru_get_us", "us", spanMean("cache.lru_get", 1e3)},
	{"cache.disk_get_us", "us", spanMean("cache.disk_get", 1e3)},
	{"cache.disk_put_us", "us", spanMean("cache.disk_put", 1e3)},
	{"punt.encode_us", "us", spanMean("punt.encode", 1e3)},
	{"punt.decode_us", "us", spanMean("punt.decode", 1e3)},
	{"resolve.resolve_ms", "ms", spanMean("resolve.resolve", 1)},
	{"resolve.candidates_tried", "count", countMean("resolve.candidates_tried")},
	{"resolve.accept_frac", "fraction", ratio(countSum("resolve.inserted"), countSum("resolve.candidates_tried"))},
	{"resolve.states_reused", "count", countMean("resolve.states_reused")},
	{"resolve.full_rebuilds", "count", countMean("resolve.full_rebuilds")},
	{"stategraph.build_ms", "ms", spanMean("stategraph.build", 1)},
	{"runtime.alloc_mb_per_op", "MB", countMean("runtime.alloc_mb_per_op")},
	{"runtime.gc_cycles_per_op", "count", countMean("runtime.gc_cycles_per_op")},
	{"trace.overhead_pct", "%", countMean("trace.overhead_pct")},
}

func runTraced(w *workload, seed int64, rounds int, dir string, meta map[string]any) (*result, error) {
	e, err := w.setup(seed, rounds, dir)
	if err != nil {
		return nil, fmt.Errorf("setting up %s: %w", w.name, err)
	}
	defer e.close()
	// One replay of the timed window, with spans on every other round where
	// the workload has span metrics: the untraced rounds are the baseline of
	// the tracing overhead.  Then the direct per-layer replay.
	tr := newTracer()
	var windowTracer *tracer
	if w.windowSpans {
		windowTracer = tr
	}
	runtime.GC()
	win := replay(e, windowTracer, w.roundOps)
	v, err := judge(e, win)
	if err != nil {
		return nil, err
	}
	finishErr := e.finish(meta)
	n := float64(len(win.outcomes))
	tr.count("runtime.alloc_mb_per_op", float64(win.allocBytes)/(1<<20)/n)
	tr.count("runtime.gc_cycles_per_op", float64(win.gcCycles)/n)
	overhead := 0.0 // a window without spans has no tracing overhead
	if windowTracer != nil {
		var plain, traced []float64
		for i, o := range win.outcomes {
			if (i/w.roundOps)%2 == 1 {
				traced = append(traced, float64(o.lat))
			} else {
				plain = append(plain, float64(o.lat))
			}
		}
		overhead = 100 * (mean(traced)/mean(plain) - 1)
	}
	tr.count("trace.overhead_pct", overhead)
	layersStart := time.Now()
	onWindowProcs(func() { err = e.layers(tr, min(e.ops(), w.layerRounds*w.roundOps)) })
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	if err := tr.write(traceFile(dir, w.name, seed)); err != nil {
		return nil, err
	}
	metrics := map[string]metric{}
	notExercised := []string{}
	got := tr.samples()
	for _, m := range layerMetrics {
		v, ok := m.value(got)
		if !ok {
			notExercised = append(notExercised, m.name)
		}
		metrics[m.name] = metric{v, m.unit}
	}
	meta["layer_replay_s"] = time.Since(layersStart).Seconds()
	meta["not_exercised"] = notExercised
	meta["ops"] = int(n)
	meta["sequence_sha256"] = e.digest()
	meta["window_s"] = win.wall.Seconds()
	if finishErr != nil {
		meta["finish_error"] = finishErr.Error()
	}
	return &result{
		Correct:   v.failed == 0 && finishErr == nil,
		Attempted: int(n),
		Failed:    v.failed,
		Metrics:   metrics,
	}, nil
}
