package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"time"

	"commute/internal/analysis/extent"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/nativert"
	"commute/rtkit"
)

// Layer probes of the traced run. Only this file reaches internal
// packages: it splits the facade's Load into the frontend, analysis and
// codegen stages so each gets its own span.

const probePasses = 3

// probeCompile compiles fresh variants of the compile corpus stage by
// stage.
func probeCompile(e *env, tr *tracer, lm layerMetrics) error {
	progs := compilePrograms()
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	stage := map[string][]float64{}
	var analysisMB, emitKB, retained []float64
	var counts map[string]float64
	for pass := 0; pass < probePasses; pass++ {
		tag := variantTag(e.seed, "probe-compile", pass)
		live0 := heapLive()
		passMS := map[string]float64{}
		var aMB, eKB float64
		c := map[string]float64{}
		root := tr.begin("compile.pass", -1, pass)
		for _, p := range progs {
			timed := func(name string, f func() error) error {
				id := tr.begin(name, root, pass)
				t0 := time.Now()
				err := f()
				passMS[name] += float64(time.Since(t0)) / float64(time.Millisecond)
				tr.end(id)
				return err
			}
			src := renameSource(p.source, tag)
			var prog *types.Program
			var an *core.Analysis
			var reports []*core.MethodReport
			var plan *codegen.Plan
			var file *ast.File
			err := timed("frontend.parse", func() (err error) {
				file, err = parser.Parse(p.name, src)
				return err
			})
			if err == nil {
				err = timed("frontend.check", func() (err error) {
					prog, err = types.Check(file)
					return err
				})
			}
			if err != nil {
				tr.end(root)
				return fmt.Errorf("%s: %w", p.key, err)
			}
			metrics.Read(allocs)
			a0 := allocs[0].Value.Uint64()
			an = core.New(prog)
			var methods []*types.Method
			for _, m := range prog.Methods {
				if m.Def != nil {
					methods = append(methods, m)
				}
			}
			timed("analysis.effects", func() error {
				for _, m := range methods {
					an.Eff.TransitiveEffects(m)
				}
				return nil
			})
			timed("analysis.extent", func() error {
				for _, m := range methods {
					extent.Compute(an.Eff, m, extent.Constants(an.Eff, m))
				}
				return nil
			})
			timed("analysis.pairs", func() error {
				reports = an.AnalyzeAll()
				return nil
			})
			metrics.Read(allocs)
			aMB += float64(allocs[0].Value.Uint64()-a0) / (1 << 20)
			timed("codegen.plan", func() error {
				plan = codegen.Build(an)
				codegen.BuildWithOptions(an, codegen.Options{SpeculateRejected: true})
				codegen.BuildWithOptions(an, codegen.Options{ConditionalGuards: true, SpeculateRejected: true})
				return nil
			})
			var files map[string][]byte
			err = timed("codegen.emit", func() (err error) {
				files, err = plan.EmitGoPackage(codegen.EmitGoOptions{})
				return err
			})
			if err != nil {
				tr.end(root)
				return fmt.Errorf("%s: %w", p.key, err)
			}
			for _, b := range files {
				eKB += float64(len(b)) / 1024
			}
			got := map[string]string{}
			for _, r := range reports {
				got[r.Method.FullName()] = outcome(r.Parallel, r.ConditionalEligible, r.SpeculationEligible)
				c["analysis.symbolic_pairs"] += float64(r.SymbolicPairs)
				c["analysis.independent_pairs"] += float64(r.IndependentPairs)
				switch got[r.Method.FullName()] {
				case "parallel":
					c["analysis.extents_parallel"]++
				case "guarded":
					c["analysis.extents_guarded"]++
				case "speculative":
					c["analysis.extents_speculative"]++
				}
			}
			if err := p.checkVerdicts(got, tag); err != nil {
				tr.end(root)
				return err
			}
		}
		tr.end(root)
		// The pass's systems are garbage now; what stays live is what
		// the process-wide analysis tables kept.
		retained = append(retained, (heapLive()-live0)/float64(len(progs)))
		for k, v := range passMS {
			stage[k] = append(stage[k], v)
		}
		analysisMB = append(analysisMB, aMB)
		emitKB = append(emitKB, eKB)
		counts = c
	}
	for _, k := range []string{"frontend.parse", "frontend.check", "analysis.effects", "analysis.extent", "analysis.pairs", "codegen.plan", "codegen.emit"} {
		lm.set(k+"_ms", "ms", median(stage[k]))
	}
	lm.set("analysis.alloc_mb", "MB", median(analysisMB))
	lm.set("analysis.retained_mb", "MB", median(retained))
	lm.set("codegen.emit_kb", "KB", median(emitKB))
	for k, v := range counts {
		lm.set(k, "count", v)
	}
	return nil
}

// probeInterp times each run program serially and in parallel and sums
// one parallel pass's runtime counters.
func probeInterp(e *env, tr *tracer, lm layerMetrics) error {
	totals := map[string]int64{}
	for _, p := range runPrograms() {
		l, err := load(p, variantTag(e.seed, "probe-interp", 0), e.nproc)
		if err != nil {
			return err
		}
		serial, err := timeMedian(5, func() error {
			id := tr.begin("interp."+p.key+"_serial", -1, 0)
			defer tr.end(id)
			out, err := l.runSerial()
			if err == nil {
				err = p.checkOutput(out, "")
			}
			return err
		})
		if err != nil {
			return err
		}
		var ctrs map[string]int64
		par, err := timeMedian(5, func() error {
			id := tr.begin("rt."+p.key+"_parallel", -1, 0)
			defer tr.end(id)
			out, c, err := l.runParallel(context.Background())
			if err == nil {
				err = p.checkOutput(out, "")
			}
			if err == nil {
				err = p.checkCounters(c)
			}
			ctrs = c
			return err
		})
		if err != nil {
			return err
		}
		l.sys.Release()
		lm.set("interp."+p.key+"_serial_ms", "ms", serial)
		lm.set("rt."+p.key+"_parallel_ms", "ms", par)
		for k, v := range ctrs {
			totals[k] += v
		}
	}
	for k, v := range totals {
		lm.set("rt."+k, "count", float64(v))
	}
	return nil
}

// probeMicro times the runtime constructs through rtkit's and
// nativert's public API: the measured counterpart of the construct
// overheads in the paper's Table 5.
func probeMicro(e *env, tr *tracer, lm layerMetrics) error {
	id := tr.begin("rtkit.spawn_wait", -1, 0)
	pool := rtkit.NewPool(e.nproc, rtkit.Stealing, rtkit.Hooks{})
	spawn, _ := timeMedian(2000, func() error {
		for i := 0; i < e.nproc; i++ {
			pool.Spawn(pool.External(), "micro", func(*rtkit.Worker) {})
		}
		pool.Drain()
		return nil
	})
	pool.Wait()
	tr.end(id)
	lm.set("rtkit.spawn_wait_us", "us", spawn*1000)

	id = tr.begin("nativert.gss_loop", -1, 0)
	sink := make([]int64, 1024)
	gss, _ := timeMedian(500, func() error {
		nativert.GSS("micro", "loop", e.nproc, 0, int64(len(sink)), 1, func() func(int64) {
			return func(i int64) { sink[i]++ }
		})
		return nil
	})
	tr.end(id)
	lm.set("nativert.gss_loop_us", "us", gss*1000)

	const locs = 4096
	cells := make([]int64, locs)
	rw := map[string]bool{"cell.val": true}
	id = tr.begin("nativert.journal", -1, 0)
	load, _ := timeMedian(50, func() error {
		j := nativert.NewSpecRegion(rw, rw).NewJournal()
		for i := range cells {
			nativert.SpecLoad(j, &cells[i], "cell.val")
		}
		return nil
	})
	store, _ := timeMedian(50, func() error {
		j := nativert.NewSpecRegion(rw, rw).NewJournal()
		for i := range cells {
			nativert.SpecStore(j, &cells[i], int64(i), "cell.val")
		}
		return nil
	})
	var commits []float64
	for rep := 0; rep < 200; rep++ {
		sr := nativert.NewSpecRegion(rw, rw)
		per := 256
		for w := 0; w < e.nproc; w++ {
			j := sr.NewJournal()
			for i := w * per; i < (w+1)*per; i++ {
				nativert.SpecStore(j, &cells[i], int64(rep), "cell.val")
			}
		}
		t0 := time.Now()
		ok := sr.Commit()
		commits = append(commits, float64(time.Since(t0))/float64(time.Microsecond))
		if !ok {
			tr.end(id)
			return fmt.Errorf("disjoint journals failed to commit")
		}
	}
	tr.end(id)
	lm.set("nativert.journal_load_ns", "ns", load*1e6/locs)
	lm.set("nativert.journal_store_ns", "ns", store*1e6/locs)
	lm.set("nativert.journal_commit_us", "us", median(commits))
	return nil
}

// probeNative builds the run-native programs (and an empty program for
// the exec floor) and times their serial and parallel runs.
func probeNative(e *env, tr *tracer, lm layerMetrics) error {
	ps := nativePrograms()
	tag := variantTag(e.seed, "probe-native", 0)
	// Warm the build cache first, as the run-native set-up does.
	if _, err := buildNative(e, ps[0], variantTag(e.seed, "probe-native-warm", 0), "probe-warm"); err != nil {
		return err
	}
	id := tr.begin("native.build", -1, 0)
	t0 := time.Now()
	var bins []*nativeBin
	for _, p := range ps {
		path, err := buildNative(e, p, tag, "probe")
		if err != nil {
			tr.end(id)
			return err
		}
		bins = append(bins, &nativeBin{program: p, path: path})
	}
	lm.set("native.build_s", "s", time.Since(t0).Seconds())
	tr.end(id)

	empty := &program{key: "empty", name: "empty.mc", source: "void main() {\n}\n"}
	path, err := buildNative(e, empty, "", "probe")
	if err != nil {
		return err
	}
	floor := &nativeBin{program: empty, path: path}
	ms, err := timeMedian(20, func() error {
		id := tr.begin("native.exec_floor", -1, 0)
		defer tr.end(id)
		_, _, _, err := floor.exec()
		return err
	})
	if err != nil {
		return err
	}
	lm.set("native.exec_floor_ms", "ms", ms)
	for _, b := range bins {
		for _, mode := range []string{"serial", "parallel"} {
			ms, err := timeMedian(5, func() error {
				id := tr.begin("native."+b.key+"_"+mode, -1, 0)
				defer tr.end(id)
				out, c, _, err := b.exec(b.args(e.nproc, mode)...)
				if err == nil {
					err = b.checkOutput(out, "")
				}
				if err == nil && mode == "parallel" {
					err = b.checkCounters(c)
				}
				return err
			})
			if err != nil {
				return err
			}
			lm.set("native."+b.key+"_"+mode+"_ms", "ms", ms)
		}
	}
	return nil
}

// probeServe starts a fleet and times each serving path directly
// against a replica, the router's forwarding cost, and then reads the
// replicas' counters after a short closed-loop session stream.
func probeServe(e *env, tr *tracer, lm layerMetrics) error {
	f, err := startFleet(e, filepath.Join(e.out, "probe-serve"))
	if err != nil {
		return err
	}
	defer f.stop()
	ps := servePrograms()
	bh := ps[0]
	analyze := func(base, tag string) error {
		var a analyzeResp
		return f.post(base, "/v1/analyze", analyzeReq{sourceReq{bh.name, renameSource(bh.source, tag)}}, &a)
	}
	a, b := f.replicas[0], f.replicas[1]
	n := 0
	fresh := func() string { n++; return variantTag(e.seed, "probe-serve", n) }
	timed := func(name string, reps int, f func() error) (float64, error) {
		return timeMedian(reps, func() error {
			id := tr.begin(name, -1, 0)
			defer tr.end(id)
			return f()
		})
	}
	cold, err := timed("server.analyze_cold", 5, func() error { return analyze(a, fresh()) })
	if err != nil {
		return err
	}
	// Adopt: a cold load on one replica publishes the artifact; the
	// other replica's analyze of the same program adopts it.
	var adopts []float64
	for i := 0; i < 5; i++ {
		tag := fresh()
		if err := analyze(a, tag); err != nil {
			return err
		}
		ms, err := timed("server.analyze_adopt", 1, func() error { return analyze(b, tag) })
		if err != nil {
			return err
		}
		adopts = append(adopts, ms)
	}
	warm := fresh()
	if err := analyze(a, warm); err != nil {
		return err
	}
	hit, err := timed("server.analyze_hit", 50, func() error { return analyze(a, warm) })
	if err != nil {
		return err
	}
	// The router sends warm's key to its owner, which may be either
	// replica; warm it there too, then compare like with like.
	if err := analyze(f.router, warm); err != nil {
		return err
	}
	routed, err := timed("fleet.analyze_hit_routed", 50, func() error { return analyze(f.router, warm) })
	if err != nil {
		return err
	}
	var runs []float64
	for _, p := range ps {
		serial, err := oracle(p)
		if err != nil {
			return err
		}
		check, err := f.session(nil, 0, a, p, warm, e.nproc, serial)
		if err == nil {
			err = check()
		}
		if err != nil {
			return err
		}
		ms, err := timed("server.run", 5, func() error {
			var r runResp
			return f.post(a, "/v1/run", runReq{sourceReq: sourceReq{p.name, renameSource(p.source, warm)}, Mode: "parallel",
				Workers: e.nproc, Speculate: p.speculate, Conditional: p.conditional}, &r)
		})
		if err != nil {
			return err
		}
		runs = append(runs, ms)
	}
	lm.set("server.analyze_cold_ms", "ms", cold)
	lm.set("server.analyze_adopt_ms", "ms", median(adopts))
	lm.set("server.analyze_hit_ms", "ms", hit)
	lm.set("server.run_ms", "ms", median(runs))
	lm.set("fleet.route_overhead_us", "us", (routed-hit)*1000)

	// Counters: a short seeded session stream through the router.
	in := &serveInst{e: e, f: f, progs: ps, warm: warm}
	for _, p := range ps {
		s, _ := oracle(p)
		in.serial = append(in.serial, s)
	}
	s := run(&workload{name: "serve-probe"}, e.nproc, in, 2*time.Second)
	if s.firstErr != nil {
		return s.firstErr
	}
	var tot statusz
	for _, r := range f.replicas {
		var st statusz
		if err := f.get(r, "/statusz", &st); err != nil {
			return err
		}
		tot.CacheHits += st.CacheHits
		tot.CacheMisses += st.CacheMisses
		tot.CacheAdoptions += st.CacheAdoptions
		tot.CacheEvictions += st.CacheEvictions
		tot.BatchCoalesced += st.BatchCoalesced
		tot.Rejected += st.Rejected
	}
	lm.set("cache.hits", "count", float64(tot.CacheHits))
	lm.set("cache.misses", "count", float64(tot.CacheMisses))
	lm.set("cache.adoptions", "count", float64(tot.CacheAdoptions))
	lm.set("cache.evictions", "count", float64(tot.CacheEvictions))
	lm.set("server.coalesced", "count", float64(tot.BatchCoalesced))
	lm.set("server.shed", "count", float64(tot.Rejected))
	return nil
}
