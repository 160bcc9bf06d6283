// Command perfbench is the repository's benchmark: it runs one named
// workload against the compiler, the compiled interpreter engine, the
// native Go backend or the serving fleet, checks every operation's
// outputs, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on its last line of output.
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times a run performs its set-up; setup_s is
// their median, and the last set-up's state is the one measured.
const setupReps = 5

// workload is one benchmark workload.
type workload struct {
	name string
	// tailPct is the percentile reported as op_ms_tail, fixed per
	// workload so that it means the same thing in every run; it is the
	// highest standard percentile with at least ten samples beyond it
	// at this machine's op counts (see README.md).
	tailPct float64
	// clients is the closed-loop concurrency (1: a single op stream,
	// 0: nproc clients).
	clients int
	// start builds the workload's state once (set-up, timed), including
	// one untimed-by-ops checked pass, and returns the instance.
	start func(env *env, rep int) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// op performs operation i and returns a check of its outputs, run
	// outside the timed region.
	op(client, i int) (check func() error, err error)
	close()
}

// opTimer is implemented by an instance whose ops run in another
// process: it reports the last op's own time (ms) and heap allocation
// (MB) in place of the round trip this process sees.
type opTimer interface{ lastOp() (ms, allocMB float64) }

// env is what every workload needs from the command line.
type env struct {
	root    string // checkout root (the commute module)
	out     string // build and scratch directory under the checkout
	seed    int64
	seconds float64
	nproc   int
	tracer  *tracer // nil unless -trace 1
}

func (w *workload) clientsFor(e *env) int {
	if w.clients == 0 {
		return e.nproc
	}
	return w.clients
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: compile | run-interp | run-native | serve")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measurement length in seconds")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		root    = flag.String("root", ".", "checkout root")
		out     = flag.String("out", ".bench_build", "build and scratch directory")
		worker  = flag.Bool("compile-worker", false, "serve compile passes on stdin (internal to the compile workload)")
		leak    = flag.Int("intern-leak", 0, "compile this many renamed k=2 acc probes and print the live heap after each (README.md, Known fault)")
	)
	flag.Parse()
	if *leak > 0 {
		if err := internLeak(*leak, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *worker {
		if err := compileWorkerMain(*seed); err != nil {
			fatal(err)
		}
		return
	}
	w := workloads[*name]
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	absOut, err := filepath.Abs(*out)
	if err != nil {
		fatal(err)
	}
	e := &env{root: absRoot, out: absOut, seed: *seed, seconds: *seconds, nproc: runtime.NumCPU()}
	var res *result
	if *trace == 1 {
		res, err = tracedRun(e, w)
	} else {
		res, err = measure(e, w)
	}
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// samples is what one measurement window collected.
type samples struct {
	ms       []float64 // per-op wall time
	allocMB  []float64 // per-op heap allocation (single-client only)
	allocAll float64   // heap allocation over the window, MB
	attempts int
	failed   int
	window   time.Duration
	checkDur time.Duration
	firstErr error
}

// add merges another window's samples into s.
func (s *samples) add(o *samples) {
	s.ms = append(s.ms, o.ms...)
	s.allocMB = append(s.allocMB, o.allocMB...)
	s.allocAll += o.allocAll
	s.attempts += o.attempts
	s.failed += o.failed
	s.window += o.window
	s.checkDur += o.checkDur
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// setUp performs the workload's set-up setupReps times and returns the
// last instance plus the median set-up time.
func setUp(e *env, w *workload) (instance, float64, error) {
	var times []float64
	var inst instance
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		i, err := w.start(e, rep)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		inst = i
	}
	return inst, median(times), nil
}

// run drives the instance's ops from w.clients closed-loop clients for
// the given duration. Every op is checked; a failed check counts the op
// as failed and its time is left out of the latency samples.
func run(w *workload, clients int, inst instance, dur time.Duration) *samples {
	s := &samples{}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	window0 := allocs[0].Value.Uint64()
	timer := opTimerOf(inst)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				var a0 uint64
				if clients == 1 {
					metrics.Read(allocs)
					a0 = allocs[0].Value.Uint64()
				}
				t0 := time.Now()
				check, err := inst.op(c, i)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				var alloc float64
				if clients == 1 {
					metrics.Read(allocs)
					alloc = float64(allocs[0].Value.Uint64()-a0) / (1 << 20)
				}
				if timer != nil {
					ms, alloc = timer.lastOp()
				}
				c0 := time.Now()
				if err == nil && check != nil {
					err = check()
				}
				cd := time.Since(c0)
				mu.Lock()
				s.attempts++
				s.checkDur += cd
				if err != nil {
					s.failed++
					if s.firstErr == nil {
						s.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				} else {
					s.ms = append(s.ms, ms)
					if clients == 1 {
						s.allocMB = append(s.allocMB, alloc)
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	s.window = time.Since(start)
	metrics.Read(allocs)
	s.allocAll = float64(allocs[0].Value.Uint64()-window0) / (1 << 20)
	return s
}

// measure is the untraced run: set-up, the timed window, and the
// end-to-end metrics.
func measure(e *env, w *workload) (*result, error) {
	inst, setupS, err := setUp(e, w)
	if err != nil {
		return nil, err
	}
	clients := w.clientsFor(e)
	s := run(w, clients, inst, time.Duration(e.seconds*float64(time.Second)))
	rss := childPeakRSS(inst)
	inst.close()
	if s.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed; first: %v\n", w.name, s.failed, s.attempts, s.firstErr)
	}
	res := &result{Correct: s.failed == 0, Attempted: s.attempts, Failed: s.failed, Metrics: map[string]metric{}}
	m := res.Metrics
	m["setup_s"] = metric{setupS, "s"}
	if len(s.ms) > 0 {
		m["op_ms_p50"] = metric{percentile(s.ms, 50), "ms"}
		m["op_ms_tail"] = metric{percentile(s.ms, w.tailPct), "ms"}
	}
	busy := s.window.Seconds() - s.checkDur.Seconds()/float64(clients)
	m["ops_per_s"] = metric{float64(len(s.ms)) / busy, "1/s"}
	// Concurrent clients' allocations cannot be told apart per op, so
	// they report the window's total per op.
	if clients == 1 && len(s.allocMB) > 0 {
		m["op_alloc_mb"] = metric{median(s.allocMB), "MB"}
	} else if s.attempts > 0 {
		m["op_alloc_mb"] = metric{s.allocAll / float64(s.attempts), "MB"}
	}
	if rss == 0 {
		rss = selfPeakRSSMB()
	}
	m["peak_rss_mb"] = metric{rss, "MB"}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops (%d failed) in %.1fs, tail = p%g of %d samples\n",
		w.name, s.attempts, s.failed, s.window.Seconds(), w.tailPct, len(s.ms))
	return res, nil
}

// childPeakRSS asks an instance whose work runs in child processes for
// their peak RSS (0: the work runs in this process).
func childPeakRSS(inst instance) float64 {
	if r, ok := inst.(interface{ peakRSSMB() float64 }); ok {
		return r.peakRSSMB()
	}
	return 0
}

func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between the two samples closest to
// rank p/100·(n-1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
