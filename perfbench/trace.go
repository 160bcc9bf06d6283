package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The traced run (-trace 1). Spans are recorded by the benchmark's own
// files around each call into a layer, kept in memory, and written out
// as JSON when the run ends. The per-layer metrics are the self times
// of those spans plus exact counts read at the same boundaries.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: a root
	Op     int    `json:"op"`     // op or probe-pass id
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cur   map[int]int // client → its open op span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: map[int]int{}} }

// begin opens a span; methods on a nil tracer do nothing, so untraced
// runs pay only the nil check.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child opens a span under the client's current op span.
func (t *tracer) child(client int, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	parent, op := -1, -1
	if id, ok := t.cur[client]; ok {
		parent, op = id, t.spans[id].Op
	}
	t.mu.Unlock()
	return t.begin(name, parent, op)
}

func (t *tracer) setOp(client, id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cur[client] = id
	t.mu.Unlock()
}

// selfTimes sums each span name's self time (its duration minus the
// part its children cover) and counts its spans.
func (t *tracer) selfTimes() (map[string]time.Duration, map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	n := map[string]int{}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
		n[s.Name]++
	}
	return self, n
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerMetrics collects the per-layer metrics by name.
type layerMetrics map[string]metric

func (m layerMetrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// tracedRun measures the tracing overhead on the named workload, then
// probes every layer, and returns the per-layer metrics.
func tracedRun(e *env, w *workload) (*result, error) {
	lm := layerMetrics{}
	tr := newTracer()
	res := &result{Correct: true, Metrics: map[string]metric(lm)}
	fail := func(s *samples) {
		res.Attempted += s.attempts
		res.Failed += s.failed
		if s.firstErr != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", w.name, s.firstErr)
		}
	}

	// Tracing overhead: the same workload untraced and traced, in
	// alternating slices of half the run each (so drift hits both
	// alike); the difference of the op medians.
	inst, err := w.start(e, 0)
	if err != nil {
		return nil, err
	}
	const slices = 4
	slice := time.Duration(e.seconds * float64(time.Second) / (2 * slices))
	clients := w.clientsFor(e)
	plain, traced := &samples{}, &samples{}
	var cpu, gc float64
	for k := 0; k < slices; k++ {
		c0, g0 := procCPU(inst), gcCycles()
		plain.add(run(w, clients, inst, slice))
		c1, g1 := procCPU(inst), gcCycles()
		cpu, gc = cpu+c1-c0, gc+g1-g0
		e.tracer = tr
		traced.add(run(w, clients, tracedInst{inst, tr}, slice))
		e.tracer = nil
	}
	fail(plain)
	fail(traced)
	inst.close()
	if n := float64(plain.attempts); n > 0 {
		lm.set("proc.cpu_ms_per_op", "ms", cpu/n)
		lm.set("proc.gc_per_op", "count", gc/n)
	}
	if g, ok := inst.(interface{ gcCount() float64 }); ok && plain.attempts+traced.attempts > 0 {
		// The compile work's GC runs in its worker, which counts it for
		// every op, traced or not.
		lm.set("proc.gc_per_op", "count", g.gcCount()/float64(plain.attempts+traced.attempts))
	}
	lm.set("trace.overhead_ms", "ms", percentile(traced.ms, 50)-percentile(plain.ms, 50))

	// Layer probes, the same in every workload's traced run.
	probes := []struct {
		name string
		f    func(*env, *tracer, layerMetrics) error
	}{
		{"compile layers", probeCompile},
		{"interp/rt", probeInterp},
		{"rtkit/nativert", probeMicro},
		{"native", probeNative},
		{"server/fleet", probeServe},
	}
	for _, p := range probes {
		if err := p.f(e, tr, lm); err != nil {
			res.Correct = false
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s probe: %v\n", p.name, err)
		}
		res.Attempted++
	}

	self, n := tr.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %12s %8s\n", "span", "self ms", "spans")
	for _, k := range names {
		fmt.Printf("%-32s %12.3f %8d\n", k, float64(self[k])/1e6, n[k])
	}
	path := filepath.Join(e.out, "trace", fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	return res, nil
}

// tracedInst opens an op span around every op of the instance.
type tracedInst struct {
	instance
	tr *tracer
}

func (t tracedInst) op(client, i int) (func() error, error) {
	id := t.tr.begin("op", -1, i)
	t.tr.setOp(client, id)
	defer t.tr.end(id)
	return t.instance.op(client, i)
}

// opTimerOf returns the instance's own op timer, looking through a
// tracedInst; nil when the runner times ops itself.
func opTimerOf(inst instance) opTimer {
	if t, ok := inst.(tracedInst); ok {
		inst = t.instance
	}
	o, _ := inst.(opTimer)
	return o
}

func gcCycles() float64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// procCPU is the CPU time, in ms, of this process, its waited-for
// children, and any live processes the instance runs its work in.
func procCPU(inst instance) float64 {
	var self, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	ms := func(r syscall.Rusage) float64 {
		return float64(r.Utime.Nano()+r.Stime.Nano()) / 1e6
	}
	total := ms(self) + ms(kids)
	if p, ok := inst.(interface{ pids() []int }); ok {
		for _, pid := range p.pids() {
			total += pidCPU(pid)
		}
	}
	return total
}

// pidCPU reads a live process's user+system CPU time in ms.
func pidCPU(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 10 // clock ticks of 10 ms (USER_HZ = 100)
}

// timeMedian runs f n times and returns the median wall time in ms.
func timeMedian(n int, f func() error) (float64, error) {
	ms := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(ms), nil
}

func heapLive() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
