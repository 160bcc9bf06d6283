package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"syscall"
	"time"

	"commute"
)

// compile: one op compiles a freshly renamed variant of every corpus
// program from source to reports plus emitted Go, with no execution.
// The symbolic intern table is process-wide, so only a never-seen
// program text measures a cold analysis.
//
// That table also never shrinks below its entry cap, and each k=2 acc
// variant leaves about 33 MB in it (README.md, "Known fault"). The
// passes therefore run in a worker process that is replaced, between
// ops, after opsPerWorker passes; its peak RSS is what peak_rss_mb
// reports, and it is dominated by that fault.
func init() {
	register(&workload{name: "compile", tailPct: 85, clients: 1, start: startCompile})
}

// opsPerWorker bounds the retained intern-table growth per worker to
// about 8 × 33 MB.
const opsPerWorker = 8

type compileInst struct {
	e      *env
	w      *compileWorker
	ops    int     // timed passes by the current worker
	peak   float64 // largest worker peak RSS, MB
	last   passReply
	gc     float64 // GC cycles in timed passes
	nextID int     // worker generation, for distinct warm-up tags
}

// passReply is the worker's answer to one pass.
type passReply struct {
	MS      float64 `json:"ms"`
	AllocMB float64 `json:"alloc_mb"`
	GC      float64 `json:"gc"` // GC cycles during the pass
	Err     string  `json:"err,omitempty"`
}

type compileWorker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startCompile(e *env, rep int) (instance, error) {
	c := &compileInst{e: e, nextID: rep * 1000}
	if err := c.restart(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// restart replaces the worker and makes its first (untimed, checked)
// pass, so every timed pass runs in a process past its start-up.
func (c *compileInst) restart() error {
	c.stopWorker()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-compile-worker", "-seed", fmt.Sprint(c.e.seed))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	c.w = &compileWorker{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	c.ops = 0
	c.nextID++
	r, err := c.send(variantTag(c.e.seed, "compile-warm", c.nextID))
	if err != nil {
		return err
	}
	if r.Err != "" {
		return fmt.Errorf("compile worker: %s", r.Err)
	}
	return nil
}

func (c *compileInst) send(tag string) (passReply, error) {
	var r passReply
	if c.w == nil {
		return r, fmt.Errorf("compile worker is not running")
	}
	if _, err := fmt.Fprintln(c.w.in, tag); err != nil {
		return r, fmt.Errorf("compile worker: %w", err)
	}
	if !c.w.out.Scan() {
		return r, fmt.Errorf("compile worker exited: %v", c.w.out.Err())
	}
	if err := json.Unmarshal(c.w.out.Bytes(), &r); err != nil {
		return r, fmt.Errorf("compile worker reply: %w", err)
	}
	return r, nil
}

func (c *compileInst) op(_, i int) (func() error, error) {
	r, err := c.send(variantTag(c.e.seed, "compile", i))
	if err != nil {
		return nil, err
	}
	c.last = r
	c.gc += r.GC
	c.ops++
	return func() error {
		if r.Err != "" {
			return fmt.Errorf("%s", r.Err)
		}
		if c.ops >= opsPerWorker {
			return c.restart()
		}
		return nil
	}, nil
}

// lastOp reports the worker-measured time and allocation of the last
// pass, which exclude the pipe round trip and the checks.
func (c *compileInst) lastOp() (float64, float64) { return c.last.MS, c.last.AllocMB }

func (c *compileInst) gcCount() float64 { return c.gc }

func (c *compileInst) pids() []int {
	if c.w == nil {
		return nil
	}
	return []int{c.w.cmd.Process.Pid}
}

func (c *compileInst) peakRSSMB() float64 {
	c.stopWorker()
	return c.peak
}

func (c *compileInst) stopWorker() {
	if c.w == nil {
		return
	}
	c.w.in.Close()
	c.w.cmd.Wait()
	if ru, ok := c.w.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		if mb := float64(ru.Maxrss) / 1024; mb > c.peak {
			c.peak = mb
		}
	}
	c.w = nil
}

func (c *compileInst) close() { c.stopWorker() }

// compileWorkerMain serves passes on stdin/stdout: each input line is a
// variant tag, each output line a passReply.
func compileWorkerMain(seed int64) error {
	progs := compilePrograms()
	in := bufio.NewScanner(os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	for in.Scan() {
		tag := in.Text()
		metrics.Read(allocs)
		a0, gc0 := allocs[0].Value.Uint64(), gcCycles()
		t0 := time.Now()
		check, err := compilePass(progs, tag)
		d := time.Since(t0)
		metrics.Read(allocs)
		r := passReply{MS: float64(d) / float64(time.Millisecond), AllocMB: float64(allocs[0].Value.Uint64()-a0) / (1 << 20), GC: gcCycles() - gc0}
		if err == nil {
			err = check()
		}
		if err != nil {
			r.Err = err.Error()
		}
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return in.Err()
}

// compilePass compiles every program under one variant tag and returns
// the check of its outputs.
func compilePass(progs []*program, tag string) (func() error, error) {
	type out struct {
		p     *program
		sys   *commute.System
		files map[string][]byte
	}
	outs := make([]out, len(progs))
	for k, p := range progs {
		sys, err := commute.LoadOpts(p.name, renameSource(p.source, tag), commute.LoadOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.key, err)
		}
		sys.Reports()
		files, err := emitGo(sys.Plan.EmitGoPackage)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.key, err)
		}
		outs[k] = out{p, sys, files}
	}
	return func() error {
		for _, o := range outs {
			if err := o.p.checkVerdicts(verdicts(o.sys), tag); err != nil {
				return err
			}
			if !bytes.Contains(o.files["main.go"], []byte("package main")) || len(o.files["prog.go"]) == 0 {
				return fmt.Errorf("%s: emitted package is incomplete", o.p.key)
			}
		}
		return nil
	}, nil
}

// internLeak reproduces the intern-table growth: each distinct k=2 acc
// program compiled through the facade leaves its symbolic expressions
// live after every System is gone.
func internLeak(n int, seed int64) error {
	p := accProgram(2)
	base := heapLive()
	for i := 1; i <= n; i++ {
		if _, err := commute.LoadOpts(p.name, renameSource(p.source, variantTag(seed, "leak", i)), commute.LoadOptions{}); err != nil {
			return err
		}
		live := heapLive()
		fmt.Printf("programs %4d  live heap %8.1f MB  (+%.1f MB per program)\n", i, live, (live-base)/float64(i))
	}
	return nil
}
