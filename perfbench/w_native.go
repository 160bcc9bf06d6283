package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"commute"
)

// run-native: set-up emits each program as a Go package and builds it;
// one op execs every binary once in parallel mode at nproc workers. It
// measures the generated code with nativert/rtkit and no interpreter.
func init() {
	register(&workload{name: "run-native", tailPct: 95, clients: 1, start: startNative})
}

const bhBodiesNative, bhStepsNative = 2048, 2
const waterMolsNative, waterStepsNative = 343, 10
const specCellsNative, specRoundsNative = 512, 16

// nativePrograms: Barnes-Hut and Water large enough that compute stays
// well above the cost of starting a process, and the commit-heavy
// speculation program under -speculate force.
func nativePrograms() []*program {
	return []*program{
		bhProgram(bhBodiesNative, bhStepsNative, bhSeed),
		waterProgram(waterMolsNative, waterStepsNative, waterSeed),
		specDisjointProgram(specCellsNative, specRoundsNative),
	}
}

type nativeBin struct {
	*program
	path   string
	serial string // the serial walker's output
}

type nativeInst struct {
	e    *env
	bins []*nativeBin
	peak float64 // largest child peak RSS, MB
}

// warmed records that this process has built once, so the Go build
// cache holds the runtime, standard and commute packages before any
// timed set-up.
var warmed bool

func startNative(e *env, rep int) (instance, error) {
	ps := nativePrograms()
	if !warmed {
		for _, p := range ps {
			if _, err := oracle(p); err != nil {
				return nil, err
			}
		}
		if _, err := buildNative(e, ps[0], variantTag(e.seed, "native-warm", 0), "warm"); err != nil {
			return nil, err
		}
		warmed = true
	}
	in := &nativeInst{e: e}
	for _, p := range ps {
		path, err := buildNative(e, p, variantTag(e.seed, "native-setup", rep), fmt.Sprintf("rep%d", rep))
		if err != nil {
			return nil, err
		}
		in.bins = append(in.bins, &nativeBin{program: p, path: path, serial: serialOracle[p.source]})
	}
	check, err := in.op(0, -1)
	if err != nil {
		return nil, err
	}
	return in, check()
}

// buildNative compiles a renamed variant of p through the facade, emits
// its native package (the speculative plan for speculation programs)
// and builds it with the go tool.
func buildNative(e *env, p *program, tag, dir string) (string, error) {
	sys, err := commute.LoadOpts(p.name, renameSource(p.source, tag), commute.LoadOptions{})
	if err != nil {
		return "", fmt.Errorf("%s: %w", p.key, err)
	}
	if err := p.checkVerdicts(verdicts(sys), tag); err != nil {
		return "", err
	}
	plan := sys.Plan
	if p.speculate != "" {
		plan = sys.SpecPlan
	}
	files, err := emitGo(plan.EmitGoPackage)
	if err != nil {
		return "", fmt.Errorf("%s: emit: %w", p.key, err)
	}
	files["go.mod"] = []byte("module nativeapp\n\ngo 1.22\n\nrequire commute v0.0.0\n\nreplace commute => " + e.root + "\n")
	pkg := filepath.Join(e.out, "native", dir, p.key)
	if err := os.RemoveAll(pkg); err != nil {
		return "", err
	}
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		return "", err
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(pkg, name), b, 0o644); err != nil {
			return "", err
		}
	}
	bin := filepath.Join(pkg, "prog")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = pkg
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("%s: go build: %v\n%s", p.key, err, out)
	}
	return bin, nil
}

// args is the binary's command line for a parallel run.
func (b *nativeBin) args(workers int, mode string) []string {
	a := []string{"-mode", mode, "-workers", strconv.Itoa(workers)}
	if b.speculate != "" && mode == "parallel" {
		a = append(a, "-speculate", b.speculate, "-specstats")
	}
	return a
}

// exec runs the binary once and returns its stdout, its counters (from
// -specstats on stderr) and its peak RSS in MB.
func (b *nativeBin) exec(args ...string) (string, map[string]int64, float64, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(b.path, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", nil, 0, fmt.Errorf("%s: %v: %s", b.key, err, stderr.String())
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	// -specstats prints "spec_commits N" lines in the rt.Stats
	// vocabulary the counter expectations use.
	ctrs := map[string]int64{}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				ctrs[f[0]] = v
			}
		}
	}
	return stdout.String(), ctrs, rss, nil
}

func (in *nativeInst) op(client, _ int) (func() error, error) {
	outs := make([]string, len(in.bins))
	ctrs := make([]map[string]int64, len(in.bins))
	for k, b := range in.bins {
		id := in.e.tracer.child(client, "native."+b.key+"_parallel")
		out, c, rss, err := b.exec(b.args(in.e.nproc, "parallel")...)
		in.e.tracer.end(id)
		if err != nil {
			return nil, err
		}
		outs[k], ctrs[k] = out, c
		if rss > in.peak {
			in.peak = rss
		}
	}
	return func() error {
		for k, b := range in.bins {
			if err := b.checkOutput(outs[k], b.serial); err != nil {
				return err
			}
			if err := b.checkCounters(ctrs[k]); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (in *nativeInst) peakRSSMB() float64 { return in.peak }

func (in *nativeInst) close() {}
