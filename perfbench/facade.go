package main

import (
	"bytes"
	"context"
	"fmt"

	"commute"
)

// Helpers that reach the compiler only through the commute facade. The
// facade's option types are declared in internal packages, which the
// benchmark does not import on its end-to-end paths; values of those
// types are built from their exported String names instead.

// named sets *p to the value of its type whose String() is name.
func named[T interface {
	~int | ~uint8
	String() string
}](p *T, name string) error {
	for i := 0; i < 16; i++ {
		if T(i).String() == name {
			*p = T(i)
			return nil
		}
	}
	return fmt.Errorf("no %T named %q", *p, name)
}

// emitGo calls a plan's EmitGoPackage with default options: module
// "nativeapp" and no go.mod, which the caller writes itself.
func emitGo[O any](emit func(O) (map[string][]byte, error)) (map[string][]byte, error) {
	var o O
	return emit(o)
}

// verdicts maps every reported method to its outcome tier.
func verdicts(sys *commute.System) map[string]string {
	out := map[string]string{}
	for _, r := range sys.Reports() {
		out[r.Method.FullName()] = outcome(r.Parallel, r.ConditionalEligible, r.SpeculationEligible)
	}
	return out
}

// runOptions is the parallel run configuration for a program.
func (p *program) runOptions(workers int) (commute.RunOptions, error) {
	opts := commute.RunOptions{Workers: workers, Conditional: p.conditional}
	if p.speculate != "" {
		if err := named(&opts.Speculate, p.speculate); err != nil {
			return opts, err
		}
	}
	return opts, nil
}

// loaded is a warm, checked program ready to run.
type loaded struct {
	*program
	sys    *commute.System
	opts   commute.RunOptions
	serial string // the serial tree-walker's output
}

// load compiles a renamed variant of p, checks its verdicts, and warms
// it.
func load(p *program, tag string, workers int) (*loaded, error) {
	sys, err := commute.LoadOpts(p.name, renameSource(p.source, tag), commute.LoadOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.key, err)
	}
	if err := p.checkVerdicts(verdicts(sys), tag); err != nil {
		return nil, err
	}
	opts, err := p.runOptions(workers)
	if err != nil {
		return nil, err
	}
	sys.Warm()
	return &loaded{program: p, sys: sys, opts: opts}, nil
}

// walkSerial runs the program on the serial tree-walking evaluator,
// the repository's semantic baseline, and returns its output.
func walkSerial(sys *commute.System) (string, error) {
	var opts commute.RunOptions
	if err := named(&opts.Engine, "walk"); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if _, err := sys.RunSerialEngine(opts.Engine, &buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// runParallel runs l once on the compiled engine's parallel runtime and
// returns its output and exact counters.
func (l *loaded) runParallel(ctx context.Context) (string, map[string]int64, error) {
	var buf bytes.Buffer
	_, st, err := l.sys.RunParallelOpts(ctx, l.opts, &buf)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", l.key, err)
	}
	return buf.String(), map[string]int64{
		"regions": st.Regions, "chunks": st.Chunks, "tasks": st.Tasks,
		"locks": st.LockAcquires, "steals": st.Steals,
		"guard_parallel": st.GuardParallel, "guard_serial": st.GuardSerial,
		"spec_commits": st.SpeculationCommits, "spec_aborts": st.SpeculationAborts,
	}, nil
}

// runSerial runs l once on the compiled engine's serial path.
func (l *loaded) runSerial() (string, error) {
	var buf bytes.Buffer
	if _, err := l.sys.RunSerial(&buf); err != nil {
		return "", fmt.Errorf("%s: %w", l.key, err)
	}
	return buf.String(), nil
}
