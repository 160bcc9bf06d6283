package main

import (
	"context"
	"fmt"
)

// run-interp: one op runs every warm program once on the compiled
// engine's parallel runtime at nproc workers. No analysis happens in
// the timed window.
func init() {
	register(&workload{name: "run-interp", tailPct: 90, clients: 1, start: startInterp})
}

type interpInst struct {
	e     *env
	progs []*loaded
}

// serialOracle caches the serial walker's output per program source:
// the output of a renamed variant equals the original's, so it is
// computed once per process, outside the timed set-up.
var serialOracle = map[string]string{}

func oracle(p *program) (string, error) {
	if s, ok := serialOracle[p.source]; ok {
		return s, nil
	}
	l, err := load(p, "", 1)
	if err != nil {
		return "", err
	}
	s, err := walkSerial(l.sys)
	if err != nil {
		return "", fmt.Errorf("%s: serial walker: %w", p.key, err)
	}
	if err := p.checkOutput(s, ""); err != nil {
		return "", fmt.Errorf("serial walker: %w", err)
	}
	serialOracle[p.source] = s
	return s, nil
}

func startInterp(e *env, rep int) (instance, error) {
	ps := runPrograms()
	if rep == 0 {
		for _, p := range ps {
			if _, err := oracle(p); err != nil {
				return nil, err
			}
		}
	}
	in := &interpInst{e: e}
	for _, p := range ps {
		l, err := load(p, variantTag(e.seed, "interp-setup", rep), e.nproc)
		if err != nil {
			return nil, err
		}
		l.serial = serialOracle[p.source]
		in.progs = append(in.progs, l)
	}
	check, err := in.op(0, -1)
	if err != nil {
		return nil, err
	}
	return in, check()
}

func (in *interpInst) op(client, _ int) (func() error, error) {
	outs := make([]string, len(in.progs))
	ctrs := make([]map[string]int64, len(in.progs))
	for k, l := range in.progs {
		id := in.e.tracer.child(client, "rt."+l.key+"_parallel")
		out, c, err := l.runParallel(context.Background())
		in.e.tracer.end(id)
		if err != nil {
			return nil, err
		}
		outs[k], ctrs[k] = out, c
	}
	return func() error {
		for k, l := range in.progs {
			if err := l.checkOutput(outs[k], l.serial); err != nil {
				return err
			}
			if err := l.checkCounters(ctrs[k]); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (in *interpInst) close() {
	for _, l := range in.progs {
		l.sys.Release()
	}
}
