package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serve: a closed loop of nproc clients drives a commutefleet router in
// front of two commuted replicas that share a blob tier. One op is a
// session: /v1/analyze, then /v1/run in parallel mode, for one
// program. Most sessions repeat a warm program; freshShare of them send
// a never-seen renamed variant, which needs a cold analysis.
func init() {
	register(&workload{name: "serve", tailPct: 99, clients: 0, start: startServe})
}

// freshShare sits well above the tail percentile's 1%, so op_ms_tail
// falls among the cold sessions rather than on the warm/cold edge.
const freshShare = 0.25

const replicas = 2

// servePrograms is the session mix, sized for request latency rather
// than batch throughput. The k=2 acc probe stays out: every cold
// variant of it would leave about 33 MB in a replica (README.md).
func servePrograms() []*program {
	return []*program{
		bhProgram(64, 1, bhSeed),
		waterProgram(27, 1, waterSeed),
		graphProgram(256, graphSeed),
		condProgram(0, 16),
		condProgram(1, 16),
		specDisjointProgram(16, 4),
		specConflictProgram(8),
		accProgram(1),
	}
}

// fleet is a running router and its replicas.
type fleet struct {
	router   string // base URL
	replicas []string
	procs    []*exec.Cmd
	client   *http.Client
	peak     float64 // largest process peak RSS seen at stop, MB
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startFleet(e *env, dir string) (*fleet, error) {
	f := &fleet{client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc},
	}}
	blobs := filepath.Join(dir, "blobs")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(blobs, 0o755); err != nil {
		return nil, err
	}
	bin := filepath.Join(e.out, "bin")
	for r := 0; r < replicas; r++ {
		port, err := freePort()
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, "http://127.0.0.1:"+strconv.Itoa(port))
		if err := f.spawn(filepath.Join(bin, "commuted"), "-addr", "127.0.0.1:"+strconv.Itoa(port),
			"-workers", "1", "-cache-bytes", strconv.Itoa(16<<20), "-blob-dir", blobs); err != nil {
			return nil, err
		}
	}
	port, err := freePort()
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = "http://127.0.0.1:" + strconv.Itoa(port)
	if err := f.spawn(filepath.Join(bin, "commutefleet"), "-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-shards", strings.Join(f.replicas, ",")); err != nil {
		return nil, err
	}
	for _, u := range append([]string{f.router}, f.replicas...) {
		if err := f.waitHealthy(u); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) spawn(path string, args ...string) error {
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		f.stop()
		return fmt.Errorf("start %s: %w", filepath.Base(path), err)
	}
	f.procs = append(f.procs, cmd)
	return nil
}

func (f *fleet) waitHealthy(base string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := f.client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s did not become healthy", base)
}

// stop records each process's peak RSS, then sends SIGTERM (the
// daemons drain and exit) and waits for every process.
func (f *fleet) stop() {
	for _, p := range f.procs {
		if mb := vmHWM(p.Process.Pid); mb > f.peak {
			f.peak = mb
		}
		p.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range f.procs {
		done := make(chan struct{})
		go func() { p.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			p.Process.Kill()
			<-done
		}
	}
	f.procs = nil
	f.client.CloseIdleConnections()
}

// vmHWM reads a live process's peak resident set size in MB.
func vmHWM(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// post sends a JSON request and decodes a 200 response into out.
func (f *fleet) post(base, path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := f.client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}

// get decodes a 200 GET response into out.
func (f *fleet) get(base, path string, out any) error {
	resp, err := f.client.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// The request and response fields the benchmark uses, as documented in
// docs/SERVER.md.
type sourceReq struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

type analyzeReq struct {
	sourceReq
}

type analyzeResp struct {
	Cache   string `json:"cache"`
	Methods []struct {
		Method              string `json:"method"`
		Parallel            bool   `json:"parallel"`
		ConditionalEligible bool   `json:"conditional_eligible"`
		SpeculationEligible bool   `json:"speculation_eligible"`
	} `json:"methods"`
}

type runReq struct {
	sourceReq
	Mode        string `json:"mode"`
	Workers     int    `json:"workers"`
	Speculate   string `json:"speculate,omitempty"`
	Conditional bool   `json:"conditional,omitempty"`
}

type runResp struct {
	Cache  string `json:"cache"`
	Output string `json:"output"`
	Stats  struct {
		GuardParallel      int64 `json:"guard_parallel"`
		GuardSerial        int64 `json:"guard_serial"`
		SpeculationCommits int64 `json:"speculation_commits"`
		SpeculationAborts  int64 `json:"speculation_aborts"`
	} `json:"stats"`
}

type statusz struct {
	Rejected       int64 `json:"rejected"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheAdoptions int64 `json:"cache_adoptions"`
	BatchCoalesced int64 `json:"batch_coalesced"`
}

// session runs one analyze+run session for p (renamed by tag) against
// base and returns the check of its responses.
func (f *fleet) session(tr *tracer, client int, base string, p *program, tag string, workers int, serial string) (func() error, error) {
	src := sourceReq{Name: p.name, Source: renameSource(p.source, tag)}
	var a analyzeResp
	id := tr.child(client, "serve.analyze")
	err := f.post(base, "/v1/analyze", analyzeReq{src}, &a)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s analyze: %w", p.key, err)
	}
	var r runResp
	req := runReq{sourceReq: src, Mode: "parallel", Workers: workers, Speculate: p.speculate, Conditional: p.conditional}
	id = tr.child(client, "serve.run")
	err = f.post(base, "/v1/run", req, &r)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", p.key, err)
	}
	return func() error {
		got := map[string]string{}
		for _, m := range a.Methods {
			got[m.Method] = outcome(m.Parallel, m.ConditionalEligible, m.SpeculationEligible)
		}
		if err := p.checkVerdicts(got, tag); err != nil {
			return err
		}
		if err := p.checkOutput(r.Output, serial); err != nil {
			return err
		}
		return p.checkCounters(map[string]int64{
			"guard_parallel": r.Stats.GuardParallel, "guard_serial": r.Stats.GuardSerial,
			"spec_commits": r.Stats.SpeculationCommits, "spec_aborts": r.Stats.SpeculationAborts,
		})
	}, nil
}

type serveInst struct {
	e      *env
	f      *fleet
	progs  []*program
	serial []string
	warm   string // the repeat set's variant tag
}

func startServe(e *env, rep int) (instance, error) {
	ps := servePrograms()
	in := &serveInst{e: e, progs: ps, warm: variantTag(e.seed, "serve-warm", rep)}
	for _, p := range ps {
		s, err := oracle(p)
		if err != nil {
			return nil, err
		}
		in.serial = append(in.serial, s)
	}
	f, err := startFleet(e, filepath.Join(e.out, "serve"))
	if err != nil {
		return nil, err
	}
	in.f = f
	for k, p := range ps {
		check, err := f.session(nil, 0, f.router, p, in.warm, e.nproc, in.serial[k])
		if err == nil {
			err = check()
		}
		if err != nil {
			f.stop()
			return nil, err
		}
	}
	return in, nil
}

// sessionAt draws session i of the seeded stream: a program index and
// whether it is a fresh variant.
func (in *serveInst) sessionAt(i int) (int, string) {
	r := newRNG(in.e.seed*1_000_003 + int64(i))
	k := r.intn(len(in.progs))
	if r.float() < freshShare {
		return k, variantTag(in.e.seed, "serve-fresh", i)
	}
	return k, in.warm
}

func (in *serveInst) op(client, i int) (func() error, error) {
	k, tag := in.sessionAt(i)
	return in.f.session(in.e.tracer, client, in.f.router, in.progs[k], tag, in.e.nproc, in.serial[k])
}

func (in *serveInst) pids() []int {
	var out []int
	for _, p := range in.f.procs {
		out = append(out, p.Process.Pid)
	}
	return out
}

func (in *serveInst) peakRSSMB() float64 {
	in.f.stop()
	return in.f.peak
}

func (in *serveInst) close() { in.f.stop() }
