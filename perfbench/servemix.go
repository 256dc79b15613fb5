package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parhask/internal/serve"
	"parhask/internal/sim"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/fuzz"
	"parhask/internal/workloads/mandel"
	"parhask/internal/workloads/matmul"
)

// serveClients is serve-mix's closed-loop client count; each client
// keeps one keep-alive connection and waits for every reply.
const serveClients = 2

// serveVariants is how many seeded inputs each randomised job kind
// draws from. Warm-up sends every one, so the server's oracle cache is
// full before timing starts.
const serveVariants = 4

// job is one prepared request with the answer it must return: an
// integer checksum, exactly, or a matrix checksum within a relative
// 1e-9 (the parallel sums round differently).
type job struct {
	kind  string
	body  []byte
	want  int64
	wantF float64
	exact bool
}

// serveMix drives the serve gateway, running in its own process, with
// a seeded mix of small jobs from serveClients closed-loop clients.
type serveMix struct {
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	url      string
	distinct []*job
	seq      []*job // the seeded job order, cycled
	clients  []*http.Client
	mu       sync.Mutex // guards the phase the clients record into
}

func newServeMix(cfg config) (workload, error) {
	s := &serveMix{}
	s.makeJobs(cfg)
	if err := s.start(); err != nil {
		return nil, err
	}
	for i := 0; i < serveClients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}})
	}
	// Warm-up: every distinct job once, which fills the server's oracle
	// cache and starts the pool and lanes.
	warm := newPhase(nil)
	for _, j := range s.distinct {
		s.do(warm, s.clients[0], j)
	}
	return s, nil
}

// makeJobs draws the job inputs and order from the seed and computes
// each distinct job's answer with the sequential oracles.
func (s *serveMix) makeJobs(cfg config) {
	sumN, matN, apspN, fuzzN, mw, mh := 500, 48, 32, 200, 64, 48
	if cfg.Scale == "tiny" {
		sumN, matN, apspN, fuzzN, mw, mh = 200, 16, 12, 40, 24, 16
	}
	rng := sim.NewPRNG(cfg.Seed)
	seeds := make([]uint64, serveVariants)
	for i := range seeds {
		seeds[i] = 1 + rng.Uint64()%(1<<20)
	}
	byKind := map[string][]*job{}
	// add registers one distinct job; want is an int64 or a float64.
	add := func(kind string, req serve.JobRequest, want any) {
		req.Workload, req.Backend, _ = strings.Cut(kind, "@")
		body, _ := json.Marshal(req) // a struct of strings and numbers always marshals
		j := &job{kind: kind, body: body}
		switch w := want.(type) {
		case int64:
			j.want, j.exact = w, true
		case float64:
			j.wantF = w
		}
		if cfg.Corrupt {
			j.want, j.wantF = j.want+1, j.wantF+1
		}
		byKind[kind] = append(byKind[kind], j)
		s.distinct = append(s.distinct, j)
	}
	add("sumeuler@gph", serve.JobRequest{N: sumN}, euler.SumTotientSieve(sumN))
	img := mandel.Checksum(mandel.Render(nopCtx{}, mandel.DefaultParams(mw, mh)))
	for _, b := range []string{"gph", "eden"} {
		add("mandel@"+b, serve.JobRequest{Width: mw, Height: mh}, img)
	}
	for _, seed := range seeds {
		a, bm := matmul.Random(matN, seed), matmul.Random(matN, seed+1)
		mm := matmul.Checksum(matmul.MulOracle(a, bm))
		sp := apsp.Checksum(apsp.FloydWarshall(apsp.RandomGraph(apspN, seed, 100, 50)))
		for _, b := range []string{"gph", "eden"} {
			add("matmul@"+b, serve.JobRequest{N: matN, Seed: seed}, mm)
			add("apsp@"+b, serve.JobRequest{N: apspN, Seed: seed}, sp)
		}
		add("fuzz@gph", serve.JobRequest{N: fuzzN, Seed: seed}, fuzz.Generate(seed, fuzzN).Expected())
	}
	// Each round sends every kind once in a seeded order, so every run
	// has the same mix whatever its seed.
	for round := 0; round < 512; round++ {
		perm := append([]string(nil), serveKinds...)
		for i := len(perm) - 1; i > 0; i-- {
			k := rng.Intn(i + 1)
			perm[i], perm[k] = perm[k], perm[i]
		}
		for _, kind := range perm {
			v := byKind[kind]
			s.seq = append(s.seq, v[rng.Intn(len(v))])
		}
	}
}

// nopCtx satisfies mandel.Ctx for the oracle render.
type nopCtx struct{}

func (nopCtx) Burn(int64)  {}
func (nopCtx) Alloc(int64) {}

// start launches the server process and waits for its address.
func (s *serveMix) start() error {
	cmd, err := childCmd("serve", nil)
	if err != nil {
		return err
	}
	if s.stdin, err = cmd.StdinPipe(); err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	s.cmd = cmd
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		s.close()
		return fmt.Errorf("serve child: no address: %w", err)
	}
	s.url = strings.TrimSpace(line)
	return nil
}

// close stops the server: closing its stdin makes it drain and exit.
func (s *serveMix) close() error {
	if s.cmd == nil {
		return nil
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		err = fmt.Errorf("serve child did not drain: %v", <-done)
	}
	s.cmd = nil
	return err
}

// serverUsage is the server process's CPU time and the memory it holds.
func (s *serveMix) serverUsage() (usage, error) {
	var u usage
	resp, err := s.clients[0].Get(s.url + "/bench/usage")
	if err != nil {
		return u, err
	}
	defer resp.Body.Close()
	return u, json.NewDecoder(resp.Body).Decode(&u)
}

func (s *serveMix) measure(p *phase, d time.Duration) {
	u0, err0 := s.serverUsage()
	start := time.Now()
	deadline := start.Add(d)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for ok := true; ok; ok = time.Now().Before(deadline) {
				i := next.Add(1) - 1
				s.do(p, c, s.seq[int(i)%len(s.seq)])
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	p.wall += wall
	if u1, err := s.serverUsage(); err == nil && err0 == nil {
		p.s.add("serve.cpu_util", float64(u1.CPUNS-u0.CPUNS)/float64(wall.Nanoseconds()*int64(serveClients)))
		p.serverMemMB = u1.HeldMB
	}
}

// jobResponse is the part of serve.JobResponse the client checks.
type jobResponse struct {
	OK      bool            `json:"ok"`
	Value   json.RawMessage `json:"value"`
	QueueNS int64           `json:"queue_ns"`
	RunNS   int64           `json:"run_ns"`
	TotalNS int64           `json:"total_ns"`
	Error   *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// do sends one job, waits for the reply and checks it. Its latency is
// what the client sees, from the request to the last byte of the reply.
func (s *serveMix) do(p *phase, c *http.Client, j *job) {
	root := p.tr.root(j.kind)
	defer p.tr.end(root)
	sp := p.tr.begin(root, "POST /api/v1/jobs", "serve.http")
	start := time.Now()
	var r jobResponse
	err := post(c, s.url+"/api/v1/jobs", j.body, &r)
	lat := time.Since(start)
	p.tr.end(sp)
	if err == nil && p.tr != nil {
		// The server's own interval, centred in the client's.
		srv := start.UnixNano() + (lat.Nanoseconds()-r.TotalNS)/2
		p.tr.place(sp, "serve.queue", "serve.queue", srv, srv+r.QueueNS)
		p.tr.place(sp, "serve.run", "serve.run", srv+r.QueueNS, srv+r.QueueNS+r.RunNS)
	}
	ck := p.tr.begin(root, "oracle", "oracle")
	if err == nil {
		err = j.verify(r)
	}
	p.tr.end(ck)

	s.mu.Lock()
	defer s.mu.Unlock()
	if !p.check(err) {
		return
	}
	p.op(j.kind, lat)
	p.s.add("lat_ms", float64(lat.Nanoseconds())/1e6)
	p.s.add("serve.http_ms", float64(lat.Nanoseconds()-r.TotalNS)/1e6)
	p.s.add("serve.queue_ms", float64(r.QueueNS)/1e6)
	p.s.add("serve.run_ms", float64(r.RunNS)/1e6)
	p.s.add("serve.run_ms."+j.kind, float64(r.RunNS)/1e6)
}

// post sends body and decodes the reply; anything but 200 is an error,
// a 429 rejection included.
func post(c *http.Client, url string, body []byte, out *jobResponse) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

func (j *job) verify(r jobResponse) error {
	if !r.OK {
		return fmt.Errorf("%s: job not ok: %+v", j.kind, r.Error)
	}
	if j.exact {
		if got := string(r.Value); got != strconv.FormatInt(j.want, 10) {
			return fmt.Errorf("%s: value %s, want %d", j.kind, got, j.want)
		}
		return nil
	}
	got, err := strconv.ParseFloat(string(r.Value), 64)
	if err != nil {
		return fmt.Errorf("%s: value %s: %w", j.kind, r.Value, err)
	}
	if math.Abs(got-j.wantF) > 1e-9*math.Max(1, math.Abs(j.wantF)) {
		return fmt.Errorf("%s: value %s, want %v", j.kind, r.Value, j.wantF)
	}
	return nil
}

func (s *serveMix) layers(m metricValues, p *phase) {
	lat := sorted(p.s["lat_ms"])
	m["jobs_per_s"] = p.opsPerS()
	m["lat_p50_ms"] = quantile(lat, 0.5)
	m["lat_p99_ms"] = quantile(lat, 0.99)
	m["serve.http_ms_p50"] = p.s.med("serve.http_ms")
	m["serve.queue_ms_p50"] = p.s.med("serve.queue_ms")
	m["serve.run_ms_p50"] = p.s.med("serve.run_ms")
	for _, k := range serveKinds {
		m[serveKindMetric(k)] = p.s.med("serve.run_ms." + k)
	}
	m["serve.cpu_util"] = p.s.med("serve.cpu_util")
}

// serveChild runs the serve gateway with its default configuration on
// a loopback port, prints its URL, and drains and exits when its stdin
// closes. /bench/usage reports the process's CPU time and the memory it
// holds.
func serveChild() error {
	s := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("/bench/usage", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(selfUsage())
	})
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Printf("http://%s\n", ln.Addr())
	_, _ = io.Copy(io.Discard, os.Stdin)
	s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	<-served
	return nil
}
