package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stopwatchsim/internal/compose"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
)

// Shape of the service workload. The window is a sequence of rounds; each
// round sends three kinds of request in turn, each kind timed as a series
// of its own, so no traffic mix is assumed.
const (
	clients         = 2  // closed loop: each waits for its reply
	roundSubmits    = 64 // new configurations per round: submitted once (misses), then once more (repeats)
	roundComposes   = 4  // compose edits per round, sent in order on one connection
	roundsPerSecond = 40 // rounds generated per second of window, about 4× the measured rate
	rssRounds       = 12 // saserve's peak RSS is read after this many rounds
	segmentRounds   = 24 // rounds one saserve process serves before a fresh one takes over
	timeScale       = 10 // compose system time unit refinement (room for WCET edits)
	editSpan        = 11 // LOAD WCET values per module walk
	editRXLo        = 1 * timeScale
	editRXHi        = 3 * timeScale
	warmSubmits     = 8
	traceEvery      = 8 // every traceEvery-th request of a traced window has its span tree fetched
	saserveWorkers  = "2"
)

// kind is one series of the service workload.
type kind int

const (
	kindMiss    kind = iota // first submit of a configuration: computed
	kindRepeat              // second submit of a configuration of the same round
	kindCompose             // compose of the next edit of the 16-module system
)

var kindNames = [...]string{"miss", "repeat", "compose"}

// request is one request of the stream: a submit of configs[idx] or a
// compose of edits[idx].
type request struct {
	kind kind
	idx  int
}

// stream is the whole request stream, generated from the seed before
// anything is timed. Every window replays it from the start.
type stream struct {
	configs [][]byte // submitted configurations, XML; round r owns configs[r*roundSubmits:(r+1)*roundSubmits]
	repeats [][]int  // per round, the seeded order in which its configurations are submitted again
	edits   [][]byte // compose systems, XML; edits[0] is the unedited system, round r owns edits[1+r*roundComposes:][:roundComposes]
	warm    [][]byte // warm-up submits, not part of any round
}

func newStream(seed int64, window time.Duration) (*stream, error) {
	// Each module's walk has editSpan×(RX values) states, the first of
	// them the unedited system's; the edits bound the rounds a stream has.
	editCap := composeModules * (editSpan*(editRXHi-editRXLo+1) - 1)
	rounds := max(rssRounds, min(editCap/roundComposes, int(window.Seconds()*roundsPerSecond+0.999)))
	rng := rand.New(rand.NewSource(seed))
	s := &stream{}
	for i := 0; i < rounds*roundSubmits+warmSubmits; i++ {
		var buf bytes.Buffer
		if err := gen.Random(seed*1_000_003+int64(i), gen.DefaultRandomParams()).WriteXML(&buf); err != nil {
			return nil, err
		}
		if i < warmSubmits {
			s.warm = append(s.warm, buf.Bytes())
		} else {
			s.configs = append(s.configs, buf.Bytes())
		}
	}
	for r := 0; r < rounds; r++ {
		perm := rng.Perm(roundSubmits)
		for i := range perm {
			perm[i] += r * roundSubmits
		}
		s.repeats = append(s.repeats, perm)
	}
	return s, s.addEdits(seed, rng, rounds*roundComposes)
}

func (s *stream) rounds() int { return len(s.repeats) }

// round returns the requests of round r, by kind.
func (s *stream) round(r int) [3][]request {
	var out [3][]request
	for i := 0; i < roundSubmits; i++ {
		out[kindMiss] = append(out[kindMiss], request{kindMiss, r*roundSubmits + i})
		out[kindRepeat] = append(out[kindRepeat], request{kindRepeat, s.repeats[r][i]})
	}
	for i := 0; i < roundComposes; i++ {
		out[kindCompose] = append(out[kindCompose], request{kindCompose, 1 + r*roundComposes + i})
	}
	return out
}

func (s *stream) payload(req request) []byte {
	if req.kind == kindCompose {
		return s.edits[req.idx]
	}
	return s.configs[req.idx]
}

// addEdits generates the compose systems: the 16-module system, then n
// edits of it. Each edit changes one task's WCET in one module, chosen by
// the seed. Each module walks its (LOAD, RX) WCET grid in boustrophedon
// order, one step per edit, so no module returns to a state the service
// has seen: exactly one module is new at every compose.
func (s *stream) addEdits(seed int64, rng *rand.Rand, n int) error {
	sys := scaledMultiModule(seed)
	var load0 []int64
	for _, p := range sys.Partitions {
		load0 = append(load0, p.Tasks[1].WCET[0])
	}
	walk := make([]int, len(sys.Partitions))
	rxSpan := editRXHi - editRXLo + 1
	for e := 0; e <= n; e++ {
		if e > 0 {
			m := rng.Intn(len(walk))
			for tried := 0; walk[m]+1 >= editSpan*rxSpan; tried++ {
				if tried == len(walk) {
					return fmt.Errorf("compose edits exhausted after %d", e-1)
				}
				m = (m + 1) % len(walk)
			}
			walk[m]++
			row, col := walk[m]/rxSpan, walk[m]%rxSpan
			if row%2 == 1 {
				col = rxSpan - 1 - col
			}
			sys = sys.Clone()
			tasks := sys.Partitions[m].Tasks
			tasks[1].WCET[0] = load0[m] + int64(row)
			tasks[2].WCET[0] = int64(editRXLo + col)
		}
		var buf bytes.Buffer
		if err := sys.WriteXML(&buf); err != nil {
			return err
		}
		s.edits = append(s.edits, buf.Bytes())
	}
	return nil
}

// scaledMultiModule is gen.MultiModule(16, seed) with its time unit
// refined by timeScale, so each module's WCETs have room for many
// distinct schedulable edits.
func scaledMultiModule(seed int64) *config.System {
	sys := gen.MultiModule(composeModules, seed)
	sys.Name = fmt.Sprintf("service-multimodule-%d-s%d", composeModules, seed)
	for pi := range sys.Partitions {
		p := &sys.Partitions[pi]
		for ti := range p.Tasks {
			t := &p.Tasks[ti]
			t.Period *= timeScale
			t.Deadline *= timeScale
			for k := range t.WCET {
				t.WCET[k] *= timeScale
			}
		}
		for wi := range p.Windows {
			p.Windows[wi].Start *= timeScale
			p.Windows[wi].End *= timeScale
		}
	}
	for mi := range sys.Messages {
		sys.Messages[mi].NetDelay *= timeScale
	}
	return sys
}

// server is one running saserve process.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	exited chan error
	once   sync.Once // stop runs once
}

// startServer starts saserve on a free loopback port and waits for
// /readyz. The server has no store: results are cached in memory only.
// A store in the checkout would put an fsync on the device behind every
// miss and compose, and the service's timings would follow the device's
// other users rather than the program.
func startServer(o options, traced bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	spans := "0"
	if traced {
		spans = strconv.Itoa(1 << 17)
	}
	s := &server{url: "http://" + addr, exited: make(chan error, 1)}
	s.cmd = exec.Command(o.saserve, "-addr", addr, "-workers", saserveWorkers,
		"-trace-spans", spans, "-log-level", "warn")
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, even one that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("saserve exited before ready: %v: %s", err, s.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("saserve not ready after 30s: %s", s.stderr.String())
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() {
	s.once.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(15 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	})
}

// reply is what a client learned from one request.
type reply struct {
	req         request
	start, end  time.Time
	traceparent string
	spans       []obs.SpanRec // the server's span tree, fetched for a sample of a traced window
	status      int
	job         struct {
		Status      string `json:"status"`
		Verdict     string `json:"verdict"`
		CacheHit    bool   `json:"cache_hit"`
		Fingerprint string `json:"fingerprint"`
	}
	comp compose.Result
}

// serviceRunner drives the saserve processes of one window, one at a
// time.
type serviceRunner struct {
	o      options
	traced bool
	srv    *server
	st     *stream
	client *http.Client
}

// do sends one request and decodes the reply.
func (s *serviceRunner) do(req request, payload []byte) (*reply, error) {
	url := s.srv.url + "/v1/jobs?wait=true"
	if req.kind == kindCompose {
		url = s.srv.url + "/v1/compose"
	}
	rp := &reply{req: req, start: time.Now()}
	resp, err := s.client.Post(url, "application/xml", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.end = time.Now()
	if err != nil {
		return nil, err
	}
	rp.status = resp.StatusCode
	rp.traceparent = resp.Header.Get("Traceparent")
	if rp.status != http.StatusOK {
		return rp, nil
	}
	if req.kind == kindCompose {
		err = json.Unmarshal(data, &rp.comp)
	} else {
		err = json.Unmarshal(data, &rp.job)
	}
	return rp, err
}

// burst sends reqs over conns closed-loop connections, each taking the
// next request when its reply has arrived, and returns the replies with
// the burst's duration.
func (s *serviceRunner) burst(reqs []request, conns int) ([]*reply, time.Duration, error) {
	out := make([]*reply, len(reqs))
	errs := make([]error, conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs) && errs[c] == nil; i = int(next.Add(1) - 1) {
				out[i], errs[c] = s.do(reqs[i], s.st.payload(reqs[i]))
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, d, err
		}
	}
	return out, d, nil
}

// windowLog is what one window of rounds produced.
type windowLog struct {
	replies []*reply
	segment int              // index in replies of the current server's first reply
	busy    [3]time.Duration // per kind, the sum of its bursts' durations
	rounds  int
	rss     float64 // saserve's peak RSS after rssRounds rounds, MB
	rssReqs int     // requests served by then
}

// window runs rounds until d has passed and at least rssRounds rounds are
// done. Each round sends its misses and then its repeats on both
// connections, then its compose edits in order on one. Every
// segmentRounds rounds a fresh server takes over, outside the timed
// bursts: saserve's job registry keeps every outcome, so one process
// serving a whole 20 s window grows to gigabytes.
func (s *serviceRunner) window(d time.Duration) (*windowLog, error) {
	w := &windowLog{}
	start := time.Now()
	for ; w.rounds < rssRounds || time.Since(start) < d; w.rounds++ {
		if w.rounds == s.st.rounds() {
			return nil, fmt.Errorf("request stream exhausted after %d rounds in %s: raise roundsPerSecond", w.rounds, time.Since(start))
		}
		if w.rounds > 0 && w.rounds%segmentRounds == 0 {
			if err := s.handOver(w); err != nil {
				return nil, err
			}
		}
		for k, reqs := range s.st.round(w.rounds) {
			conns := clients
			if kind(k) == kindCompose {
				conns = 1
			}
			replies, dur, err := s.burst(reqs, conns)
			if err != nil {
				return nil, fmt.Errorf("%s request: %w", kindNames[k], err)
			}
			w.replies = append(w.replies, replies...)
			w.busy[k] += dur
		}
		if w.rounds+1 == rssRounds {
			var err error
			if w.rss, err = peakRSSMB(strconv.Itoa(s.srv.cmd.Process.Pid)); err != nil {
				return nil, err
			}
			w.rssReqs = len(w.replies)
		}
	}
	return w, s.fetchSpans(w)
}

// handOver replaces the server by a fresh one that has seen the compose
// system as the last round left it, so the next edit still re-analyses
// exactly one module.
func (s *serviceRunner) handOver(w *windowLog) error {
	if err := s.fetchSpans(w); err != nil {
		return err
	}
	s.srv.stop()
	w.segment = len(w.replies)
	return s.start(w.rounds * roundComposes)
}

// fetchSpans fetches, in a traced window, the span trees of the current
// server's sampled replies while that server still holds them.
func (s *serviceRunner) fetchSpans(w *windowLog) error {
	if !s.traced {
		return nil
	}
	for i := w.segment; i < len(w.replies); i++ {
		if i%traceEvery != 0 {
			continue
		}
		rp := w.replies[i]
		id := rp.comp.Trace
		if rp.req.kind != kindCompose {
			tc, ok := obs.ParseTraceparent(rp.traceparent)
			if !ok {
				return fmt.Errorf("submit reply without a traceparent")
			}
			id = tc.TraceString()
		}
		var err error
		if rp.spans, err = s.spans(id); err != nil {
			return err
		}
	}
	return nil
}

// setupService starts the first server of a window.
func setupService(o options, traced bool, st *stream) (*serviceRunner, error) {
	s := &serviceRunner{o: o, traced: traced, st: st, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
		Timeout:   60 * time.Second,
	}}
	return s, s.start(0)
}

// start starts the runner's server and warms it up: a compose of
// edits[edit], which analyses every module, and a few submits of
// configurations outside the stream.
func (s *serviceRunner) start(edit int) error {
	srv, err := startServer(s.o, s.traced)
	if err != nil {
		return err
	}
	s.srv = srv
	for i, payload := range append([][]byte{s.st.edits[edit]}, s.st.warm...) {
		req := request{kindMiss, -1}
		if i == 0 {
			req = request{kindCompose, edit}
		}
		rp, err := s.do(req, payload)
		if err == nil && rp.status != http.StatusOK {
			err = fmt.Errorf("status %d", rp.status)
		}
		if err != nil {
			srv.stop()
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

// serviceStats are the end-to-end series of one window.
type serviceStats struct {
	series [3]samples // latency per kind
	rps    [3]float64 // requests per second of the kind's bursts
}

func runService(o options, r *result) error {
	if o.saserve == "" {
		return fmt.Errorf("the service workload needs --saserve")
	}
	st, err := newStream(o.seed, o.window)
	if err != nil {
		return err
	}
	setup := func(traced bool) func() (*serviceRunner, error) {
		return func() (*serviceRunner, error) { return setupService(o, traced, st) }
	}
	stopRunner := func(s *serviceRunner) { s.srv.stop() }
	s, setupS, err := setupMedian(setupRuns, setup(false), stopRunner)
	if err != nil {
		return err
	}
	untraced, traced := halves(o)
	w, err := s.window(untraced)
	s.srv.stop()
	if err != nil {
		return err
	}
	oc := newOracle(st)
	defer oc.pool.Close()
	sv, err := checkReplies(r, oc, w)
	if err != nil {
		return err
	}
	miss, repeat, comp := sv.series[kindMiss], sv.series[kindRepeat], sv.series[kindCompose]
	r.e2e["setup_s"] = setupS
	r.e2e["peak_rss_mb"] = w.rss
	r.e2e["throughput_per_s"] = sv.rps[kindMiss]
	r.e2e["leg1_ms"] = repeat.median() * 1e3
	r.e2e["leg2_ms"] = comp.median() * 1e3
	r.e2e["leg3_ms"] = miss.quantile(0.9) * 1e3

	r.rep.add("setup_s", setupS, "s", fmt.Sprintf("median of %d: saserve start to /readyz, first compose, %d submits", setupRuns, warmSubmits))
	r.rep.add("peak_rss_mb", w.rss, "MB", fmt.Sprintf("saserve, after %d rounds (%d requests)", rssRounds, w.rssReqs))
	r.rep.add("error_rate", errorRate(r), "ratio", fmt.Sprintf("%d failed of %d", r.failed, r.attempted))
	r.rep.add("rounds", float64(w.rounds), "count", fmt.Sprintf("of %d misses, %d repeats, %d compose edits each", roundSubmits, roundSubmits, roundComposes))
	r.rep.add("miss_rps", sv.rps[kindMiss], "1/s", fmt.Sprintf("%d clients", clients))
	r.rep.timing("miss_p50_ms", miss, "ms", 1e3)
	r.rep.add("miss_p90_ms", miss.quantile(0.9)*1e3, "ms", fmt.Sprintf("n=%d", len(miss)))
	r.rep.add("miss_p99_ms", miss.quantile(0.99)*1e3, "ms", fmt.Sprintf("n=%d", len(miss)))
	r.rep.add("repeat_rps", sv.rps[kindRepeat], "1/s", fmt.Sprintf("%d clients", clients))
	r.rep.timing("repeat_p50_ms", repeat, "ms", 1e3)
	r.rep.add("compose_edits_per_s", sv.rps[kindCompose], "1/s", "1 client")
	r.rep.timing("compose_edit_p50_ms", comp, "ms", 1e3)

	if o.trace {
		s, err := setup(true)()
		if err != nil {
			return err
		}
		w, err := s.window(traced)
		s.srv.stop()
		if err != nil {
			return err
		}
		acc := newAccounting()
		traceReplies(r, w.replies, acc)
		ts, err := checkReplies(r, oc, w)
		if err != nil {
			return err
		}
		r.addAccounting(acc)
		r.layer["tracing_overhead"] = ts.series[kindMiss].median()/miss.median() - 1
		r.rep.timing("traced miss_p50_ms", ts.series[kindMiss], "ms", 1e3)
	}
	return nil
}

// oracle holds in-process answers to the stream's requests, computed
// outside the timed windows and shared by them.
type oracle struct {
	st       *stream
	verdicts map[int]jobs.Verdict
	composed []*compose.Result // composed[i] answers edits[i]
	pool     *jobs.Pool
	an       *compose.Analyzer
}

func newOracle(st *stream) *oracle {
	pool := jobs.New(jobs.Options{Workers: clients, Backend: nsa.BackendCompiled, CacheSize: 4096})
	return &oracle{st: st, verdicts: map[int]jobs.Verdict{}, pool: pool, an: compose.New(pool, nil, nil)}
}

// checkReplies verifies every reply of a window against the oracle and
// returns the window's end-to-end series.
func checkReplies(r *result, oc *oracle, w *windowLog) (*serviceStats, error) {
	if err := oc.answer(w.replies); err != nil {
		return nil, err
	}
	sv := &serviceStats{}
	for _, rp := range w.replies {
		sv.series[rp.req.kind].add(rp.end.Sub(rp.start))
		if rp.req.kind == kindCompose {
			want := oc.composed[rp.req.idx]
			r.check(rp.status == http.StatusOK && rp.comp.Verdict == want.Verdict && rp.comp.Compositional == want.Compositional &&
				rp.comp.ModulesAnalyzed == 1,
				"compose edit %d: status %d, verdict %s, compositional %t, %d analyzed; want 200, %s, %t, 1",
				rp.req.idx, rp.status, rp.comp.Verdict, rp.comp.Compositional, rp.comp.ModulesAnalyzed, want.Verdict, want.Compositional)
			continue
		}
		want := oc.verdicts[rp.req.idx]
		r.check(rp.status == http.StatusOK && rp.job.Status == string(jobs.StatusDone) && rp.job.Verdict == string(want),
			"%s submit of configuration %d: status %d, job %s, verdict %s; want 200, done, %s",
			kindNames[rp.req.kind], rp.req.idx, rp.status, rp.job.Status, rp.job.Verdict, want)
	}
	for k := range sv.rps {
		sv.rps[k] = float64(len(sv.series[k])) / w.busy[k].Seconds()
	}
	return sv, nil
}

// answer computes the answers the replies need and the oracle lacks:
// submitted configurations are parsed from the bytes sent and analysed
// on two goroutines; compose edits are replayed in order on one analyzer
// whose pool caches module results in memory.
func (oc *oracle) answer(replies []*reply) error {
	var need []int
	last := -1
	for _, rp := range replies {
		if rp.req.kind == kindCompose {
			last = max(last, rp.req.idx)
		} else if _, ok := oc.verdicts[rp.req.idx]; rp.req.kind == kindMiss && !ok {
			need = append(need, rp.req.idx)
		}
	}
	work := make(chan int)
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				v, err := inProcessVerdict(oc.st.configs[i])
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("in-process run of configuration %d: %w", i, err)
				}
				oc.verdicts[i] = v
				mu.Unlock()
			}
		}()
	}
	for _, i := range need {
		work <- i
	}
	close(work)
	wg.Wait()
	if first != nil {
		return first
	}
	for i := len(oc.composed); i <= last; i++ {
		sys, err := config.ReadXML(bytes.NewReader(oc.st.edits[i]))
		if err == nil {
			var res *compose.Result
			res, err = oc.an.Run(context.Background(), sys)
			oc.composed = append(oc.composed, res)
		}
		if err != nil {
			return fmt.Errorf("in-process compose of edit %d: %w", i, err)
		}
	}
	return nil
}

// inProcessVerdict runs the service's pipeline on one configuration in
// this process.
func inProcessVerdict(xml []byte) (jobs.Verdict, error) {
	sys, err := config.ReadXML(bytes.NewReader(xml))
	if err != nil {
		return "", err
	}
	out, err := jobs.ConfigRun{Sys: sys, Backend: nsa.BackendCompiled}.Run(context.Background(), nsa.Budget{})
	if err != nil {
		return "", err
	}
	return out.Verdict, nil
}

// traceReplies adds each reply whose span tree was fetched as one
// operation: the client's round trip with the server's spans grafted
// under it.
func traceReplies(r *result, replies []*reply, acc *accounting) {
	var overhead samples
	var hits, repeats, analyzed, cached, composes int
	computed := map[string]int{}
	for _, rp := range replies {
		switch rp.req.kind {
		case kindCompose:
			composes++
			analyzed += rp.comp.ModulesAnalyzed
			cached += rp.comp.ModulesCached
			continue
		case kindRepeat:
			repeats++
			if rp.job.CacheHit {
				hits++
			}
		}
		if !rp.job.CacheHit {
			computed[rp.job.Fingerprint]++
		}
	}
	for _, rp := range replies {
		if rp.spans == nil {
			continue
		}
		t := newTree(rp.start)
		t.finish(rp.end)
		c := t.add("http.client", 0, rp.start, rp.end)
		t.graft(rp.spans, c)
		acc.addTree(t)
		if rp.req.kind != kindCompose {
			overhead = append(overhead, rp.end.Sub(rp.start).Seconds()-jobExtent(rp.spans))
		}
	}
	L := r.layer
	L["http.overhead_s"] = overhead.median()
	L["model.build_s"] = acc.durs[obs.PhaseBuild].median()
	L["nsa.interpret_s"] = acc.durs[obs.PhaseInterpret].median()
	L["trace.check_s"] = acc.durs[obs.PhaseCheck].median()
	L["compose.plan_s"] = acc.durs[obs.PhasePlan].median()
	L["jobs.queue_wait_s"] = acc.durs["jobs.queue"].median()
	L["jobs.run_s"] = acc.durs["jobs.run"].median()
	L["store.put_s"] = acc.durs["store.put"].median()
	L["store.get_s"] = acc.durs["store.get"].median()
	if runs := acc.durs["jobs.run"].sum(); runs > 0 {
		L["model.build_share"] = acc.durs[obs.PhaseBuild].sum() / runs
	}
	if repeats > 0 {
		L["jobs.cache_hit_ratio"] = float64(hits) / float64(repeats)
	}
	dup := 0
	for _, n := range computed {
		dup += n - 1
	}
	L["jobs.duplicate_computes"] = float64(dup)
	if n := analyzed + cached; n > 0 {
		L["compose.modules_analyzed"] = float64(analyzed) / float64(composes)
		L["compose.modules_cached_ratio"] = float64(cached) / float64(n)
	}
	var composeRun samples
	for _, rp := range replies {
		if rp.req.kind == kindCompose {
			composeRun = append(composeRun, float64(rp.comp.ElapsedNS)/1e9)
		}
	}
	L["compose.run_s"] = composeRun.median()
}

// spans fetches one trace from GET /v1/traces/{id} and flattens the tree.
func (s *serviceRunner) spans(id string) ([]obs.SpanRec, error) {
	resp, err := s.client.Get(s.srv.url + "/v1/traces/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/traces/%s: status %d", id, resp.StatusCode)
	}
	var roots []*obs.SpanNode
	if err := json.NewDecoder(resp.Body).Decode(&roots); err != nil {
		return nil, err
	}
	var out []obs.SpanRec
	var walk func([]*obs.SpanNode)
	walk = func(ns []*obs.SpanNode) {
		for _, n := range ns {
			out = append(out, n.SpanRec)
			walk(n.Children)
		}
	}
	walk(roots)
	return out, nil
}

// jobExtent is the server-side time of one submit: from the jobs.submit
// span's start to the end of the job's run (or of the submit itself, for
// a cache hit).
func jobExtent(recs []obs.SpanRec) float64 {
	var start, end int64
	for _, rc := range recs {
		switch rc.Name {
		case "jobs.submit":
			start = rc.StartNS
			end = max(end, rc.StartNS+rc.DurNS)
		case "jobs.run":
			end = max(end, rc.StartNS+rc.DurNS)
		}
	}
	if start == 0 {
		return 0
	}
	return float64(end-start) / 1e9
}
