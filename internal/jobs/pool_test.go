package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/nsa"
)

// testSystem returns a small schedulable single-core configuration; wcet
// perturbs the low-priority task so distinct arguments yield distinct
// fingerprints.
func testSystem(wcet int64) *config.System {
	return &config.System{
		Name:      "pool-test",
		CoreTypes: []string{"cpu"},
		Cores:     []config.Core{{Name: "c1", Type: 0, Module: 1}},
		Partitions: []config.Partition{
			{
				Name: "P1", Core: 0, Policy: config.FPPS,
				Tasks: []config.Task{
					{Name: "hi", Priority: 2, WCET: []int64{2}, Period: 10, Deadline: 10},
					{Name: "lo", Priority: 1, WCET: []int64{wcet}, Period: 20, Deadline: 20},
				},
				Windows: []config.Window{{Start: 0, End: 20}},
			},
		},
	}
}

func TestPoolRunsConfigJob(t *testing.T) {
	p := New(Options{Workers: 2})
	defer p.Close()
	jb, err := p.Submit(ConfigRun{Sys: testSystem(9)})
	if err != nil {
		t.Fatal(err)
	}
	if jb.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	got, err := p.Wait(context.Background(), jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone {
		t.Fatalf("status = %s (err=%v)", got.Status, got.Err)
	}
	if got.Outcome == nil || got.Outcome.Verdict != VerdictSchedulable {
		t.Fatalf("outcome = %+v, want schedulable", got.Outcome)
	}
	if got.Outcome.Analysis == nil || len(got.Outcome.Analysis.Jobs) != 3 {
		t.Fatalf("analysis missing or wrong job count: %+v", got.Outcome.Analysis)
	}
}

func TestPoolCacheHitOnResubmission(t *testing.T) {
	p := New(Options{Workers: 1})
	defer p.Close()
	first, err := p.Submit(ConfigRun{Sys: testSystem(9)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	// Same content, independently constructed value.
	second, err := p.Submit(ConfigRun{Sys: testSystem(9)})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.Status != StatusDone {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	done, _ := p.Wait(context.Background(), second.ID)
	if done.Outcome == nil || done.Outcome.Verdict != VerdictSchedulable {
		t.Fatalf("cached outcome = %+v", done.Outcome)
	}
	m := p.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	// A different configuration must miss.
	third, err := p.Submit(ConfigRun{Sys: testSystem(8)})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("distinct configuration hit the cache")
	}
}

func TestPoolQueueBackpressure(t *testing.T) {
	block := make(chan struct{})
	p := New(Options{Workers: 1, QueueDepth: 1, CacheSize: -1})
	defer p.Close()
	defer close(block)
	// Occupy the worker, then fill the queue.
	if _, err := p.Submit(funcRunner{key: "w", run: func(ctx context.Context) error {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p)
	if _, err := p.Submit(funcRunner{key: "q"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(funcRunner{key: "x"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestPoolCancelQueuedAndRunning(t *testing.T) {
	started := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	p := New(Options{Workers: 1, QueueDepth: 4, CacheSize: -1})
	defer p.Close()

	running, err := p.Submit(funcRunner{key: "r", run: func(ctx context.Context) error {
		close(started)
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := p.Submit(funcRunner{key: "q"})
	if err != nil {
		t.Fatal(err)
	}

	if !p.Cancel(queued.ID) {
		t.Fatal("cancel of queued job refused")
	}
	got, _ := p.Get(queued.ID)
	if got.Status != StatusCanceled {
		t.Fatalf("queued job status = %s, want canceled", got.Status)
	}

	if !p.Cancel(running.ID) {
		t.Fatal("cancel of running job refused")
	}
	got, err = p.Wait(context.Background(), running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusCanceled {
		t.Fatalf("running job status = %s err=%v, want canceled", got.Status, got.Err)
	}
	if p.Cancel(running.ID) {
		t.Fatal("cancel of terminal job accepted")
	}
	if p.Cancel("j999999") {
		t.Fatal("cancel of unknown job accepted")
	}
}

// TestPoolCoalescesInflightDuplicates: identical submissions racing one
// another while their run is in flight compute once; every duplicate
// finishes with the shared outcome as a cache hit.
func TestPoolCoalescesInflightDuplicates(t *testing.T) {
	var runs atomic.Int32
	release := make(chan struct{})
	r := funcRunner{key: "same", run: func(ctx context.Context) error {
		runs.Add(1)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
	// No result cache: only coalescing can keep the duplicates from running.
	p := New(Options{Workers: 2, CacheSize: -1})
	defer p.Close()

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jb, err := p.Submit(r)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = jb.ID
		}()
	}
	wg.Wait()
	close(release)

	var outcome *Outcome
	hits := 0
	for _, id := range ids {
		got, err := p.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != StatusDone {
			t.Fatalf("%s: status %s (err=%v)", id, got.Status, got.Err)
		}
		if outcome == nil {
			outcome = got.Outcome
		} else if got.Outcome != outcome {
			t.Errorf("%s: outcome not shared with the computing job", id)
		}
		if got.CacheHit {
			hits++
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
	if hits != n-1 {
		t.Errorf("cache hits = %d, want %d", hits, n-1)
	}
	m := p.Metrics()
	if m.Done != n || m.CacheHits != n-1 || m.Queued != 0 || m.Running != 0 {
		t.Errorf("metrics done=%d hits=%d queued=%d running=%d, want %d/%d/0/0",
			m.Done, m.CacheHits, m.Queued, m.Running, n, n-1)
	}
}

// TestPoolCoalescedCancel: canceling a waiting duplicate leaves the run
// alone, and canceling the running job hands its computation to the
// duplicate still waiting on it.
func TestPoolCoalescedCancel(t *testing.T) {
	var runs atomic.Int32
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	r := funcRunner{key: "same", run: func(ctx context.Context) error {
		runs.Add(1)
		started <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
	p := New(Options{Workers: 1, CacheSize: -1})
	defer p.Close()

	lead, err := p.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	dropped, err := p.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := p.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Cancel(dropped.ID) {
		t.Fatal("cancel of a waiting duplicate refused")
	}
	if !p.Cancel(lead.ID) {
		t.Fatal("cancel of the running job refused")
	}
	<-started // the surviving duplicate took the computation over
	close(release)

	want := map[string]Status{lead.ID: StatusCanceled, dropped.ID: StatusCanceled, kept.ID: StatusDone}
	for id, st := range want {
		got, err := p.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != st {
			t.Errorf("%s: status %s, want %s (err=%v)", id, got.Status, st, got.Err)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("runs = %d, want 2", got)
	}
	if m := p.Metrics(); m.Queued != 0 || m.Running != 0 || m.Canceled != 2 || m.Done != 1 {
		t.Errorf("metrics queued=%d running=%d canceled=%d done=%d, want 0/0/2/1",
			m.Queued, m.Running, m.Canceled, m.Done)
	}
}

// TestPoolCoalescedFailureHandsOff: a duplicate attached to a run that
// fails is not failed with it; it takes the computation over under its
// own budget.
func TestPoolCoalescedFailureHandsOff(t *testing.T) {
	release := make(chan struct{})
	blocker := funcRunner{key: "blocker", run: func(ctx context.Context) error {
		<-release
		return nil
	}}
	p := New(Options{Workers: 1, CacheSize: -1})
	defer p.Close()

	if _, err := p.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p)
	// Both queue behind the blocker, so the second attaches to the first.
	r := ConfigRun{Sys: testSystem(9)}
	lead, err := p.SubmitBudget(r, nsa.Budget{MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := p.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	close(release)

	got, err := p.Wait(context.Background(), lead.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rerr *nsa.RunError
	if got.Status != StatusFailed || !errors.As(got.Err, &rerr) {
		t.Fatalf("lead: status %s err %v, want failed with *nsa.RunError", got.Status, got.Err)
	}
	got, err = p.Wait(context.Background(), dup.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || got.CacheHit {
		t.Fatalf("duplicate: status %s cache hit %v (err=%v), want done by its own run",
			got.Status, got.CacheHit, got.Err)
	}
	if m := p.Metrics(); m.Queued != 0 || m.Running != 0 || m.Failed != 1 || m.Done != 2 || m.CacheHits != 0 {
		t.Errorf("metrics queued=%d running=%d failed=%d done=%d hits=%d, want 0/0/1/2/0",
			m.Queued, m.Running, m.Failed, m.Done, m.CacheHits)
	}
}

func TestPoolBudgetExhaustionFailsJob(t *testing.T) {
	p := New(Options{Workers: 1, Budget: nsa.Budget{MaxSteps: 1}, Tool: "test"})
	defer p.Close()
	jb, err := p.Submit(ConfigRun{Sys: testSystem(9)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Wait(context.Background(), jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", got.Status)
	}
	if got.Report == nil || got.Report.Tool != "test" {
		t.Fatalf("report = %+v, want tool=test", got.Report)
	}
	var rerr *nsa.RunError
	if !errors.As(got.Err, &rerr) {
		t.Fatalf("err = %v, want *nsa.RunError", got.Err)
	}
}

func TestPoolWaitContext(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	p := New(Options{Workers: 1, CacheSize: -1})
	defer p.Close()
	jb, err := p.Submit(funcRunner{key: "slow", run: func(ctx context.Context) error {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.Wait(ctx, jb.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if _, err := p.Wait(context.Background(), "j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

func TestPoolCloseCancelsQueued(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	p := New(Options{Workers: 1, QueueDepth: 8, CacheSize: -1})
	if _, err := p.Submit(funcRunner{key: "w", run: func(ctx context.Context) error {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p)
	queued, err := p.Submit(funcRunner{key: "q"})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	got, _ := p.Get(queued.ID)
	if !got.Status.Terminal() {
		t.Fatalf("queued job not terminal after Close: %s", got.Status)
	}
	if _, err := p.Submit(funcRunner{key: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestPoolConcurrentSubmitCancelLookup hammers the registry from many
// goroutines; run with -race it is the pool's data-race probe.
func TestPoolConcurrentSubmitCancelLookup(t *testing.T) {
	p := New(Options{Workers: 4, QueueDepth: 512, CacheSize: 64})
	defer p.Close()
	const n = 48
	var wg sync.WaitGroup
	ids := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Eight distinct configurations: plenty of cache collisions.
			jb, err := p.Submit(ConfigRun{Sys: testSystem(int64(2 + i%8))})
			if err != nil {
				if errors.Is(err, ErrQueueFull) {
					return
				}
				t.Error(err)
				return
			}
			ids <- jb.ID
			if i%5 == 0 {
				p.Cancel(jb.ID)
			}
			if _, err := p.Wait(context.Background(), jb.ID); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Concurrent readers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				p.List()
				p.Metrics()
				select {
				case id := <-ids:
					p.Get(id)
				default:
				}
			}
		}()
	}
	wg.Wait()
	for _, jb := range p.List() {
		if !jb.Status.Terminal() {
			got, err := p.Wait(context.Background(), jb.ID)
			if err != nil {
				t.Fatal(err)
			}
			jb = got
		}
		if jb.Status == StatusFailed {
			t.Errorf("job %s failed: %v", jb.ID, jb.Err)
		}
	}
	m := p.Metrics()
	if m.Queued != 0 || m.Running != 0 {
		t.Errorf("gauges not drained: queued=%d running=%d", m.Queued, m.Running)
	}
	if m.Submitted != m.Done+m.Failed+m.Canceled {
		t.Errorf("counter imbalance: %+v", m)
	}
}

func TestXTARun(t *testing.T) {
	const src = `
const int PERIOD = 3;
int count = 0;
chan tick;

process Emitter() {
    clock t;
    state W { t <= PERIOD };
    init W;
    trans W -> W { guard t == PERIOD; sync tick!; assign t := 0; };
}

process Counter() {
    state C;
    init C;
    trans C -> C { sync tick?; assign count := count + 1; };
}

system Emitter(), Counter();
`
	p := New(Options{Workers: 1})
	defer p.Close()
	jb, err := p.Submit(XTARun{Src: src, Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Wait(context.Background(), jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || got.Outcome.Verdict != VerdictCompleted {
		t.Fatalf("status=%s outcome=%+v err=%v", got.Status, got.Outcome, got.Err)
	}
	if len(got.Outcome.Sync) == 0 {
		t.Fatal("no synchronization events rendered")
	}
	// Identical source: cache hit; different horizon: miss.
	again, err := p.Submit(XTARun{Src: src, Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("identical XTA run missed the cache")
	}
	other, err := p.Submit(XTARun{Src: src, Horizon: 21})
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Fatal("different horizon hit the cache")
	}
}

// TestPoolParallelism proves the pool genuinely overlaps runs: four
// blocking jobs on four workers must all be in flight at once before any
// is released — the mechanism behind the sweep's wall-clock speedup.
func TestPoolParallelism(t *testing.T) {
	const workers = 4
	p := New(Options{Workers: workers, QueueDepth: workers, CacheSize: -1})
	defer p.Close()
	var mu sync.Mutex
	inflight, peak := 0, 0
	all := make(chan struct{})
	for i := 0; i < workers; i++ {
		_, err := p.Submit(funcRunner{key: fmt.Sprintf("par%d", i), run: func(ctx context.Context) error {
			mu.Lock()
			inflight++
			if inflight > peak {
				peak = inflight
			}
			if inflight == workers {
				close(all)
			}
			mu.Unlock()
			select {
			case <-all: // released only when every job is running
			case <-ctx.Done():
			}
			mu.Lock()
			inflight--
			mu.Unlock()
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, jb := range p.List() {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		got, err := p.Wait(ctx, jb.ID)
		cancel()
		if err != nil || got.Status != StatusDone {
			t.Fatalf("job %s: status=%s err=%v", jb.ID, got.Status, err)
		}
	}
	if peak != workers {
		t.Fatalf("peak concurrency = %d, want %d", peak, workers)
	}
}

// funcRunner adapts a function to Runner for scheduling-behaviour tests.
type funcRunner struct {
	key string
	run func(ctx context.Context) error
}

func (r funcRunner) Key() string { return r.key }

func (r funcRunner) Run(ctx context.Context, _ nsa.Budget) (*Outcome, error) {
	if r.run != nil {
		if err := r.run(ctx); err != nil {
			return nil, err
		}
	}
	return &Outcome{Verdict: VerdictCompleted}, nil
}

// waitRunning blocks until some job reports running.
func waitRunning(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Metrics().Running > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no job started running")
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	out := func(v Verdict) *Outcome { return &Outcome{Verdict: v} }
	c.Put("a", out("1"))
	c.Put("b", out("2"))
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", out("3"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	// nil cache and empty keys are inert.
	var nilCache *Cache
	nilCache.Put("x", out("4"))
	if _, ok := nilCache.Get("x"); ok {
		t.Fatal("nil cache hit")
	}
	c.Put("", out("5"))
	if _, ok := c.Get(""); ok {
		t.Fatal("empty key cached")
	}
}

// TestCacheConcurrent is the cache's -race probe: concurrent Put/Get/Len
// over a small key space with constant eviction.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				if i%3 == 0 {
					c.Put(k, &Outcome{Verdict: VerdictCompleted})
				} else {
					c.Get(k)
				}
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}
