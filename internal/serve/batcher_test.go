package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiledl/internal/leakcheck"
	"mobiledl/internal/tensor"
	"mobiledl/internal/trace"
)

// echoExec returns each row's first feature as its class and records the
// batch sizes and options it saw.
type echoExec struct {
	mu    sync.Mutex
	sizes []int
	opts  []RequestOptions
}

func (e *echoExec) run(_ context.Context, batch *tensor.Matrix, opts RequestOptions) ([]Result, error) {
	e.mu.Lock()
	e.sizes = append(e.sizes, batch.Rows())
	e.opts = append(e.opts, opts)
	e.mu.Unlock()
	out := make([]Result, batch.Rows())
	for i := range out {
		out[i] = Result{Class: int(batch.At(i, 0)), ModelVersion: opts.Version}
	}
	return out, nil
}

func (e *echoExec) batchSizes() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.sizes...)
}

func (e *echoExec) seenOpts() []RequestOptions {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]RequestOptions(nil), e.opts...)
}

func TestBatcherFullBatchFlush(t *testing.T) {
	exec := &echoExec{}
	// Long MaxDelay: only the size trigger can flush within the test.
	b, err := NewBatcher(2, BatcherConfig{MaxBatch: 4, MaxDelay: time.Minute, Workers: 1}, exec.run, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	results := make([]Result, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Submit(context.Background(), []float64{float64(i), 0}, RequestOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.Class != i {
			t.Fatalf("row %d answered %d", i, res.Class)
		}
		if res.BatchSize != 4 {
			t.Fatalf("row %d ran in batch of %d, want 4 (size-triggered flush)", i, res.BatchSize)
		}
	}
	if sizes := exec.batchSizes(); len(sizes) != 1 || sizes[0] != 4 {
		t.Fatalf("executor saw batches %v, want one batch of 4", sizes)
	}
}

func TestBatcherTimeoutFlush(t *testing.T) {
	exec := &echoExec{}
	b, err := NewBatcher(1, BatcherConfig{MaxBatch: 64, MaxDelay: 5 * time.Millisecond}, exec.run, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	start := time.Now()
	res, err := b.Submit(context.Background(), []float64{7}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != 7 || res.BatchSize != 1 {
		t.Fatalf("got class=%d batch=%d, want a timed-out singleton batch", res.Class, res.BatchSize)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("flushed after %v, before the %v latency budget", elapsed, 5*time.Millisecond)
	}
	// The timer must re-arm for the next partial batch.
	if _, err := b.Submit(context.Background(), []float64{8}, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if sizes := exec.batchSizes(); len(sizes) != 2 {
		t.Fatalf("executor saw batches %v, want two timeout flushes", sizes)
	}
}

// TestBatcherSplitsMixedOptions pins down the grouping contract: rows with
// different execution-relevant options in one flush run as separate uniform
// exec calls, in arrival order of first appearance, while identical options
// stay coalesced.
func TestBatcherSplitsMixedOptions(t *testing.T) {
	exec := &echoExec{}
	b, err := NewBatcher(1, BatcherConfig{MaxBatch: 6, MaxDelay: time.Minute, Workers: 1}, exec.run, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// 6 submitters: rows 0,2,4 default options; rows 1,3,5 pinned to v2.
	var wg sync.WaitGroup
	results := make([]Result, 6)
	errs := make([]error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := RequestOptions{}
			if i%2 == 1 {
				opts.Version = 2
			}
			results[i], errs[i] = b.Submit(context.Background(), []float64{float64(i)}, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	for i, res := range results {
		if res.Class != i {
			t.Fatalf("row %d answered %d", i, res.Class)
		}
		wantVersion := 0
		if i%2 == 1 {
			wantVersion = 2
		}
		if res.ModelVersion != wantVersion {
			t.Fatalf("row %d executed under version %d, want %d", i, res.ModelVersion, wantVersion)
		}
		if res.BatchSize != 3 {
			t.Fatalf("row %d ran in sub-batch of %d, want 3", i, res.BatchSize)
		}
	}
	sizes := exec.batchSizes()
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 3 {
		t.Fatalf("executor saw batches %v, want two uniform groups of 3", sizes)
	}
	seen := exec.seenOpts()
	if seen[0] == seen[1] {
		t.Fatalf("both groups ran under the same options: %+v", seen)
	}
}

func TestBatcherValidationAndClose(t *testing.T) {
	leakcheck.Check(t)
	exec := &echoExec{}
	b, err := NewBatcher(3, BatcherConfig{MaxBatch: 2, MaxDelay: time.Millisecond}, exec.run, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(context.Background(), []float64{1}, RequestOptions{}); !errors.Is(err, ErrRequest) {
		t.Fatalf("dim mismatch: %v", err)
	}
	if _, err := b.Submit(context.Background(), []float64{1, 2, 3}, RequestOptions{TopK: -1}); !errors.Is(err, ErrRequest) {
		t.Fatalf("negative top_k: %v", err)
	}
	if _, err := b.Submit(context.Background(), []float64{1, 2, 3}, RequestOptions{Version: -2}); !errors.Is(err, ErrRequest) {
		t.Fatalf("negative version: %v", err)
	}
	if _, err := b.Submit(context.Background(), []float64{1, 2, 3}, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	b.Close() // idempotent
	if _, err := b.Submit(context.Background(), []float64{1, 2, 3}, RequestOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestBatcherExecErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	b, err := NewBatcher(1, BatcherConfig{MaxBatch: 2, MaxDelay: time.Minute, Workers: 1},
		func(context.Context, *tensor.Matrix, RequestOptions) ([]Result, error) { return nil, boom }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	var failures atomic.Int32
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), []float64{1}, RequestOptions{}); errors.Is(err, boom) {
				failures.Add(1)
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 2 {
		t.Fatalf("%d of 2 submitters saw the executor error", failures.Load())
	}
}

// TestBatcherCloseCancelsExecContext pins the shutdown seam: a backend that
// honors the execution context unblocks when Close fires, so a hung
// external backend cannot wedge Close's wait.
func TestBatcherCloseCancelsExecContext(t *testing.T) {
	b, err := NewBatcher(1, BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 1},
		func(ctx context.Context, m *tensor.Matrix, _ RequestOptions) ([]Result, error) {
			<-ctx.Done() // a ctx-honoring backend stuck on external work
			return nil, ctx.Err()
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), []float64{1}, RequestOptions{})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond) // let the batch reach the stuck exec
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a ctx-honoring backend")
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted request error: %v", err)
	}
}

func TestBatcherContextCancel(t *testing.T) {
	block := make(chan struct{})
	b, err := NewBatcher(1, BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 1},
		func(_ context.Context, m *tensor.Matrix, _ RequestOptions) ([]Result, error) {
			<-block
			return make([]Result, m.Rows()), nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, []float64{1}, RequestOptions{})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v", err)
	}
	close(block)
	b.Close()
}

// Per-row exec behaviours of TestBatcherAnswersExactlyOnce, carried in the
// row's second feature; the first row of a batch decides for the batch.
const (
	rowEcho  = 0 // answer each row's first feature as its class
	rowFail  = 1 // fail the batch with the injected error
	rowBlock = 2 // block until the exec context is done, then fail
)

// TestBatcherAnswersExactlyOnce states the batcher's answer guarantee as a
// property. Each seed draws a batching and admission config, then races
// submitters with mixed options and contexts (background, cancelled after a
// random delay, short deadline) against an exec that echoes, fails, or
// blocks until its context is done, and closes the batcher at a random
// point. Every Submit must return exactly one allowed outcome: its own
// echoed class, a shed or closed refusal, its own context error, or the
// injected error. After Close no admitted request may stay unanswered or be
// answered twice (Inflight is 0), and no goroutine may outlive the batcher.
func TestBatcherAnswersExactlyOnce(t *testing.T) {
	leakcheck.Check(t)
	errInjected := errors.New("injected exec failure")
	exec := func(ctx context.Context, batch *tensor.Matrix, _ RequestOptions) ([]Result, error) {
		switch int(batch.At(0, 1)) {
		case rowFail:
			return nil, errInjected
		case rowBlock:
			<-ctx.Done()
			return nil, fmt.Errorf("%w: %w", errInjected, ctx.Err())
		}
		out := make([]Result, batch.Rows())
		for i := range out {
			out[i].Class = int(batch.At(i, 0))
		}
		return out, nil
	}
	const submitters = 32
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := BatcherConfig{
			MaxBatch:    1 + rng.Intn(8),
			MaxDelay:    time.Duration(50+rng.Intn(500)) * time.Microsecond,
			Workers:     1 + rng.Intn(3),
			QueueCap:    1 + rng.Intn(16),
			MaxInflight: -1,
		}
		if rng.Intn(2) == 0 {
			cfg.MaxInflight = 1 + rng.Intn(16)
		}
		b, err := NewBatcher(2, cfg, exec, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.logger = slog.New(slog.NewTextHandler(io.Discard, nil))

		// Draw every submitter's plan up front: rng is not goroutine-safe.
		type plan struct {
			start, ctxAfter time.Duration
			ctxKind, row    int
			opts            RequestOptions
		}
		plans := make([]plan, submitters)
		for i := range plans {
			p := &plans[i]
			p.start = time.Duration(rng.Intn(1500)) * time.Microsecond
			p.ctxKind = rng.Intn(3) // background, cancel, deadline
			p.ctxAfter = time.Duration(rng.Intn(1000)) * time.Microsecond
			p.opts = RequestOptions{TopK: rng.Intn(3)}
			switch r := rng.Intn(10); {
			case r < 7:
				p.row = rowEcho
			case r < 9:
				p.row = rowFail
			default:
				p.row = rowBlock
			}
		}
		closeAfter := time.Duration(rng.Intn(2000)) * time.Microsecond

		var wg sync.WaitGroup
		bad := make(chan string, submitters)
		for i, p := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(p.start)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				switch p.ctxKind {
				case 1:
					ctx, cancel = context.WithCancel(ctx)
					timer := time.AfterFunc(p.ctxAfter, cancel)
					defer timer.Stop()
				case 2:
					ctx, cancel = context.WithTimeout(ctx, p.ctxAfter)
				}
				defer cancel()
				res, err := b.Submit(ctx, []float64{float64(i), float64(p.row)}, p.opts)
				switch {
				case err == nil:
					if res.Class != i {
						bad <- fmt.Sprintf("submitter %d got class %d", i, res.Class)
					}
				case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed), errors.Is(err, errInjected):
				case ctx.Err() != nil && errors.Is(err, ctx.Err()):
				default:
					bad <- fmt.Sprintf("submitter %d (ctx kind %d): unexpected error %v", i, p.ctxKind, err)
				}
			}()
		}
		time.Sleep(closeAfter)
		b.Close()
		if n := b.Inflight(); n != 0 {
			t.Fatalf("seed %d: Inflight() = %d after Close, want 0", seed, n)
		}
		wg.Wait()
		close(bad)
		for msg := range bad {
			t.Errorf("seed %d %+v: %s", seed, cfg, msg)
		}
	}
}

// Submit is submit with the span taken from ctx.
func (b *Batcher) Submit(ctx context.Context, features []float64, opts RequestOptions) (Result, error) {
	return b.submit(ctx, features, opts, trace.SpanFrom(ctx))
}
