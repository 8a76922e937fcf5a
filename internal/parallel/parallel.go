// Package parallel is the concurrency substrate of the cleaning
// pipeline: a bounded worker pool exposed as chunked parallel-for
// loops and an errgroup-style join, all with a per-call concurrency
// override.
//
// Every helper obeys one contract: the result is byte-identical no
// matter how many workers run. Disjoint-write loops (For, ForWith,
// ForRange) get this for free because every index writes only its own
// output slot. A caller that reduces across chunks (nn.Train's
// gradient sums, KNN's per-chunk nearest neighbours) gets it by fixing
// the chunk decomposition as a function of the input size alone
// (NumChunks) — never of the worker count — and folding the per-chunk
// partial results in chunk order on a single goroutine. Floating-point
// reductions therefore produce the same bits at concurrency 1 and
// concurrency N, which is what lets the pipeline promise "same output,
// any core count" and what the determinism tests across the repository
// enforce.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a concurrency setting: n when positive, otherwise
// GOMAXPROCS. This is the pipeline-wide meaning of a zero
// Options.Concurrency.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// NumChunks returns the number of grain-sized chunks covering n items.
// It depends only on n and grain, never on the worker count, so chunk
// layouts — and any reduction folded in chunk order — are stable across
// concurrency levels.
func NumChunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain <= 0 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// run fans fn out over chunk indexes [0, chunks) on w workers and
// repanics the first worker panic on the calling goroutine.
func run(w, chunks int, fn func(chunk int)) {
	if chunks <= 0 {
		return
	}
	if w > chunks {
		w = chunks
	}
	if w <= 1 {
		for c := 0; c < chunks; c++ {
			fn(c)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	body := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				v := any(fmt.Errorf("parallel: worker panic: %v", r))
				panicked.CompareAndSwap(nil, &v)
			}
		}()
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			fn(c)
		}
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go body()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
}

// For runs fn(i) for every i in [0, n) using up to workers goroutines
// (0 means GOMAXPROCS). fn must write only to state owned by index i;
// under that contract the result is identical at any concurrency.
func For(workers, n int, fn func(i int)) {
	w := Workers(workers)
	if w <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Batch index claims to cut contention; batching only affects
	// scheduling, not output, so it may depend on the worker count.
	grain := n / (w * 8)
	if grain < 1 {
		grain = 1
	}
	chunks := NumChunks(n, grain)
	run(w, chunks, func(c int) {
		start := c * grain
		end := start + grain
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			fn(i)
		}
	})
}

// ForWith is For with worker-local state: each worker calls init once
// and passes the value to every fn it runs. Use it for scratch buffers
// or per-worker model replicas that are expensive to build per item.
func ForWith[S any](workers, n int, init func() S, fn func(s S, i int)) {
	w := Workers(workers)
	if w <= 1 || n <= 1 {
		if n <= 0 {
			return
		}
		s := init()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	grain := n / (w * 8)
	if grain < 1 {
		grain = 1
	}
	chunks := NumChunks(n, grain)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	if w > chunks {
		w = chunks
	}
	body := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				v := any(fmt.Errorf("parallel: worker panic: %v", r))
				panicked.CompareAndSwap(nil, &v)
			}
		}()
		s := init()
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			start := c * grain
			end := start + grain
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				fn(s, i)
			}
		}
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go body()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
}

// ForRange splits [0, n) into grain-sized chunks (grain ≤ 0 means one
// chunk per worker-batch, like For) and runs fn(start, end) per chunk.
// The chunk layout depends only on n and grain, so per-chunk outputs
// land identically at any concurrency.
func ForRange(workers, n, grain int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	chunks := NumChunks(n, grain)
	run(Workers(workers), chunks, func(c int) {
		start := c * grain
		end := start + grain
		if end > n {
			end = n
		}
		fn(start, end)
	})
}

// ForErr runs fn(i) for every i in [0, n) and returns the error with
// the lowest index, or nil. Every index is attempted (fn itself should
// observe cancellation and return fast), which is what makes the
// returned error deterministic.
func ForErr(workers, n int, fn func(i int) error) error {
	var (
		mu     sync.Mutex
		minIdx = n
		first  error
	)
	For(workers, n, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < minIdx {
				minIdx, first = i, err
			}
			mu.Unlock()
		}
	})
	return first
}

// Group is an errgroup-style join for heterogeneous pipeline stages:
// every added function runs on its own goroutine, Wait blocks for all
// of them and returns the first error in Go-call order (deterministic
// when each stage's own error is).
type Group struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
	pan  atomic.Pointer[any]
}

// Go launches fn on a new goroutine.
func (g *Group) Go(fn func() error) {
	g.mu.Lock()
	slot := len(g.errs)
	g.errs = append(g.errs, nil)
	g.mu.Unlock()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				v := any(fmt.Errorf("parallel: group panic: %v", r))
				g.pan.CompareAndSwap(nil, &v)
			}
		}()
		err := fn()
		g.mu.Lock()
		g.errs[slot] = err
		g.mu.Unlock()
	}()
}

// Wait blocks until every added function returns, repanicking the
// first captured panic, then returns the first non-nil error in the
// order the functions were added.
func (g *Group) Wait() error {
	g.wg.Wait()
	if p := g.pan.Load(); p != nil {
		panic(*p)
	}
	for _, err := range g.errs {
		if err != nil {
			return err
		}
	}
	return nil
}
