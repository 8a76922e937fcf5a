package parallel

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-2) = %d, want GOMAXPROCS", got)
	}
}

func TestNumChunks(t *testing.T) {
	cases := []struct{ n, grain, want int }{
		{0, 4, 0}, {-1, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2},
		{8, 4, 2}, {9, 4, 3}, {7, 0, 7},
	}
	for _, c := range cases {
		if got := NumChunks(c.n, c.grain); got != c.want {
			t.Errorf("NumChunks(%d, %d) = %d, want %d", c.n, c.grain, got, c.want)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 7, 32} {
		for _, n := range []int{0, 1, 5, 1000} {
			hits := make([]int32, n)
			For(w, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestForWithWorkerState(t *testing.T) {
	var inits atomic.Int32
	n := 500
	out := make([]int, n)
	ForWith(4, n, func() *int {
		inits.Add(1)
		v := new(int)
		return v
	}, func(s *int, i int) {
		*s++
		out[i] = i * i
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if got := inits.Load(); got < 1 || got > 4 {
		t.Errorf("init called %d times, want 1..4", got)
	}
}

func TestForRangeChunkLayout(t *testing.T) {
	n, grain := 103, 10
	covered := make([]int32, n)
	var starts atomic.Int32
	ForRange(8, n, grain, func(start, end int) {
		starts.Add(1)
		if start%grain != 0 {
			t.Errorf("chunk start %d not grain-aligned", start)
		}
		for i := start; i < end; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, h := range covered {
		if h != 1 {
			t.Fatalf("index %d covered %d times", i, h)
		}
	}
	if got := starts.Load(); got != 11 {
		t.Errorf("chunks = %d, want 11", got)
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("boom")
	for _, w := range []int{1, 4} {
		err := ForErr(w, 100, func(i int) error {
			if i == 13 || i == 77 {
				return errors.New("late")
			}
			if i == 7 {
				return wantErr
			}
			return nil
		})
		if err != wantErr {
			t.Errorf("workers=%d: err = %v, want lowest-index error", w, err)
		}
	}
	if err := ForErr(4, 50, func(int) error { return nil }); err != nil {
		t.Errorf("clean run err = %v", err)
	}
}

func TestGroupCollectsFirstErrorInGoOrder(t *testing.T) {
	e1, e2 := errors.New("first"), errors.New("second")
	var g Group
	g.Go(func() error { return nil })
	g.Go(func() error { return e1 })
	g.Go(func() error { return e2 })
	if err := g.Wait(); err != e1 {
		t.Errorf("Wait = %v, want first added error", err)
	}
	var ok Group
	ok.Go(func() error { return nil })
	if err := ok.Wait(); err != nil {
		t.Errorf("clean Wait = %v", err)
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !strings.Contains(errFromPanic(r), "kaboom") {
			t.Errorf("panic value %v does not carry cause", r)
		}
	}()
	For(4, 100, func(i int) {
		if i == 42 {
			panic("kaboom")
		}
	})
}

func TestGroupPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("group panic did not propagate")
		}
	}()
	var g Group
	g.Go(func() error { panic("exploded") })
	_ = g.Wait()
}

func errFromPanic(r any) string {
	if err, ok := r.(error); ok {
		return err.Error()
	}
	if s, ok := r.(string); ok {
		return s
	}
	return ""
}
