package sim

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f at GOMAXPROCS procs and fails the test if f does not
// return within a minute, so that a deadlocked pool fails rather than
// hangs the package.
func withProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("Do did not return within a minute")
	}
}

// TestDoRunsEveryIndexOnce: for no tasks, one, fewer than GOMAXPROCS and
// more, Do runs each index exactly once before it returns.
func TestDoRunsEveryIndexOnce(t *testing.T) {
	const procs = 4
	for _, n := range []int{0, 1, procs - 1, 5*procs + 3} {
		runs := make([]atomic.Int32, n)
		withProcs(t, procs, func() {
			for range 50 {
				Do(n, func(i int) { runs[i].Add(1) })
			}
		})
		for i := range runs {
			if got := runs[i].Load(); got != 50 {
				t.Errorf("n=%d: task %d ran %d times in 50 calls, want 50", n, i, got)
			}
		}
	}
}

// TestDoNested: a task may call Do itself, also while every worker is
// busy with the outer call's tasks, and each inner index still runs once.
func TestDoNested(t *testing.T) {
	const outer, inner = 6, 5
	var runs [outer * inner]atomic.Int32
	withProcs(t, 3, func() {
		Do(outer, func(i int) {
			Do(inner, func(j int) { runs[i*inner+j].Add(1) })
		})
	})
	for k := range runs {
		if got := runs[k].Load(); got != 1 {
			t.Errorf("inner task %d of outer task %d ran %d times, want 1", k%inner, k/inner, got)
		}
	}
}

// TestDoPanicNamesTask: a panicking task does not stop the others, and
// Do re-panics on the caller naming the lowest index that panicked.
func TestDoPanicNamesTask(t *testing.T) {
	var ran atomic.Int32
	var got any
	withProcs(t, 4, func() {
		defer func() { got = recover() }()
		Do(9, func(i int) {
			ran.Add(1)
			if i == 4 || i == 7 {
				panic("flash channel on fire")
			}
		})
	})
	msg, ok := got.(string)
	if !ok || !strings.HasPrefix(msg, "sim: task 4 of 9 panicked: flash channel on fire") {
		t.Fatalf("recovered %v, want the panic of task 4", got)
	}
	if n := ran.Load(); n != 9 {
		t.Errorf("%d of 9 tasks ran", n)
	}
	// The pool survives: the next call runs every task.
	ran.Store(0)
	withProcs(t, 4, func() { Do(9, func(int) { ran.Add(1) }) })
	if n := ran.Load(); n != 9 {
		t.Errorf("after the panic, %d of 9 tasks ran", n)
	}
}

// TestDoSteadyState: once the pool has its workers and a round to
// reuse, a Do call allocates nothing and starts no goroutine.
func TestDoSteadyState(t *testing.T) {
	var sink [8]atomic.Int64
	task := func(i int) { sink[i].Add(1) }
	withProcs(t, 2, func() {
		Do(len(sink), task)
		goroutines := runtime.NumGoroutine()
		if avg := testing.AllocsPerRun(300, func() { Do(len(sink), task) }); avg != 0 {
			t.Errorf("Do allocates %.2f objects per call, want 0", avg)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Errorf("%d goroutines after 300 calls, %d before", n, goroutines)
		}
	})
}
