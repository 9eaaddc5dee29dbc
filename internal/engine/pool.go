// The process-global worker pool behind Go: the engine's coarse fan-out
// primitive for independent simulations (the autotuner's candidate
// evaluations). Workers are spawned once on first use and shared by
// every caller in the process, which bounds total concurrency at
// GOMAXPROCS no matter how many fan-outs run at once and leaves no
// per-call goroutines to leak. Workers block only on the task channel,
// so queued tasks always drain as long as a task does not itself submit
// pool work.

package engine

import (
	"runtime"
	"sync"
)

// poolTask is one unit of pool work.
type poolTask struct {
	fn func()
	wg *sync.WaitGroup
}

var pool struct {
	once sync.Once
	ch   chan poolTask
}

// poolTasks returns the shared task channel, spawning the workers on
// first use.
func poolTasks() chan poolTask {
	pool.once.Do(func() {
		// Buffered so a fan-out of a few dozen tasks is queued without
		// holding the submitter until a worker frees up.
		pool.ch = make(chan poolTask, 64)
		n := runtime.GOMAXPROCS(0)
		if n < 2 {
			n = 2 // GOMAXPROCS=1 still wants overlap with the submitter
		}
		if n > 16 {
			n = 16
		}
		for i := 0; i < n; i++ {
			go poolWorker(pool.ch)
		}
	})
	return pool.ch
}

func poolWorker(ch chan poolTask) {
	for t := range ch {
		t.fn()
		t.wg.Done()
	}
}

// Go runs fn on the shared worker pool and calls wg.Done when it
// returns. fn must not submit pool work of its own (a simulation inside
// fn is fine: engines step serially), and it is responsible for
// capturing its own results and errors.
func Go(fn func(), wg *sync.WaitGroup) {
	poolTasks() <- poolTask{fn: fn, wg: wg}
}
