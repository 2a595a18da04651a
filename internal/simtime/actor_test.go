package simtime

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// wantGoroutines waits for the goroutine count to come back to want. A
// pooled coroutine is gone when stop returns; an island worker may still
// be unwinding just after the group's WaitGroup releases Run.
func wantGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got != want {
		t.Errorf("%s: %d goroutines, want %d as before", what, got, want)
	}
}

// 100k short actors one after another plus 64 concurrent sleepers: a
// short actor must reuse an idle coroutine (creating one costs a dozen
// allocations; a reused one two), and Run must leave no goroutine
// behind.
func TestActorPoolReusesAndDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	ran := 0
	for i := 0; i < 64; i++ {
		i := i
		c.Go(func() {
			for k := 0; k < 4; k++ {
				c.Sleep(Duration(i+1) * time.Millisecond)
			}
		})
	}
	const short = 100000
	var ms0, ms1 runtime.MemStats
	c.Go(func() {
		runtime.ReadMemStats(&ms0)
		for i := 0; i < short; i++ {
			c.Go(func() { ran++ })
			c.Sleep(time.Microsecond)
		}
		runtime.ReadMemStats(&ms1)
	})
	c.RunFor()
	if ran != short {
		t.Fatalf("ran %d short actors, want %d", ran, short)
	}
	if per := float64(ms1.Mallocs-ms0.Mallocs) / short; per > 4 {
		t.Errorf("%.1f allocations per short actor: coroutines are not reused", per)
	}
	if len(c.idle) != 0 {
		t.Errorf("%d coroutines still pooled after Run", len(c.idle))
	}
	wantGoroutines(t, "after Clock.Run", before)
}

func TestActorPoolDrainsAfterIslandGroup(t *testing.T) {
	before := runtime.NumGoroutine()
	g, _ := buildPingPong(50)
	if _, err := g.Run(2); err != nil {
		t.Fatal(err)
	}
	wantGoroutines(t, "after Group.Run", before)
}

// A spawn served from the pool must not cost more allocations than the
// goroutine per spawn it replaced (3 at the parent commit: the cancel
// flag, the cancel closure and the go statement's closure).
func TestActorPooledSpawnAllocs(t *testing.T) {
	c := NewClock()
	var allocs float64
	c.Go(func() {
		allocs = testing.AllocsPerRun(1000, func() {
			c.Go(func() {})
			c.Sleep(0)
		})
	})
	c.RunFor()
	if allocs > 3 {
		t.Errorf("pooled Go+finish: %v allocs, want <= 3", allocs)
	}
}

// An actor's panic surfaces in the goroutine that called Run, after the
// actor's own deferred handlers, carrying the actor's stack.
func TestActorPanicReachesRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	deferred := false
	c.Go(func() {}) // leaves a pooled coroutine behind for Run to drain
	c.Go(func() {
		defer func() { deferred = true }()
		c.Sleep(time.Second)
		panic("boom")
	})
	var got interface{}
	func() {
		defer func() { got = recover() }()
		c.Run()
	}()
	msg := fmt.Sprint(got)
	if !strings.HasPrefix(msg, "boom [in a simtime actor]") || !strings.Contains(msg, "TestActorPanicReachesRunCaller.func") {
		t.Fatalf("Run's caller recovered %q, want the actor's panic with the actor's frames", msg)
	}
	if !deferred {
		t.Error("the actor's deferred handler did not run before Run's caller saw the panic")
	}
	wantGoroutines(t, "after a panicking Run", before)
}

func TestBlockingOutsideActorPanics(t *testing.T) {
	const want = "simtime: blocking primitive called outside actor context"
	c := NewClock()
	q := NewQueue(c)
	r := NewResource(c, 1)
	blockers := map[string]func(){
		"Sleep":            func() { c.Sleep(time.Second) },
		"Queue.Pop":        func() { q.Pop() },
		"Resource.Acquire": func() { r.Acquire(1) },
	}
	check := func(where, name string, fn func()) {
		defer func() {
			if got := recover(); got != want {
				t.Errorf("%s %s: recovered %v, want %q", name, where, got, want)
			}
		}()
		fn()
	}
	r.Acquire(1) // uncontended: does not block, so legal anywhere
	c.Callback(time.Second, func() {
		for name, fn := range blockers {
			check("in a Callback", name, fn)
		}
	})
	c.RunFor()
	for name, fn := range blockers {
		check("after Run", name, fn)
	}
	// The panic released the clock's lock: the clock still answers.
	if q.Len() != 0 || r.inUse != 1 {
		t.Errorf("queue len %d, resource in use %d after the panics", q.Len(), r.inUse)
	}
}

// An island clock is stepped by whichever worker holds a slot, so a
// coroutine created under one goroutine is resumed by another. The event
// trace must not depend on that.
func TestStepUntilAcrossGoroutines(t *testing.T) {
	build := func() (*Clock, *[]string) {
		c := NewClock()
		var trace []string
		q := NewQueue(c)
		for i := 0; i < 4; i++ {
			i := i
			c.Go(func() {
				for k := 0; k < 5; k++ {
					c.Sleep(Duration(i+1) * time.Millisecond)
					q.Push(i*10 + k)
					c.Go(func() { trace = append(trace, fmt.Sprintf("%v child of %d", c.Now(), i)) })
				}
			})
		}
		c.Go(func() {
			for n := 0; n < 20; n++ {
				v, _ := q.Pop()
				trace = append(trace, fmt.Sprintf("%v pop %d", c.Now(), v))
			}
		})
		return c, &trace
	}
	limits := make([]Duration, 25)
	for i := range limits {
		limits[i] = Duration(i+1) * time.Millisecond
	}

	ref, want := build()
	for _, l := range limits {
		ref.stepUntil(l)
	}
	ref.drainIdle()

	c, got := build()
	turn := [2]chan Duration{make(chan Duration), make(chan Duration)}
	done := make(chan bool)
	for w := range turn {
		w := w
		go func() {
			for l := range turn[w] {
				c.stepUntil(l)
				done <- true
			}
		}()
	}
	for n, l := range limits {
		turn[n%2] <- l
		<-done
	}
	close(turn[0])
	close(turn[1])
	c.drainIdle()

	if len(*want) != 40 {
		t.Fatalf("reference trace has %d entries, want 40", len(*want))
	}
	if strings.Join(*got, "\n") != strings.Join(*want, "\n") {
		t.Errorf("two-goroutine trace diverged:\n%s\nwant:\n%s", strings.Join(*got, "\n"), strings.Join(*want, "\n"))
	}
}
