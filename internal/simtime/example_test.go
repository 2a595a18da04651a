package simtime_test

import (
	"fmt"
	"time"

	"repro/internal/simtime"
)

// A resource with capacity one serializes its users in FIFO order; the
// queue wait costs virtual time, not real time.
func ExampleResource() {
	clock := simtime.NewClock()
	drive := simtime.NewResource(clock, 1)
	for i := 0; i < 3; i++ {
		i := i
		clock.Go(func() {
			drive.Acquire(1)
			clock.Sleep(time.Minute)
			drive.Release(1)
			fmt.Printf("job %d finished at %v\n", i, clock.Now())
		})
	}
	end := clock.RunFor()
	fmt.Println("all done at", end)
	// Output:
	// job 0 finished at 1m0s
	// job 1 finished at 2m0s
	// job 2 finished at 3m0s
	// all done at 3m0s
}

// Queues connect producer and consumer actors; Pop parks the consumer
// in virtual time until something arrives.
func ExampleQueue() {
	clock := simtime.NewClock()
	q := simtime.NewQueue(clock)
	clock.Go(func() {
		clock.Sleep(2 * time.Second)
		q.Push("work")
		q.Close()
	})
	clock.Go(func() {
		for {
			v, ok := q.Pop()
			if !ok {
				return
			}
			fmt.Printf("got %q at %v\n", v, clock.Now())
		}
	})
	clock.RunFor()
	// Output:
	// got "work" at 2s
}
