package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// opGuard cancels the running operations' contexts when the live
// heap (as of the last GC) passes a ceiling, or when one operation
// outlives opLimit, so an analysis whose memory or time grows without
// bound ends as a counted failure instead of exhausting the machine or
// the run's time limit. It cancels rather than setting a deadline:
// core carves deadlines into per-module budgets, which would change
// the answers being measured.
type opGuard struct {
	limit   uint64
	opLimit time.Duration
	mu      sync.Mutex
	active  map[int64]context.CancelFunc // guarded by mu
	next    int64                        // guarded by mu
	tripped atomic.Int64
	dirty   atomic.Bool // a trip left garbage the next operation must not be judged by
	stop    chan struct{}
	done    chan struct{}
}

func startOpGuard(limit uint64, opLimit time.Duration) *opGuard {
	g := &opGuard{limit: limit, opLimit: opLimit, active: map[int64]context.CancelFunc{},
		stop: make(chan struct{}), done: make(chan struct{})}
	go g.watch()
	return g
}

func (g *opGuard) watch() {
	defer close(g.done)
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
		}
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 || sample[0].Value.Uint64() <= g.limit {
			continue
		}
		g.mu.Lock()
		for id, cancel := range g.active {
			cancel()
			delete(g.active, id)
			g.tripped.Add(1)
			g.dirty.Store(true)
		}
		g.mu.Unlock()
	}
}

// context returns a context for one operation; release it when the
// operation ends. After a trip it first collects the cancelled
// operation's garbage, so the stale live-heap figure cannot cancel the
// next operation too.
func (g *opGuard) context() (context.Context, func()) {
	if g.dirty.Swap(false) {
		runtime.GC()
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.mu.Lock()
	id := g.next
	g.next++
	g.active[id] = cancel
	g.mu.Unlock()
	timer := time.AfterFunc(g.opLimit, func() {
		g.tripped.Add(1)
		cancel()
	})
	return ctx, func() {
		timer.Stop()
		g.mu.Lock()
		delete(g.active, id)
		g.mu.Unlock()
		cancel()
	}
}

// Stop ends the watcher and waits for it.
func (g *opGuard) Stop() {
	close(g.stop)
	<-g.done
}
