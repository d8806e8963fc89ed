// Package lockguardfix exercises the guarded-by contract: guarded access
// under Lock/RLock, the Locked-suffix and //kairos:locked exemptions, the
// allow waiver, and validation of the annotation itself. Then typed
// atomics: a sync/atomic package-level function is a finding, a typed
// atomic's methods are not.
package lockguardfix

import (
	"sync"
	"sync/atomic"
)

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

type gauge struct {
	mu sync.RWMutex
	v  float64 // guarded by mu
}

type badguard struct {
	lock sync.Mutex
	size int

	// guarded by mux
	x int // want "annotation names \"mux\", which is not a sibling sync.Mutex or sync.RWMutex field"

	// guarded by size
	y int // want "annotation names \"size\", which is not a sibling sync.Mutex or sync.RWMutex field"

	// guarded by lock
	ok int
}

func (c *counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) Bad() int {
	return c.n // want "c.n is guarded by c.mu, which is not held here"
}

func (c *counter) AccessBeforeLock() {
	_ = c.n // want "c.n is guarded by c.mu, which is not held here"
	c.mu.Lock()
	c.n = 0
	c.mu.Unlock()
}

func (c *counter) incLocked() { c.n++ }

// sum runs with c.mu held by the caller.
//
//kairos:locked
func (c *counter) sum() int { return c.n }

func (c *counter) waived() int {
	return c.n //kairoslint:allow lockguard: snapshot tolerates a torn read
}

func (g *gauge) Read() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v
}

func (g *gauge) WrongReceiverLock(c *counter) {
	c.mu.Lock()
	g.v = 1 // want "g.v is guarded by g.mu, which is not held here"
	c.mu.Unlock()
}

func (b *badguard) Use() int {
	b.lock.Lock()
	defer b.lock.Unlock()
	return b.ok
}

type stats struct {
	hits  int64
	typed atomic.Int64
}

func (s *stats) bump() int64 {
	atomic.AddInt64(&s.hits, 1) // want "atomic.AddInt64 on a plain variable: use a typed atomic"
	s.typed.Add(1)
	return s.typed.Load()
}

func (s *stats) read() int64 {
	return atomic.LoadInt64(&s.hits) // want "atomic.LoadInt64 on a plain variable"
}
