// Package sim is a miniature clone of the real kernel's coroutine baton,
// used to prove the kernelctx analyzer fires on a process's next/yield
// outside the blessed functions.
package sim

import "iter"

// Kernel mirrors the real kernel's current-process slot.
type Kernel struct {
	current *Proc
}

// Proc mirrors the real process's coroutine ends.
type Proc struct {
	k     *Kernel
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	dead  bool
}

// Spawn is blessed: it builds the coroutine and keeps both ends.
func (k *Kernel) Spawn(p *Proc, body func(p *Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body(p)
		p.dead = true
	})
}

// transfer is blessed: switching into the process is legal here.
func (k *Kernel) transfer(p *Proc) {
	k.current = p
	p.next()
	k.current = nil
}

// park is blessed.
func (p *Proc) park() {
	p.yield(struct{}{})
}

// Shutdown is blessed (the final kill switch).
func (k *Kernel) Shutdown(procs []*Proc) {
	for _, p := range procs {
		if !p.dead {
			p.next()
		}
	}
}

// sneakyWake bypasses the handshake protocol and must be flagged.
func (k *Kernel) sneakyWake(p *Proc) {
	p.next()            // want: kernelctx
	p.yield(struct{}{}) // want: kernelctx
}

// stash leaks a coroutine end for a later call and must be flagged too.
func stash(p *Proc) func() (struct{}, bool) {
	p.yield = nil // want: kernelctx
	return p.next // want: kernelctx
}

// node is a linked list whose next field is no coroutine end.
type node struct {
	next *node
}

// drain uses unrelated locals that happen to share the names, and a
// non-function next field; the analyzer must not fire on either.
func drain(seq iter.Seq[int], l *node) int {
	next, stop := iter.Pull(seq)
	defer stop()
	n := 0
	for _, ok := next(); ok; _, ok = next() {
		n++
	}
	for ; l != nil; l = l.next {
		n++
	}
	yield := func(int) bool { return true }
	_ = yield(n)
	return n
}
