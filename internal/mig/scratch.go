package mig

// Reusable scratch memory for the data-plane hot paths. Two mechanisms keep
// the optimization inner loops allocation-free:
//
//   - epoch-stamped dense arrays (scratch) replace the per-call
//     map[int]Signal / map[int]bool memos of the cone traversals: a slot is
//     valid only when its stamp equals the current epoch, so "clearing" the
//     structure is a counter increment;
//   - sync.Pool-backed slices (signalSlab, boolSlab) replace the per-pass
//     remap and liveness allocations of the topological rebuilds. Pools are
//     goroutine-safe, which the window-parallel rewriting relies on.
//
// Each MIG owns one scratch. It is used only by single-threaded traversals
// over that MIG instance (the window-parallel pass gives every worker a
// private clone), and it is intentionally not carried over by Clone.

import "sync"

// scratch holds the epoch-stamped traversal state of one MIG.
type scratch struct {
	stamp []uint32
	sig   []Signal // memo payload for replaceInCone
	epoch uint32
}

// begin starts a new traversal over a graph of n nodes and returns the
// scratch with all slots invalidated.
func (s *scratch) begin(n int) *scratch {
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
		s.sig = append(s.sig, make([]Signal, n-len(s.sig))...)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps may alias, hard-reset
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	return s
}

// seen reports whether node i was marked in the current traversal.
func (s *scratch) seen(i int) bool { return s.stamp[i] == s.epoch }

// mark marks node i in the current traversal.
func (s *scratch) mark(i int) { s.stamp[i] = s.epoch }

// get returns the memoized signal for node i, if set this traversal.
func (s *scratch) get(i int) (Signal, bool) {
	if s.stamp[i] == s.epoch {
		return s.sig[i], true
	}
	return 0, false
}

// put memoizes the signal for node i in the current traversal.
func (s *scratch) put(i int, v Signal) {
	s.stamp[i] = s.epoch
	s.sig[i] = v
}

// Pools for the per-rebuild dense slices. The pools hand out slices sized
// for the requesting graph; contents are always reinitialized by the taker.

var signalSlab = sync.Pool{New: func() any { return new([]Signal) }}

// takeSignals returns a length-n signal slice with every slot set to fill.
func takeSignals(n int, fill Signal) *[]Signal {
	p := signalSlab.Get().(*[]Signal)
	s := *p
	if cap(s) < n {
		s = make([]Signal, n)
	}
	s = s[:n]
	// Fill by doubling copies: copy runs at memmove speed, and unlike a
	// scalar store loop its throughput does not depend on where the linker
	// places this function.
	if n > 0 {
		s[0] = fill
		for done := 1; done < n; done *= 2 {
			copy(s[done:], s[:done])
		}
	}
	*p = s
	return p
}

func releaseSignals(p *[]Signal) { signalSlab.Put(p) }

var boolSlab = sync.Pool{New: func() any { return new([]bool) }}

// takeBools returns a length-n slice of false.
func takeBools(n int) *[]bool {
	p := boolSlab.Get().(*[]bool)
	s := *p
	if cap(s) < n {
		s = make([]bool, n)
		*p = s
		return p
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	*p = s
	return p
}

func releaseBools(p *[]bool) { boolSlab.Put(p) }

var intSlab = sync.Pool{New: func() any { return new([]int) }}

// takeInts returns a length-n slice of zeros.
func takeInts(n int) *[]int {
	p := intSlab.Get().(*[]int)
	s := *p
	if cap(s) < n {
		s = make([]int, n)
		*p = s
		return p
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	*p = s
	return p
}

func releaseInts(p *[]int) { intSlab.Put(p) }
