package sim

// Server models a resource that serves requests one at a time, each
// occupying the resource for a caller-specified number of cycles. Requests
// are granted in FIFO order. It is the building block for memory banks,
// link ports and similar rate-limited hardware.
type Server struct {
	eng       *Engine
	busyUntil Time
	queue     FIFO[serverReq]
	inService bool
	// done is the completion record of the request in service: a server
	// serves one request at a time, so it is its own completion record
	// and scheduling a service end allocates nothing.
	done serverDone
}

type serverReq struct {
	dur Time
	cb  Callee
}

// serverDone fires the in-service request's callee, then starts the next
// queued request.
type serverDone struct {
	s  *Server
	cb Callee
}

func (d *serverDone) Call(start Time) {
	cb := d.cb
	d.cb = nil
	cb.Call(start)
	d.s.startNext()
}

// NewServer returns an idle server bound to eng.
func NewServer(eng *Engine) *Server {
	s := &Server{eng: eng}
	s.done.s = s
	return s
}

// Reset returns the server to its idle NewServer state, keeping the queue's
// backing array. Part of the warm-system recycling path; the caller
// guarantees no service-completion event is still pending on the engine.
func (s *Server) Reset() {
	s.busyUntil = 0
	s.queue.Reset()
	s.inService = false
	s.done.cb = nil
}

// BusyUntil returns the time the server becomes free given current
// reservations.
func (s *Server) BusyUntil() Time { return s.busyUntil }

// QueueLen returns the number of requests waiting (not yet started).
func (s *Server) QueueLen() int { return s.queue.Len() }

// Request enqueues a request occupying the server for dur cycles. cb is
// called when the occupation *ends*, with the time service started.
// Callers on hot paths pass a pooled record; others wrap a closure in
// CalleeFunc.
func (s *Server) Request(dur Time, cb Callee) {
	s.queue.Push(serverReq{dur: dur, cb: cb})
	if !s.inService {
		s.startNext()
	}
}

func (s *Server) startNext() {
	if s.queue.Len() == 0 {
		s.inService = false
		return
	}
	s.inService = true
	req := s.queue.Pop()
	start := s.eng.Now()
	if start < s.busyUntil {
		start = s.busyUntil
	}
	end := start + req.dur
	s.busyUntil = end
	s.done.cb = req.cb
	s.eng.AtCallee(end, &s.done, start)
}

// Reserve occupies the server for dur cycles starting no earlier than
// earliest, without queueing semantics: it finds the first gap at or after
// max(earliest, busyUntil) and returns the start time. Used by timetable
// schedulers (the EIB) where the caller plans ahead.
func (s *Server) Reserve(earliest Time, dur Time) (start Time) {
	start = earliest
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + dur
	return start
}

// TokenBucket rate-limits discrete operations: at most one token every
// interval cycles, with no burst beyond the single slot. Take returns the
// time the token is granted (>= now).
type TokenBucket struct {
	eng      *Engine
	interval Time
	nextFree Time
}

// NewTokenBucket returns a bucket granting one token per interval cycles.
func NewTokenBucket(eng *Engine, interval Time) *TokenBucket {
	return &TokenBucket{eng: eng, interval: interval}
}

// Reset re-arms the bucket as NewTokenBucket(eng, interval) would,
// for warm-system recycling.
func (b *TokenBucket) Reset(interval Time) {
	b.interval = interval
	b.nextFree = 0
}

// Take reserves the next token at or after earliest and returns its grant
// time.
func (b *TokenBucket) Take(earliest Time) Time {
	t := earliest
	if b.nextFree > t {
		t = b.nextFree
	}
	b.nextFree = t + b.interval
	return t
}

// FIFO is a first-in, first-out queue over a reused backing array. Pop
// advances a head index instead of reslicing past the front, which would
// crawl through the array and force append to regrow it; Push slides the
// live entries back to the front once at least half the array is popped
// slots, so steady-state traffic neither allocates nor copies more than
// amortized O(1) per entry. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued entries.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the entry at the front. The queue must not be
// empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// Reset empties the queue, keeping its backing array.
func (q *FIFO[T]) Reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}
