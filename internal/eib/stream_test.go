package eib

import (
	"math/rand"

	"cellbe/internal/sim"
)

// grantCall is one recorded transfer request: the arguments of
// EIB.transfer, including the simulated time it was made at.
type grantCall struct {
	now, earliest sim.Time
	src, dst      RampID
	bytes         int
}

// streamLane is one SPE of a synthetic element-DMA stream: it GETs
// chunk-sized elements from its peer and PUTs them back, each element
// split into 128-byte packets, with at most streamWindow packets on the
// bus (the MFC's outstanding-packet window). Every packet takes a
// command-bus slot first, and a completed packet lets the lane issue its
// next one, so the stream is closed-loop, like the simulator's.
type streamLane struct {
	bus         *EIB
	rec         *[]grantCall
	self, peer  RampID
	chunk       int
	left        [2]int // bytes still to issue: GET, PUT
	elem        [2]int // bytes left in the current element
	turn        int    // next direction to try
	outstanding int
}

const streamWindow = 16

func (l *streamLane) Call(sim.Time) {
	l.outstanding--
	l.pump()
}

func (l *streamLane) pump() {
	for l.outstanding < streamWindow {
		d := l.turn
		if l.left[d] == 0 && l.elem[d] == 0 {
			d ^= 1
			if l.left[d] == 0 && l.elem[d] == 0 {
				return
			}
		}
		l.turn = d ^ 1
		if l.elem[d] == 0 {
			l.elem[d] = min(l.chunk, l.left[d])
			l.left[d] -= l.elem[d]
		}
		n := min(128, l.elem[d])
		l.elem[d] -= n
		src, dst := l.peer, l.self // GET: peer -> self
		if d == 1 {
			src, dst = l.self, l.peer
		}
		now := l.bus.eng.Now()
		earliest := l.bus.Command(now)
		*l.rec = append(*l.rec, grantCall{now: now, earliest: earliest, src: src, dst: dst, bytes: n})
		l.outstanding++
		l.bus.Transfer(src, dst, n, earliest, l)
	}
}

// grantStream records the transfer calls of one synthetic pair, couples
// or cycle point on 8 SPEs: chunk-byte elements, volume bytes each way
// per active SPE, and the logical-to-physical SPE layout drawn from
// layoutSeed. The stream is a pure function of its arguments.
func grantStream(kind string, chunk, volume int, layoutSeed int64) []grantCall {
	eng := sim.NewEngine()
	bus := New(eng, DefaultConfig())
	layout := rand.New(rand.NewSource(layoutSeed)).Perm(8)
	ramp := func(logical int) RampID { return PhysicalSPERamp(layout[logical]) }
	var pairs [][2]int
	switch kind {
	case "pair":
		pairs = [][2]int{{0, 1}}
	case "couples":
		pairs = [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	case "cycle":
		for i := 0; i < 8; i++ {
			pairs = append(pairs, [2]int{i, (i + 1) % 8})
		}
	default:
		panic("grantStream: unknown kind " + kind)
	}
	var rec []grantCall
	for _, p := range pairs {
		l := &streamLane{bus: bus, rec: &rec, self: ramp(p[0]), peer: ramp(p[1]), chunk: chunk, left: [2]int{volume, volume}}
		l.pump()
	}
	eng.Run()
	return rec
}

// grantBenchStreams is the EIBGrant benchmark's call stream: pair,
// couples and cycle points at 1, 4 and 16 KiB elements, 16 KiB each way
// per active SPE, over two layouts.
func grantBenchStreams() [][]grantCall {
	var streams [][]grantCall
	for _, kind := range []string{"pair", "couples", "cycle"} {
		for _, chunk := range []int{1024, 4096, 16384} {
			for _, seed := range []int64{1, 7} {
				streams = append(streams, grantStream(kind, chunk, 16<<10, seed))
			}
		}
	}
	return streams
}
