package cell

import (
	"fmt"

	"cellbe/internal/eib"
	"cellbe/internal/sim"
	"cellbe/internal/spe"
	"cellbe/internal/xdr"
)

// Cross-chip SPE targets. The paper's §5 warns that on a dual-Cell blade
// the runtime may place communicating SPEs on *different* chips, forcing
// their DMA through the IOIF "limited to 7 GB/s". This models the second
// chip's SPEs as local-store endpoints behind the inter-chip link: the
// full path is local EIB -> IOIF0 ramp -> link (7 GB/s per direction,
// with its own latency) -> remote local store. The remote chip's own EIB
// is not modeled (it is unloaded in the experiment that matters); what is
// captured is exactly the bottleneck the paper warns about.

// NumRemoteSPEs is the number of SPEs on the blade's second chip.
const NumRemoteSPEs = 8

// remoteChip holds the second chip's LS endpoints and the inter-chip link.
type remoteChip struct {
	ls [NumRemoteSPEs][]byte
	// One server per direction: data to the remote chip and data from it
	// each sustain 7 GB/s.
	linkTo   *sim.Server
	linkFrom *sim.Server
	latency  sim.Time
	service  sim.Time // link occupancy per 128-byte line
}

func (s *System) remote() *remoteChip {
	if s.rem == nil {
		s.rem = &remoteChip{
			linkTo:   sim.NewServer(s.Eng),
			linkFrom: sim.NewServer(s.Eng),
			latency:  s.cfg.Mem.RemoteExtraLatency,
			service:  s.cfg.Mem.RemoteServiceCycles,
		}
		for i := range s.rem.ls {
			s.rem.ls[i] = make([]byte, spe.LocalStoreBytes)
		}
	}
	return s.rem
}

// RemoteLSEA returns the effective address of byte off in remote (second
// chip) SPE i's local store.
func (s *System) RemoteLSEA(remote, off int) int64 {
	if remote < 0 || remote >= NumRemoteSPEs {
		panic(fmt.Sprintf("cell: bad remote SPE index %d", remote))
	}
	if off < 0 || off >= spe.LocalStoreBytes {
		panic(fmt.Sprintf("cell: bad remote LS offset %#x", off))
	}
	return s.remoteLSBase() + int64(remote)*s.cfg.LSSpan + int64(off)
}

// remoteLSBase places the second chip's LS aperture directly above the
// local one.
func (s *System) remoteLSBase() int64 {
	return s.cfg.LSBase + int64(NumSPEs)*s.cfg.LSSpan
}

// RemoteLS returns the contents of remote SPE i's local store.
func (s *System) RemoteLS(remote int) []byte {
	if remote < 0 || remote >= NumRemoteSPEs {
		panic(fmt.Sprintf("cell: bad remote SPE index %d", remote))
	}
	return s.remote().ls[remote]
}

// resolveRemoteLS maps an EA to a remote-chip local store.
func (s *System) resolveRemoteLS(ea int64) (remote, off int, ok bool) {
	base := s.remoteLSBase()
	if ea < base {
		return 0, 0, false
	}
	idx := (ea - base) / s.cfg.LSSpan
	if idx >= NumRemoteSPEs {
		panic(fmt.Sprintf("cell: EA %#x beyond the remote LS aperture", ea))
	}
	off64 := (ea - base) % s.cfg.LSSpan
	if off64 >= spe.LocalStoreBytes {
		panic(fmt.Sprintf("cell: EA %#x falls in an unmapped remote LS hole", ea))
	}
	return int(idx), int(off64), true
}

// readRemote is the cross-chip GET data path: the remote chip streams the
// line over the link, then it crosses the local EIB from the IOIF ramp.
func (f *fabric) readRemote(remote, off int, n int, earliest sim.Time, dst []byte, done sim.Callee) {
	sys := f.sys
	rc := sys.remote()
	ready := sys.Bus.Command(earliest)
	dur := rc.service * sim.Time((n+xdr.LineBytes-1)/xdr.LineBytes)
	sys.Eng.At(ready, func() {
		rc.linkFrom.Request(dur, sim.CalleeFunc(func(sim.Time) {
			start := sys.Eng.Now() + rc.latency
			sys.Bus.Transfer(eib.RampIOIF0, f.ramp, n, start, sim.CalleeFunc(func(end sim.Time) {
				if dst != nil {
					copy(dst, rc.ls[remote][off:off+n])
				}
				done.Call(end)
			}))
		}))
	})
}

// writeRemote is the cross-chip PUT path: local EIB to the IOIF ramp,
// then the link to the remote local store.
func (f *fabric) writeRemote(remote, off int, n int, earliest sim.Time, src []byte, done sim.Callee) {
	sys := f.sys
	rc := sys.remote()
	ready := sys.Bus.Command(earliest)
	dur := rc.service * sim.Time((n+xdr.LineBytes-1)/xdr.LineBytes)
	sys.Bus.Transfer(f.ramp, eib.RampIOIF0, n, ready, sim.CalleeFunc(func(sim.Time) {
		rc.linkTo.Request(dur, sim.CalleeFunc(func(sim.Time) {
			end := sys.Eng.Now() + rc.latency
			sys.Eng.At(end, func() {
				if src != nil {
					copy(rc.ls[remote][off:off+n], src[:n])
				}
				done.Call(end)
			})
		}))
	}))
}
