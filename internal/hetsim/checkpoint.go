package hetsim

import (
	"fmt"

	"ftla/internal/matrix"
)

// Checkpoint stages GPU-resident buffers to host-owned matrices: srcs[i]
// is copied into dsts[i], which must have its shape. Together with
// Restore it is the one host⇄device column staging: the initial
// distribution, checkpoints, rollback and resume, and the final gather all
// move their columns through this pair, one call per move. Each copy goes
// over the PCIe fabric (passing the fail-stop gates and charging the
// communication clocks), never read out of device memory behind the
// simulator's back, and uses the reliable protocol (TransferReliable): a
// snapshot damaged in flight would poison every later rollback, so staging
// traffic is never left to a lucky wire. The host matrices receive the
// payload in place and share no storage with the buffers.
//
// One call is one staging on the logical clock and one message per link:
// its copies run inside one transfer-coalescing window (CoalesceTransfers),
// so each (source, destination) device pair pays the fixed link latency
// once, however many strips cross it, and every later copy pays its
// bandwidth term alone. The host reads none of the copies until it has
// issued them all, so each copy starts from the serial frontier of the
// call's start (and its link's own frontier) and commits only to the links
// it crosses: copies from different GPUs overlap. The serial frontier
// joins once, at the latest arrival, when the call returns — on the abort
// path too, so a staging cut short by a lost device or an exhausted link
// still holds the links it used.
func (s *System) Checkpoint(srcs []*Buffer, dsts []*matrix.Dense) {
	if len(srcs) != len(dsts) {
		panic(fmt.Sprintf("hetsim: Checkpoint of %d buffers into %d host matrices", len(srcs), len(dsts)))
	}
	s.clockMu.Lock()
	arrival := s.serial.floor
	s.clockMu.Unlock()
	defer func() {
		s.clockMu.Lock()
		s.serial.floor = max(s.serial.floor, arrival)
		s.clockMu.Unlock()
	}()
	s.CoalesceTransfers(func() {
		for i, src := range srcs {
			s.transferReliable(src, &Buffer{dev: s.cpu, m: dsts[i]}, &arrival)
		}
	})
}

// Restore writes host-side matrices into GPU-resident buffers: srcs[i] is
// copied into dsts[i], which must have its shape. It is the host-to-device
// half of the staging pair (see Checkpoint): one call is one message per
// link, its copies reliable and under the fail-stop gates and transfer
// accounting, each raising the pending arrival frontier as any copy into
// a GPU does. The copies read srcs in place and never write them; the
// caller may keep reusing them for later restores.
func (s *System) Restore(srcs []*matrix.Dense, dsts []*Buffer) {
	if len(srcs) != len(dsts) {
		panic(fmt.Sprintf("hetsim: Restore of %d host matrices into %d buffers", len(srcs), len(dsts)))
	}
	s.CoalesceTransfers(func() {
		for i, dst := range dsts {
			s.transferReliable(&Buffer{dev: s.cpu, m: srcs[i]}, dst, nil)
		}
	})
}
