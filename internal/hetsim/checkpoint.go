package hetsim

import "ftla/internal/matrix"

// Checkpoint stages a GPU-resident buffer to a host-owned matrix. Together
// with Restore it is the one host⇄device column staging: the initial
// distribution, checkpoints, rollback and resume, and the final gather all
// move their columns through this pair. The copy goes over the PCIe fabric
// (passing the fail-stop gates and charging the communication clocks),
// never read out of device memory behind the simulator's back, and uses
// the reliable protocol (TransferReliable): a snapshot damaged in flight
// would poison every later rollback, so staging traffic is never left to
// a lucky wire. The returned matrix is owned by the caller and shares no
// storage with the buffer.
func (s *System) Checkpoint(src *Buffer) *matrix.Dense {
	stage := s.cpu.Alloc(src.Rows(), src.Cols())
	s.TransferReliable(src, stage)
	return stage.Access(s.cpu)
}

// Restore writes a host-side matrix into a GPU-resident buffer of the same
// shape over the PCIe fabric — the host-to-device half of the staging pair
// (see Checkpoint), so fail-stop gates and transfer accounting apply. The
// matrix is copied, not aliased; the caller may keep reusing it for later
// restores.
func (s *System) Restore(snap *matrix.Dense, dst *Buffer) {
	s.TransferReliable(s.cpu.AllocFrom(snap), dst)
}
