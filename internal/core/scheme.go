package core

import (
	"ftla/internal/checksum"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// plan expands a Scheme into concrete verification points. The paper's
// Table VI compares the block-verification volume these induce.
type plan struct {
	// beforePD verifies the panel about to be decomposed (for NewScheme
	// this also performs the heuristic TMU follow-up of §VII.B Fig. 4b).
	beforePD bool
	// afterPDCPU verifies the decomposed panel on the CPU before
	// broadcast, via the factor-product checksum relation (see
	// pdProductCheck* in the drivers).
	afterPDCPU bool
	// afterPDBcast verifies the received panel on every GPU after the
	// broadcast — the paper's postponed check that covers PCIe (§VII).
	afterPDBcast bool
	// beforePU / afterPU verify the panel being updated around PU.
	beforePU bool
	afterPU  bool
	// afterPUBcast verifies the received PU panel on every GPU after the
	// inter-GPU broadcast (Cholesky's L21 broadcast).
	afterPUBcast bool
	// beforeTMUPanels verifies TMU's reference panels; beforeTMUTrailing
	// verifies the whole trailing matrix as TMU input (PriorOp).
	beforeTMUPanels   bool
	beforeTMUTrailing bool
	// afterTMUTrailing verifies the whole trailing matrix as TMU output
	// (PostOp); afterTMUHeuristic runs the cheap panel-only heuristic
	// check of §VII.B instead (NewScheme).
	afterTMUTrailing  bool
	afterTMUHeuristic bool
}

func planFor(s Scheme) plan {
	switch s {
	case PriorOp:
		return plan{
			beforePD:          true,
			beforePU:          true,
			beforeTMUPanels:   true,
			beforeTMUTrailing: true,
		}
	case PostOp:
		return plan{
			afterPDCPU:       true,
			afterPU:          true,
			afterTMUTrailing: true,
		}
	case NewScheme:
		return plan{
			beforePD:          true,
			afterPDCPU:        true,
			afterPDBcast:      true,
			beforePU:          true,
			afterPU:           true,
			afterPUBcast:      true,
			afterTMUHeuristic: true,
		}
	default:
		return plan{}
	}
}

// encodeColInto recomputes the column checksums of data into chk using the
// configured kernel and charges encode time.
func (p *protected) encodeColInto(workers int, data, chk *matrix.Dense) {
	defer p.es.span(obs.PhaseEncode, "encode-col", &p.es.res.EncodeT)()
	checksum.EncodeCol(p.es.opts.Kernel, workers, data, p.nb, chk)
}

// stagePair is a per-GPU staging area for a broadcast panel and its column
// checksums.
type stagePair struct {
	data *hetsim.Buffer
	chk  *hetsim.Buffer
}

// allocStages allocates a (rows × cols) panel stage on every live GPU,
// plus a (2·strips × cols) checksum stage unless the run keeps no
// checksums; GPUs taken down by a node loss keep a zero stagePair, which
// every stage consumer skips.
func (p *protected) allocStages(rows, strips, cols int) []stagePair {
	G := p.es.sys.NumGPUs()
	out := make([]stagePair, G)
	for g := 0; g < G; g++ {
		if !p.gpuLive(g) {
			continue
		}
		out[g].data = p.es.sys.GPU(g).Alloc(rows, cols)
		if p.es.opts.Protection != NoChecksum {
			out[g].chk = p.es.sys.GPU(g).Alloc(2*strips, cols)
		}
	}
	return out
}

// verifyStages verifies each GPU's received stage against its received
// checksums and repairs localizable corruption. It returns the per-GPU
// outcomes and the count of GPUs whose stage was corrupted — the §VII.C
// disambiguation input: corruption on *every* GPU implicates the sender
// (PD/PU), corruption on *some* GPUs implicates PCIe.
func (p *protected) verifyStages(stages []stagePair, countPer *int, blocksPerStage int) (outs []repairOutcome, corrupted int) {
	outs = make([]repairOutcome, len(stages))
	for g := range stages {
		if stages[g].data == nil {
			continue
		}
		gdev := p.es.sys.GPU(g)
		out, _ := p.verifyRepair(colAxis, gdev.Workers(), stages[g].data.Access(gdev), stages[g].chk.Access(gdev), nil)
		outs[g] = out
		if out != repairClean {
			corrupted++
		}
		*countPer += blocksPerStage
	}
	return outs, corrupted
}
