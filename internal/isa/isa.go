// Package isa defines the micro-operation instruction set consumed by the
// timing model. The simulator is trace driven: workload programs emit dynamic
// instances of these micro-ops (package workload), the out-of-order core
// (package pipeline) consumes them, and memory dependence predictors observe
// them through the hooks in package mdp.
//
// The ISA is deliberately minimal — loads, stores, branches and latency-
// classed compute ops over a small register file — because memory dependence
// prediction is sensitive only to the dataflow, control flow, and memory
// overlap structure of the stream, not to opcode semantics.
package isa

import "fmt"

// Reg identifies an architectural register. Register 0 is the hard-wired
// "none" register: it is always ready and writes to it are discarded.
type Reg uint8

// NumRegs is the size of the architectural register file (including R0).
const NumRegs = 64

// Kind classifies a micro-op for the issue logic.
type Kind uint8

const (
	// Nop occupies a slot but has no dataflow or side effects.
	Nop Kind = iota
	// ALU is a latency-classed compute op (integer or FP).
	ALU
	// Load reads Size bytes at Addr into Dst.
	Load
	// Store writes Size bytes at Addr.
	Store
	// Branch redirects control flow (see BranchClass).
	Branch
)

// String returns the lower-case mnemonic of the kind.
func (k Kind) String() string {
	switch k {
	case Nop:
		return "nop"
	case ALU:
		return "alu"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// BranchClass refines Branch micro-ops. Divergent branches — the ones PHAST
// tracks in its path history — are those that can take different paths on
// different executions: conditional branches and all indirect transfers
// (indirect jumps, indirect calls, and returns).
type BranchClass uint8

const (
	// NotBranch marks non-branch micro-ops.
	NotBranch BranchClass = iota
	// Direct is an unconditional direct jump (never divergent).
	Direct
	// Cond is a conditional direct branch (divergent: taken/not-taken).
	Cond
	// Indirect is an indirect jump (divergent: target varies).
	Indirect
	// Call is a direct call (not divergent; pushes a return address).
	Call
	// IndirectCall is an indirect call (divergent).
	IndirectCall
	// Return is a return through the stack (divergent).
	Return
)

// String returns the lower-case mnemonic of the branch class.
func (c BranchClass) String() string {
	switch c {
	case NotBranch:
		return "notbranch"
	case Direct:
		return "direct"
	case Cond:
		return "cond"
	case Indirect:
		return "indirect"
	case Call:
		return "call"
	case IndirectCall:
		return "indcall"
	case Return:
		return "return"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Divergent reports whether the class can take different paths on different
// executions. Only divergent branches enter the PHAST path history.
func (c BranchClass) Divergent() bool {
	switch c {
	case Cond, Indirect, IndirectCall, Return:
		return true
	default:
		return false
	}
}

// IndirectTarget reports whether the class resolves its destination from a
// register or the stack, so the history must record target bits rather than
// a taken/not-taken bit.
func (c BranchClass) IndirectTarget() bool {
	switch c {
	case Indirect, IndirectCall, Return:
		return true
	default:
		return false
	}
}

// Inst is one dynamic micro-op instance. Workload programs resolve all
// architectural values (memory address, branch outcome and target) when the
// instance is emitted; the timing model decides *when* those values become
// visible to the pipeline.
//
// The layout is 24 bytes with no padding: traces hold every micro-op
// resident, so each byte here costs one byte per simulated µop. Kind makes
// memory ops and branches disjoint, so one word carries a load's or store's
// address and a branch's destination.
type Inst struct {
	// PC is the address of the micro-op. Distinct static micro-ops must use
	// distinct PCs: every predictor in this repository indexes by PC.
	PC uint64
	// Addr is the first byte a load or store accesses, or the destination a
	// branch actually takes (its target if taken, the fall-through
	// otherwise; see Target). Other kinds leave it zero.
	Addr uint64

	// Kind classifies the op.
	Kind Kind
	// Class refines branches; NotBranch otherwise.
	Class BranchClass

	// Dst is the output register (0 = none).
	Dst Reg
	// SrcA and SrcB are input registers (0 = none). For loads SrcA is the
	// address base; for stores SrcA feeds the address and SrcB the data.
	SrcA, SrcB Reg

	// Lat is the execution latency in cycles for ALU ops (minimum 1).
	// Loads/stores derive latency from the memory system instead.
	Lat uint8
	// Size is the width in bytes of a load's or store's access.
	Size uint8

	// Taken is the resolved direction of conditional branches. Unconditional
	// transfers always have Taken == true.
	Taken bool
}

// Target returns a branch's resolved destination, which Addr carries.
func (in *Inst) Target() uint64 { return in.Addr }

// IsLoad reports whether the micro-op is a load.
func (in *Inst) IsLoad() bool { return in.Kind == Load }

// IsStore reports whether the micro-op is a store.
func (in *Inst) IsStore() bool { return in.Kind == Store }

// IsMem reports whether the micro-op accesses memory.
func (in *Inst) IsMem() bool { return in.Kind == Load || in.Kind == Store }

// IsBranch reports whether the micro-op is a control transfer.
func (in *Inst) IsBranch() bool { return in.Kind == Branch }

// Divergent reports whether the micro-op is a divergent branch.
func (in *Inst) Divergent() bool { return in.Kind == Branch && in.Class.Divergent() }

// End returns the first byte past the access ([Addr, End) is touched).
func (in *Inst) End() uint64 { return in.Addr + uint64(in.Size) }

// Overlaps reports whether the memory footprints of two accesses intersect.
// Non-memory ops never overlap anything.
func (in *Inst) Overlaps(other *Inst) bool {
	if !in.IsMem() || !other.IsMem() {
		return false
	}
	return Overlap(in.Addr, in.Size, other.Addr, other.Size)
}

// Covers reports whether the access of in fully contains [addr, addr+size).
// Store-to-load forwarding requires the store to cover the load.
func (in *Inst) Covers(addr uint64, size uint8) bool {
	return in.Addr <= addr && addr+uint64(size) <= in.End()
}

// String renders a compact human-readable form, useful in test failures.
func (in *Inst) String() string {
	switch in.Kind {
	case Load:
		return fmt.Sprintf("%#x: load  r%d <- [%#x,%d)", in.PC, in.Dst, in.Addr, in.Size)
	case Store:
		return fmt.Sprintf("%#x: store [%#x,%d) <- r%d", in.PC, in.Addr, in.Size, in.SrcB)
	case Branch:
		return fmt.Sprintf("%#x: %s taken=%t -> %#x", in.PC, in.Class, in.Taken, in.Target())
	case ALU:
		return fmt.Sprintf("%#x: alu   r%d <- r%d, r%d (lat %d)", in.PC, in.Dst, in.SrcA, in.SrcB, in.Lat)
	default:
		return fmt.Sprintf("%#x: %s", in.PC, in.Kind)
	}
}

// Overlap reports whether [a1, a1+s1) and [a2, a2+s2) intersect.
func Overlap(a1 uint64, s1 uint8, a2 uint64, s2 uint8) bool {
	if s1 == 0 || s2 == 0 {
		return false
	}
	return a1 < a2+uint64(s2) && a2 < a1+uint64(s1)
}
