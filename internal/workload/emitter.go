package workload

import "repro/internal/isa"

// errStreamFull is the sentinel the Emitter panics with when the requested
// instruction count has been produced; Generate recovers it.
var errStreamFull = new(struct{ _ int })

// Emitter collects the dynamic micro-op stream of a program. It provides a
// small assembler surface (one method per micro-op shape), a simulated call
// stack and stack pointer for spill/fill motifs, and the program's RNG.
type Emitter struct {
	// RNG is the program's primary random stream.
	RNG *RNG

	out   []isa.Inst
	limit int
	guard int // micro-ops emitted in the current Gen invocation

	sp        uint64
	callStack []uint64
}

// stackTop is the initial simulated stack pointer. The stack grows down.
const stackTop = 0x7fff_ffff_0000

func newEmitter(n int, seed int64) *Emitter {
	return &Emitter{
		RNG:   NewRNG(seed),
		out:   make([]isa.Inst, 0, n),
		limit: n,
		sp:    stackTop,
	}
}

func (e *Emitter) emit(in isa.Inst) {
	e.out = append(e.out, in)
	e.guard++
	if len(e.out) >= e.limit {
		panic(errStreamFull)
	}
}

// Count returns the number of micro-ops emitted so far.
func (e *Emitter) Count() int { return len(e.out) }

// Nop emits a no-op.
func (e *Emitter) Nop(pc uint64) {
	e.emit(isa.Inst{PC: pc, Kind: isa.Nop})
}

// ALU emits a compute op dst <- f(a, b) with the given latency (min 1).
func (e *Emitter) ALU(pc uint64, dst, a, b isa.Reg, lat int) {
	if lat < 1 {
		lat = 1
	}
	e.emit(isa.Inst{PC: pc, Kind: isa.ALU, Dst: dst, SrcA: a, SrcB: b, Lat: uint8(lat)})
}

// Load emits a load of size bytes at addr into dst; base is the address
// register the load waits on before it can issue.
func (e *Emitter) Load(pc uint64, dst, base isa.Reg, addr uint64, size int) {
	e.emit(isa.Inst{PC: pc, Kind: isa.Load, Dst: dst, SrcA: base, Addr: addr, Size: uint8(size)})
}

// Store emits a store of size bytes at addr; addrReg gates address
// resolution and dataReg gates the data. A store with a slow addrReg
// producer is exactly the "unresolved in-flight store" MDP exists for.
func (e *Emitter) Store(pc uint64, addrReg, dataReg isa.Reg, addr uint64, size int) {
	e.emit(isa.Inst{PC: pc, Kind: isa.Store, SrcA: addrReg, SrcB: dataReg, Addr: addr, Size: uint8(size)})
}

// Cond emits a conditional branch on src with the given resolved direction.
// The fall-through address is pc+4.
func (e *Emitter) Cond(pc uint64, src isa.Reg, taken bool, target uint64) {
	dest := target
	if !taken {
		dest = pc + 4
	}
	e.emit(isa.Inst{PC: pc, Kind: isa.Branch, Class: isa.Cond, SrcA: src, Taken: taken, Addr: dest})
}

// Jmp emits an unconditional direct jump (not divergent).
func (e *Emitter) Jmp(pc, target uint64) {
	e.emit(isa.Inst{PC: pc, Kind: isa.Branch, Class: isa.Direct, Taken: true, Addr: target})
}

// IndJmp emits an indirect jump through src to the resolved target.
func (e *Emitter) IndJmp(pc uint64, src isa.Reg, target uint64) {
	e.emit(isa.Inst{PC: pc, Kind: isa.Branch, Class: isa.Indirect, SrcA: src, Taken: true, Addr: target})
}

// Call emits a direct call and pushes the return address.
func (e *Emitter) Call(pc, target uint64) {
	e.callStack = append(e.callStack, pc+4)
	e.emit(isa.Inst{PC: pc, Kind: isa.Branch, Class: isa.Call, Taken: true, Addr: target})
}

// IndCall emits an indirect call through src and pushes the return address.
func (e *Emitter) IndCall(pc uint64, src isa.Reg, target uint64) {
	e.callStack = append(e.callStack, pc+4)
	e.emit(isa.Inst{PC: pc, Kind: isa.Branch, Class: isa.IndirectCall, SrcA: src, Taken: true, Addr: target})
}

// Ret emits a return to the most recent pushed return address.
func (e *Emitter) Ret(pc uint64) {
	if len(e.callStack) == 0 {
		panic("workload: return with empty call stack")
	}
	target := e.callStack[len(e.callStack)-1]
	e.callStack = e.callStack[:len(e.callStack)-1]
	e.emit(isa.Inst{PC: pc, Kind: isa.Branch, Class: isa.Return, Taken: true, Addr: target})
}

// SP returns the current simulated stack pointer.
func (e *Emitter) SP() uint64 { return e.sp }

// PushFrame reserves size bytes of stack and returns the frame base (its
// lowest address). Frames back spill/fill dependence motifs.
func (e *Emitter) PushFrame(size int) uint64 {
	e.sp -= uint64(size)
	return e.sp
}

// PopFrame releases the most recent size-byte frame.
func (e *Emitter) PopFrame(size int) { e.sp += uint64(size) }

// Depth returns the simulated call-stack depth.
func (e *Emitter) Depth() int { return len(e.callStack) }
