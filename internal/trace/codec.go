package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

// Binary trace format (little endian, varint-compressed):
//
//	magic  "MDPT"            4 bytes
//	version                  1 byte
//	name length + bytes      uvarint + n
//	instruction count        uvarint
//	per instruction:
//	  kind|class packed      1 byte   (kind in low 3 bits, class in next 3,
//	                                   taken in bit 6)
//	  pc delta               varint   (vs previous pc)
//	  dst, srcA, srcB        3 bytes
//	  lat                    1 byte   (ALU only)
//	  addr delta, size       varint + 1 byte (memory ops only)
//	  target delta           varint   (branches only)
//
// PC/address/target deltas make hot loops nearly free to encode. Addr
// carries both a memory op's address and a branch's destination (see
// isa.Inst), but each use keeps its own delta base.

const codecMagic = "MDPT"
const codecVersion = 1

// Encode writes the trace in the binary format.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(codecVersion); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Insts))); err != nil {
		return err
	}
	var prevPC, prevAddr, prevTarget uint64
	for i := range t.Insts {
		in := &t.Insts[i]
		head := byte(in.Kind) | byte(in.Class)<<3
		if in.Taken {
			head |= 1 << 6
		}
		if err := bw.WriteByte(head); err != nil {
			return err
		}
		if err := putVarint(int64(in.PC - prevPC)); err != nil {
			return err
		}
		prevPC = in.PC
		if _, err := bw.Write([]byte{byte(in.Dst), byte(in.SrcA), byte(in.SrcB)}); err != nil {
			return err
		}
		if in.Kind == isa.ALU {
			if err := bw.WriteByte(in.Lat); err != nil {
				return err
			}
		}
		if in.IsMem() {
			if err := putVarint(int64(in.Addr - prevAddr)); err != nil {
				return err
			}
			prevAddr = in.Addr
			if err := bw.WriteByte(in.Size); err != nil {
				return err
			}
		}
		if in.IsBranch() {
			if err := putVarint(int64(in.Target() - prevTarget)); err != nil {
				return err
			}
			prevTarget = in.Target()
		}
	}
	return bw.Flush()
}

// minEncodedInst is the fewest bytes one encoded micro-op takes: the head
// byte, a one-byte pc delta and the three register bytes.
const minEncodedInst = 5

// decodeChunk caps the micro-ops Decode reserves up front when the reader
// does not report its length; the slice grows by append beyond it.
const decodeChunk = 1 << 12

// Decode reads a trace previously written by Encode. The header's
// instruction count is a claim, not a size: Decode never reserves more
// micro-ops than the rest of the payload can encode (when r reports its
// length, as bytes.Reader does) or than decodeChunk, so a short payload that
// claims billions of micro-ops fails at its end instead of allocating them.
func Decode(r io.Reader) (*Trace, error) {
	reserve := uint64(decodeChunk)
	if l, ok := r.(interface{ Len() int }); ok {
		reserve = uint64(l.Len()) / minEncodedInst
	}
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != codecVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, err
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("trace: unreasonable instruction count %d", count)
	}
	insts := make([]isa.Inst, 0, min(count, reserve))
	regs := make([]byte, 3)
	var prevPC, prevAddr, prevTarget uint64
	for i := uint64(0); i < count; i++ {
		insts = append(insts, isa.Inst{})
		in := &insts[i]
		head, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: inst %d: %w", i, err)
		}
		in.Kind = isa.Kind(head & 7)
		in.Class = isa.BranchClass((head >> 3) & 7)
		in.Taken = head&(1<<6) != 0
		d, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		in.PC = prevPC + uint64(d)
		prevPC = in.PC
		if _, err := io.ReadFull(br, regs); err != nil {
			return nil, err
		}
		in.Dst, in.SrcA, in.SrcB = isa.Reg(regs[0]), isa.Reg(regs[1]), isa.Reg(regs[2])
		if in.Kind == isa.ALU {
			if in.Lat, err = br.ReadByte(); err != nil {
				return nil, err
			}
		}
		if in.IsMem() {
			d, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			in.Addr = prevAddr + uint64(d)
			prevAddr = in.Addr
			if in.Size, err = br.ReadByte(); err != nil {
				return nil, err
			}
		}
		if in.IsBranch() {
			d, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			in.Addr = prevTarget + uint64(d)
			prevTarget = in.Addr
		}
	}
	return &Trace{Name: string(nameBytes), Insts: insts}, nil
}
