package vm

// Block compilation: decode.go's cached instruction stream is lowered, one
// basic block at a time and lazily at actual entry points, into the micro-op
// form block.go executes. Blocks may overlap — a branch landing mid-block
// simply compiles its own block starting there — which keeps compilation a
// pure function of the decoded cache with no control-flow discovery pass.
//
// Superinstruction selection is driven by the dynamic opcode n-gram profile
// of the paper's seven target programs (array/loop code throughout): the
// compare+branch pair that ends nearly every loop body, the load+add-
// immediate pair of induction-variable updates, the addis+ori 32-bit
// constant materialisation, the mulli+add address computation of array
// indexing and its load-element extensions, and add+store. Fusion is purely
// peephole and only applies when it cannot change semantics: components are
// executed strictly in order inside the micro-op, any component that can
// fault carries its exact PC and cycle cost, and sequences that write the
// stack pointer (which would need the interpreter's guard between
// components) are left unfused.

// compileBlock compiles (and caches) the block entered at text word idx.
func (m *Machine) compileBlock(idx uint32) *block {
	b := m.buildBlock(idx)
	m.blocks[idx] = b
	return b
}

// fuseDest reports whether a fused pattern may write register r with no check
// between components: not the stack pointer (which would need the guard) and
// not r0 (whose writes the compiler elides instead of re-zeroing, so the
// executor's fused bodies never see an r0 destination).
func fuseDest(r uint8) bool { return r != RegSP && r != RegZero }

// Block terminal kinds found by the scanner.
const (
	termFall   = iota // fell off the cap or text end, or stopped before a trap or live breakpoint
	termBranch        // consumed a control-transfer instruction (b/bl/blr/bc/sc)
	termIll           // consumed an undecodable word (raises ExcIllegal)
)

// buildBlock scans the straight-line instruction run starting at text word
// start and lowers it to micro-ops.
func (m *Machine) buildBlock(start uint32) *block {
	decoded := m.decoded
	end := uint32(len(decoded))
	base := m.textBase

	if decoded[start].Op == OpTrap || m.iabrLive(start) {
		// The trap-hook protocol (displaced-instruction emulation) and the
		// breakpoint hook's canonical ordering belong to the interpreter;
		// the dispatcher steps this block.
		return interpBlock
	}

	insts := make([]Inst, 0, 16)
	idx := start
	kind := termFall
scan:
	for uint32(len(insts)) < maxBlockInsts && idx < end {
		if m.iabrLive(idx) {
			// End before a live breakpoint, exactly as before a trap.
			break
		}
		in := decoded[idx]
		switch in.Op {
		case OpTrap:
			// End before the trap; it starts its own (interpreted) block.
			break scan
		case OpB, OpBl, OpBlr, OpBc, OpSc:
			insts = append(insts, in)
			idx++
			kind = termBranch
			break scan
		case OpIllegal:
			insts = append(insts, in)
			idx++
			kind = termIll
			break scan
		default:
			insts = append(insts, in)
			idx++
		}
	}

	n := uint32(len(insts))
	b := &block{ops: make([]uop, 0, len(insts)+1), n: n}
	pcAt := func(i int) uint32 { return base + (start+uint32(i))*WordSize }

	for i := 0; i < len(insts); i++ {
		rem := len(insts) - i
		in := insts[i]

		// Superinstructions, longest first. Control-transfer opcodes only
		// appear as the final instruction, so multi-instruction patterns can
		// never swallow a terminal by accident; patterns ending in OpBc are
		// terminal by construction.
		if rem >= 4 && in.Op == OpLwz && fuseDest(in.RD) &&
			insts[i+1].Op == OpAddi && fuseDest(insts[i+1].RD) &&
			insts[i+2].Op == OpCmpw && insts[i+3].Op == OpBc {
			lw, ad, cm, bc := in, insts[i+1], insts[i+2], insts[i+3]
			b.ops = append(b.ops, uop{
				code: uLwzAddiCmpwBc, pc: pcAt(i), cyc: uint8(i + 4),
				d: lw.RD, a: lw.RA, imm: lw.Imm,
				d2: ad.RD, a2: ad.RA, imm2: ad.Imm,
				d3: (cm.RD >> 2) & 7, a3: cm.RA, b3: cm.RB,
				b: bc.RA & 7, cond: condEnc(Cond(bc.RD)),
				imm3: int32(pcAt(i+3) + uint32(bc.Imm)),
			})
			i += 3
			continue
		}
		if rem >= 3 && in.Op == OpLwz && fuseDest(in.RD) &&
			insts[i+1].Op == OpMulli && fuseDest(insts[i+1].RD) &&
			insts[i+2].Op == OpAdd && fuseDest(insts[i+2].RD) {
			lw, mu, ad := in, insts[i+1], insts[i+2]
			b.ops = append(b.ops, uop{
				code: uLwzMulliAdd, pc: pcAt(i), cyc: uint8(i + 1),
				d: lw.RD, a: lw.RA, imm: lw.Imm,
				d2: mu.RD, a2: mu.RA, imm2: mu.Imm,
				d3: ad.RD, a3: ad.RA, b3: ad.RB,
			})
			i += 2
			continue
		}
		if rem >= 2 {
			nx := insts[i+1]
			fused := true
			switch {
			case in.Op == OpCmpwi && nx.Op == OpBc:
				b.ops = append(b.ops, uop{
					code: uCmpwiBc, pc: pcAt(i), cyc: uint8(i + 2),
					d: (in.RD >> 2) & 7, a: in.RA, imm: in.Imm,
					a2: nx.RA & 7, cond: condEnc(Cond(nx.RD)),
					imm2: int32(pcAt(i+1) + uint32(nx.Imm)),
				})
			case in.Op == OpCmpw && nx.Op == OpBc:
				b.ops = append(b.ops, uop{
					code: uCmpwBc, pc: pcAt(i), cyc: uint8(i + 2),
					d: (in.RD >> 2) & 7, a: in.RA, b: in.RB,
					a2: nx.RA & 7, cond: condEnc(Cond(nx.RD)),
					imm2: int32(pcAt(i+1) + uint32(nx.Imm)),
				})
			case in.Op == OpLwz && fuseDest(in.RD) && nx.Op == OpAddi && fuseDest(nx.RD):
				b.ops = append(b.ops, uop{
					code: uLwzAddi, pc: pcAt(i), cyc: uint8(i + 1),
					d: in.RD, a: in.RA, imm: in.Imm,
					d2: nx.RD, a2: nx.RA, imm2: nx.Imm,
				})
			case in.Op == OpAddis && fuseDest(in.RD) && nx.Op == OpOri && fuseDest(nx.RD):
				b.ops = append(b.ops, uop{
					code: uAddisOri, pc: pcAt(i), cyc: uint8(i + 1),
					d: in.RD, a: in.RA, imm: int32(uint32(in.Imm) << 16),
					d2: nx.RD, a2: nx.RA, imm2: nx.Imm,
				})
			case in.Op == OpMulli && fuseDest(in.RD) && nx.Op == OpAdd && fuseDest(nx.RD):
				b.ops = append(b.ops, uop{
					code: uMulliAdd, pc: pcAt(i), cyc: uint8(i + 1),
					d: in.RD, a: in.RA, imm: in.Imm,
					d2: nx.RD, a2: nx.RA, b2: nx.RB,
				})
			case in.Op == OpAdd && fuseDest(in.RD) && nx.Op == OpLwz && fuseDest(nx.RD):
				b.ops = append(b.ops, uop{
					code: uAddLwz, pc: pcAt(i), cyc: uint8(i + 2),
					d: in.RD, a: in.RA, b: in.RB,
					d2: nx.RD, a2: nx.RA, imm2: nx.Imm,
				})
			case in.Op == OpAdd && fuseDest(in.RD) && nx.Op == OpStw:
				b.ops = append(b.ops, uop{
					code: uAddStw, pc: pcAt(i), cyc: uint8(i + 2),
					d: in.RD, a: in.RA, b: in.RB,
					d2: nx.RD, a2: nx.RA, imm2: nx.Imm,
				})
			default:
				fused = false
			}
			if fused {
				i++
				continue
			}
		}

		m.emitSingle(b, in, pcAt(i), i, int(n))
	}

	if kind == termFall {
		// No control transfer: hand the next address back to the dispatcher.
		b.ops = append(b.ops, uop{code: uEnd, pc: base + idx*WordSize, cyc: uint8(n)})
	}

	// A conditional branch back to this block's own entry is a self-loop:
	// mark it so the executor can re-enter the trace without a dispatch.
	if len(b.ops) > 0 {
		u := &b.ops[len(b.ops)-1]
		entry := base + start*WordSize
		switch u.code {
		case uBc:
			if uint32(u.imm) == entry {
				u.flags |= flagBackedge
			}
		case uCmpwiBc, uCmpwBc:
			if uint32(u.imm2) == entry {
				u.flags |= flagBackedge
			}
		case uLwzAddiCmpwBc:
			if uint32(u.imm3) == entry {
				u.flags |= flagBackedge
			}
		}
	}

	// Second-slot pair fusion (see pairTab): rewrite the first code of each
	// hot adjacent pair to the pair's code; the second micro-op stays in
	// place as the pair's operand slot and is skipped at dispatch. Purely a
	// dispatch-count optimisation — both components keep their own PC and
	// cycle fields, so fault behaviour is unchanged.
	for i := 0; i+1 < len(b.ops); i++ {
		if f := pairTab[b.ops[i].code][b.ops[i+1].code]; f != uNone {
			b.ops[i].code = f
			i++
		}
	}
	return b
}

// emitSingle lowers one instruction to its micro-op, followed by a stack
// guard when it writes SP (the compile-time equivalent of the interpreter's
// per-instruction check; memory loads carry their own guard in the checked
// tail). i is the instruction's index in the block, n the block's total
// instruction count.
func (m *Machine) emitSingle(b *block, in Inst, pc uint32, i, n int) {
	u := uop{pc: pc, d: in.RD, a: in.RA, imm: in.Imm, cyc: uint8(i + 1)}
	guard := false
	switch in.Op {
	case OpAddi:
		u.code, guard = uAddi, in.RD == RegSP
	case OpAddis:
		u.code, guard = uAddis, in.RD == RegSP
		u.imm = int32(uint32(in.Imm) << 16)
	case OpMulli:
		u.code, guard = uMulli, in.RD == RegSP
	case OpAndi:
		u.code, guard = uAndi, in.RD == RegSP
	case OpOri:
		u.code, guard = uOri, in.RD == RegSP
	case OpXori:
		u.code, guard = uXori, in.RD == RegSP
	case OpAdd, OpSubf, OpMullw, OpDivw, OpMod, OpAnd, OpOr, OpXor, OpSlw, OpSrw, OpSraw:
		u.b = in.RB
		guard = in.RD == RegSP
		switch in.Op {
		case OpAdd:
			u.code = uAdd
		case OpSubf:
			u.code = uSubf
		case OpMullw:
			u.code = uMullw
		case OpDivw:
			u.code = uDivw
		case OpMod:
			u.code = uMod
		case OpAnd:
			u.code = uAnd
		case OpOr:
			u.code = uOr
		case OpXor:
			u.code = uXor
		case OpSlw:
			u.code = uSlw
		case OpSrw:
			u.code = uSrw
		case OpSraw:
			u.code = uSraw
		}
	case OpNeg:
		u.code, guard = uNeg, in.RD == RegSP
	case OpCmpwi:
		u.code = uCmpwi
		u.d = (in.RD >> 2) & 7
	case OpCmpw:
		u.code = uCmpw
		u.d = (in.RD >> 2) & 7
		u.b = in.RB
	case OpMflr:
		u.code, guard = uMflr, in.RD == RegSP
	case OpMtlr:
		u.code = uMtlr
	case OpLwz:
		u.code = uLwz
		if in.RD == RegSP || in.RD == RegZero {
			u.code = uLwzSP
		}
	case OpStw:
		u.code = uStw
	case OpLbz:
		u.code = uLbz
		if in.RD == RegSP || in.RD == RegZero {
			u.code = uLbzSP
		}
	case OpStb:
		u.code = uStb
	case OpLwzx:
		u.b = in.RB
		u.code = uLwzx
		if in.RD == RegSP || in.RD == RegZero {
			u.code = uLwzxSP
		}
	case OpStwx:
		u.b = in.RB
		u.code = uStwx
	case OpLbzx:
		u.b = in.RB
		u.code = uLbzx
		if in.RD == RegSP || in.RD == RegZero {
			u.code = uLbzxSP
		}
	case OpStbx:
		u.b = in.RB
		u.code = uStbx
	case OpNop:
		// A nop has no effect the block does not already account for: its
		// cycle is in n and the block-level PC advance covers it.
		return
	case OpB:
		u.code, u.cyc = uB, uint8(n)
		u.imm = int32(pc + uint32(in.Off26))
	case OpBl:
		u.code, u.cyc = uBl, uint8(n)
		u.imm = int32(pc + uint32(in.Off26))
	case OpBlr:
		u.code, u.cyc = uBlr, uint8(n)
	case OpBc:
		u.code, u.cyc = uBc, uint8(n)
		u.a = in.RA & 7
		u.cond = condEnc(Cond(in.RD))
		u.imm = int32(pc + uint32(in.Imm))
		u.imm2 = int32(pc + WordSize)
	case OpSc:
		u.code, u.cyc = uSc, uint8(n)
	default:
		// OpIllegal (an undecodable or zeroed word) and any unknown opcode
		// raise exactly like the interpreter's execute default.
		u.code, u.cyc = uRaiseIll, uint8(n)
	}
	// r0 is hardwired to zero, so an instruction whose only effect is writing
	// r0 is architecturally a nop: emit nothing (its cycle is covered by the
	// block count, like OpNop). The executor's register-writing case bodies
	// rely on this — they skip the interpreter's r0 re-zero. Faultable
	// micro-ops (division, loads, syscalls) are excluded: uDivw/uMod keep the
	// re-zero in their bodies and r0-destination loads run the checked helper.
	if in.RD == RegZero {
		switch u.code {
		case uAddi, uAddis, uMulli, uAndi, uOri, uXori, uAdd, uSubf, uMullw,
			uAnd, uOr, uXor, uSlw, uSrw, uSraw, uNeg, uMflr:
			return
		}
	}
	b.ops = append(b.ops, u)
	if guard {
		b.ops = append(b.ops, uop{code: uGuardSP, pc: pc, cyc: uint8(i + 1)})
	}
}
