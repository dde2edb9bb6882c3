package vm

import (
	"math/rand"
	"testing"
)

// Differential fuzz for the block-compiled engine: every program, however
// pathological, must behave bit-identically under the per-instruction
// interpreter and the block engine — same final registers and condition
// field, same memory (via the snapshot checksum), same output, same cycle
// count, same exception and faulting PC, same exit status. Programs are
// generated from a seeded source, so failures replay by seed.

// fuzzSetupLen/fuzzBodyLen fix the program shape so branch targets and the
// data-segment address are known before generation starts.
const (
	fuzzSetupLen = 8
	fuzzBodyLen  = 96
	fuzzTotalLen = fuzzSetupLen + fuzzBodyLen + 2 // + exit sequence
)

// genFuzzProgram builds one random program: a setup prologue that points
// r20/r21 into the data segment and seeds a few scratch registers, a body of
// weighted random instructions (arithmetic, compares, branches in both
// directions, memory traffic both aligned and occasionally not, syscalls,
// lr traffic, and raw — possibly undecodable — words), and an exit sequence
// reached on fall-through. Wild branches, wild pointers, division by zero
// and illegal words are all in scope: the contract under test is that both
// engines fault the same way, not that programs are well-behaved.
func genFuzzProgram(rng *rand.Rand) []uint32 {
	dataStart := uint32(TextBase + fuzzTotalLen*WordSize)
	text := make([]uint32, 0, fuzzTotalLen)
	emit := func(in Inst) { text = append(text, Encode(in)) }

	emit(Inst{Op: OpAddis, RD: 20, RA: RegZero, Imm: int32(int16(dataStart >> 16))})
	emit(Inst{Op: OpOri, RD: 20, RA: 20, Imm: int32(dataStart & 0xffff)})
	emit(Inst{Op: OpAddi, RD: 21, RA: 20, Imm: 256})
	emit(Inst{Op: OpAddi, RD: 4, RA: RegZero, Imm: int32(rng.Intn(64))})
	emit(Inst{Op: OpAddi, RD: 5, RA: RegZero, Imm: int32(rng.Intn(64)) - 32})
	emit(Inst{Op: OpAddi, RD: 6, RA: RegZero, Imm: int32(rng.Intn(200)) + 1})
	emit(Inst{Op: OpAddi, RD: 7, RA: RegZero, Imm: 3})
	emit(Inst{Op: OpNop})

	srcRegs := []uint8{2, 3, 4, 5, 6, 7, 8, 9, 20, 21}
	src := func() uint8 { return srcRegs[rng.Intn(len(srcRegs))] }
	dest := func() uint8 {
		// Mostly scratch registers; occasionally r0 (architectural zero,
		// elided at compile time) or the data bases themselves (turning
		// later memory traffic into wild-pointer coverage).
		switch rng.Intn(24) {
		case 0:
			return RegZero
		case 1:
			return 20 + uint8(rng.Intn(2))
		default:
			return 2 + uint8(rng.Intn(8))
		}
	}
	target := func() int { return fuzzSetupLen + rng.Intn(fuzzBodyLen) }

	for len(text) < fuzzSetupLen+fuzzBodyLen {
		i := len(text)
		switch k := rng.Intn(100); {
		case k < 22:
			ops := []Opcode{OpAdd, OpSubf, OpMullw, OpAnd, OpOr, OpXor, OpSlw, OpSrw, OpSraw, OpNeg, OpDivw, OpMod}
			emit(Inst{Op: ops[rng.Intn(len(ops))], RD: dest(), RA: src(), RB: src()})
		case k < 40:
			ops := []Opcode{OpAddi, OpAddis, OpMulli, OpAndi, OpOri, OpXori}
			emit(Inst{Op: ops[rng.Intn(len(ops))], RD: dest(), RA: src(), Imm: int32(rng.Intn(512)) - 128})
		case k < 50:
			if rng.Intn(2) == 0 {
				emit(Inst{Op: OpCmpwi, RD: uint8(rng.Intn(8)) << 2, RA: src(), Imm: int32(rng.Intn(64)) - 16})
			} else {
				emit(Inst{Op: OpCmpw, RD: uint8(rng.Intn(8)) << 2, RA: src(), RB: src()})
			}
		case k < 62:
			emit(Inst{Op: OpBc, RD: uint8(1 + rng.Intn(6)), RA: uint8(rng.Intn(8)), Imm: int32(target()-i) * WordSize})
		case k < 66:
			emit(Inst{Op: OpB, Off26: int32(target()-i) * WordSize})
		case k < 80:
			ops := []Opcode{OpLwz, OpStw, OpLbz, OpStb}
			op := ops[rng.Intn(len(ops))]
			off := int32(rng.Intn(64)) * WordSize
			if op == OpLbz || op == OpStb {
				off += int32(rng.Intn(4)) // byte accesses need no alignment
			} else if rng.Intn(16) == 0 {
				off++ // rare misaligned word access: must fault identically
			}
			emit(Inst{Op: op, RD: dest(), RA: 20 + uint8(rng.Intn(2)), Imm: off})
		case k < 86:
			ops := []Opcode{OpLwzx, OpStwx, OpLbzx, OpStbx}
			ra := uint8(20)
			if rng.Intn(4) == 0 {
				ra = src() // arbitrary base value: wild-pointer coverage
			}
			emit(Inst{Op: ops[rng.Intn(len(ops))], RD: dest(), RA: ra, RB: 4 + uint8(rng.Intn(3))})
		case k < 90:
			switch rng.Intn(3) {
			case 0:
				emit(Inst{Op: OpMflr, RD: dest()})
			case 1:
				emit(Inst{Op: OpMtlr, RD: src()})
			default:
				emit(Inst{Op: OpBl, Off26: int32(target()-i) * WordSize})
			}
		case k < 94 && len(text)+1 < fuzzSetupLen+fuzzBodyLen:
			emit(Inst{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: int32(1 + rng.Intn(6))})
			emit(Inst{Op: OpSc})
		case k < 97:
			emit(Inst{Op: OpNop})
		default:
			text = append(text, rng.Uint32()) // raw word, possibly undecodable
		}
	}
	emit(Inst{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysExit})
	emit(Inst{Op: OpSc})
	return text
}

// diffState is everything observable about a finished run. It is a
// comparable struct so two runs diverge iff the structs differ.
type diffState struct {
	state  State
	exc    Exc
	excAt  uint32
	cycles uint64
	exit   int32
	pc     uint32
	lr     uint32
	regs   [32]uint32
	cr     [8]crField
	output string
	sum    uint64
}

func captureDiff(m *Machine) diffState {
	d := diffState{
		state:  m.state,
		exc:    m.exc,
		excAt:  m.excAt,
		cycles: m.cycles,
		exit:   m.exitStatus,
		pc:     m.pc,
		lr:     m.lr,
		regs:   m.regs,
		cr:     m.cr,
		output: string(m.Output()),
	}
	if s := m.Snapshot(); s != nil {
		d.sum = s.Checksum()
	}
	return d
}

// newFuzzMachine loads the program for seed, with the fuzz watchdog budget
// and its input streams installed.
func newFuzzMachine(t *testing.T, seed int64) *Machine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	text := genFuzzProgram(rng)
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	m := New(Config{})
	if err := m.Load(Image{Text: text, Data: data, Entry: TextBase}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	m.SetMaxCycles(20000)
	setFuzzInput(m, seed)
	return m
}

// setFuzzInput installs the input streams for seed; they are drawn from the
// seed's source right after the program.
func setFuzzInput(m *Machine, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	genFuzzProgram(rng)
	ints := make([]int32, 16)
	for i := range ints {
		ints[i] = rng.Int31n(200) - 100
	}
	bts := make([]byte, 16)
	for i := range bts {
		bts[i] = byte(rng.Intn(256))
	}
	m.SetInput(ints)
	m.SetByteInput(bts)
}

// fuzzVisited returns, in address order, the body addresses the program for
// seed executes when run unarmed.
func fuzzVisited(t *testing.T, seed int64) []uint32 {
	t.Helper()
	m := newFuzzMachine(t, seed)
	seen := make(map[uint32]bool)
	m.SetFetchHook(func(addr, word uint32) uint32 {
		seen[addr] = true
		return word
	})
	if _, err := m.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	var out []uint32
	for a := uint32(TextBase + fuzzSetupLen*WordSize); a < TextBase+(fuzzSetupLen+fuzzBodyLen)*WordSize; a += WordSize {
		if seen[a] {
			out = append(out, a)
		}
	}
	return out
}

// runFuzzPair generates the program for seed, runs it once on the
// interpreter and once on the block engine (arm customizes both machines
// identically before Run), and fails on any observable divergence. It
// returns the cycle count so callers can assert the corpus is not vacuous.
func runFuzzPair(t *testing.T, seed int64, arm func(m *Machine)) uint64 {
	return runFuzzPairWarm(t, seed, false, arm)
}

// runFuzzPairWarm is runFuzzPair with an optional warm-up: when warm is set,
// each machine first runs the program unarmed and is Reset, so the block
// engine's cache already holds blocks over the whole executed text when arm
// runs.
func runFuzzPairWarm(t *testing.T, seed int64, warm bool, arm func(m *Machine)) uint64 {
	t.Helper()
	run := func(interpOnly bool) diffState {
		m := newFuzzMachine(t, seed)
		m.SetInterpOnly(interpOnly)
		if warm {
			if _, err := m.Run(); err != nil {
				t.Fatalf("seed %d: warm-up: %v", seed, err)
			}
			if err := m.Reset(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			setFuzzInput(m, seed)
		}
		if arm != nil {
			arm(m)
		}
		if !interpOnly && !m.blockOK {
			t.Fatalf("seed %d: block engine unexpectedly disabled", seed)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return captureDiff(m)
	}
	ref, blk := run(true), run(false)
	if ref != blk {
		t.Errorf("seed %d: interpreter and block engine diverge\ninterp: %+v\nblock:  %+v", seed, ref, blk)
	}
	return ref.cycles
}

func TestBlockDiffFuzz(t *testing.T) {
	var cycles uint64
	for seed := int64(0); seed < 64; seed++ {
		cycles += runFuzzPair(t, seed, nil)
	}
	// Many random programs fault within a few hundred cycles — that is the
	// point — but the corpus as a whole must still execute real work.
	if cycles < 50000 {
		t.Fatalf("fuzz corpus only executed %d cycles; generator is broken", cycles)
	}
}

// TestBlockDiffFuzzHooks re-runs a slice of the corpus with load and store
// hooks armed. Hooks force every memory uop down its checked slow path but
// leave the block engine enabled; corruption decisions are pure functions of
// the address, so both engines see the same values.
func TestBlockDiffFuzzHooks(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		runFuzzPair(t, seed, func(m *Machine) {
			m.SetLoadHook(func(addr, v uint32) uint32 {
				if addr&0x40 != 0 {
					return v ^ 0x00ff00ff
				}
				return v
			})
			m.SetStoreHook(func(addr, v uint32) uint32 {
				if addr&0x20 != 0 {
					return v ^ 0x80000001
				}
				return v
			})
		})
	}
}

// TestBlockDiffFuzzPlanted re-runs a slice of the corpus with a decoded
// corruption planted into the body before Run — the campaign's
// every-execution instruction-bus fault. The planted word is random and may
// be undecodable; both engines must execute (or fault on) it identically.
func TestBlockDiffFuzzPlanted(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		runFuzzPair(t, seed, func(m *Machine) {
			prng := rand.New(rand.NewSource(seed ^ 0x5eed))
			idx := fuzzSetupLen + prng.Intn(fuzzBodyLen)
			if err := m.PlantDecoded(TextBase+uint32(idx)*WordSize, prng.Uint32()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBlockDiffFuzzMidRunPlant re-runs a slice of the corpus planting the
// corruption from a cycle-mark watch hook mid-execution, which exercises
// block invalidation while the block engine is live: the spin guard must
// notice the invalidated block and re-dispatch, landing the plant at the
// same cycle as the interpreter does.
func TestBlockDiffFuzzMidRunPlant(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		runFuzzPair(t, seed, func(m *Machine) {
			prng := rand.New(rand.NewSource(seed ^ 0x11ced))
			idx := fuzzSetupLen + prng.Intn(fuzzBodyLen)
			word := prng.Uint32()
			at := uint64(100 + prng.Intn(2000))
			m.SetWatch(nil, []uint64{at}, func(m *Machine, pc uint32, cycleMark bool) {
				// Error ignored: planting can only fail for an out-of-text
				// address, and idx is in the body by construction.
				m.PlantDecoded(TextBase+uint32(idx)*WordSize, word)
			})
		})
	}
}

// TestBlockDiffFuzzBreakpoints re-runs the corpus with 0–2 hooked
// instruction-address breakpoints at random body addresses, on warm machines
// whose blocks already span those addresses. Each hook mutates a register,
// plants a word into the decoded cache (or toggles a plant back to the
// memory word on alternate hits, as the injector's Skip/Once path does),
// writes text at its address, or disarms its own register. Some breakpoints
// are armed before the run, the rest mid-run from the hook of a trap word
// planted in the body. The block engine cuts its blocks at live breakpoints
// and must match the interpreter on the full machine state.
func TestBlockDiffFuzzBreakpoints(t *testing.T) {
	const (
		actReg = iota
		actPlant
		actToggle
		actWrite
		actDisarm
		numActs
	)
	type bp struct {
		addr   uint32
		act    int
		word   uint32
		reg    uint8
		midRun bool
	}
	var hits uint64
	for seed := int64(0); seed < 128; seed++ {
		prng := rand.New(rand.NewSource(seed ^ 0x1abc))
		visited := fuzzVisited(t, seed)
		bodyAddr := func() uint32 {
			// Mostly addresses the run reaches, so hooks actually fire.
			if len(visited) > 0 && prng.Intn(4) != 0 {
				return visited[prng.Intn(len(visited))]
			}
			return TextBase + uint32(fuzzSetupLen+prng.Intn(fuzzBodyLen))*WordSize
		}
		bps := make([]bp, prng.Intn(NumIABR+1))
		for i := range bps {
			word := prng.Uint32()
			if prng.Intn(2) == 0 {
				word = Encode(Inst{Op: OpAddi, RD: 2 + uint8(prng.Intn(8)), RA: 2 + uint8(prng.Intn(8)), Imm: int32(prng.Intn(64))})
			}
			bps[i] = bp{
				addr: bodyAddr(), act: prng.Intn(numActs), word: word,
				reg: 2 + uint8(prng.Intn(8)), midRun: prng.Intn(2) == 0,
			}
		}
		trapAt := bodyAddr()
		runFuzzPairWarm(t, seed, true, func(m *Machine) {
			count := make([]int, len(bps))
			m.SetIABRHook(func(m *Machine, addr uint32) {
				for i, b := range bps {
					if b.addr != addr || !m.iabrSet[i] || m.iabr[i] != addr {
						continue
					}
					count[i]++
					if !m.interpOnly {
						hits++
					}
					// Errors ignored: planting and writing can only fail
					// outside text, and a breakpoint only fires in it.
					switch b.act {
					case actReg:
						m.SetReg(b.reg, m.Reg(b.reg)^uint32(0x9e3779b9*count[i]))
					case actPlant:
						m.PlantDecoded(addr, b.word)
					case actToggle:
						if count[i]%2 == 1 {
							m.PlantDecoded(addr, b.word)
						} else {
							w, _ := m.ReadWord(addr)
							m.PlantDecoded(addr, w)
						}
					case actWrite:
						m.SetTextWritable(true)
						m.WriteWord(addr, b.word)
						m.SetTextWritable(false)
					case actDisarm:
						m.ClearIABR(i)
					}
				}
			})
			var mid []int
			for i, b := range bps {
				if b.midRun {
					mid = append(mid, i)
				} else if err := m.SetIABR(i, b.addr); err != nil {
					t.Fatal(err)
				}
			}
			if len(mid) == 0 {
				return
			}
			orig, _ := m.ReadWord(trapAt)
			if in, err := Decode(orig); err == nil && in.Op == OpTrap {
				return // emulating a displaced trap would re-enter the hook
			}
			m.SetTextWritable(true)
			m.WriteWord(trapAt, Encode(Inst{Op: OpTrap}))
			m.SetTextWritable(false)
			m.SetTrapHook(func(m *Machine, pc uint32) error {
				for _, i := range mid {
					if err := m.SetIABR(i, bps[i].addr); err != nil {
						return err
					}
				}
				mid = nil
				return m.ExecuteInjected(orig)
			})
		})
	}
	if hits < 1000 {
		t.Fatalf("breakpoints fired only %d times across the corpus; generator is broken", hits)
	}
}

// checkNoBlockSpans fails if any compiled block starting before text word
// idx covers it, and reports the block entered at idx.
func checkNoBlockSpans(t *testing.T, m *Machine, idx uint32) *block {
	t.Helper()
	for j := uint32(0); j < idx; j++ {
		if b := m.blocks[j]; b != nil && j+b.n > idx {
			t.Fatalf("block at word %d (%d words) spans the live breakpoint at word %d", j, b.n, idx)
		}
	}
	return m.blocks[idx]
}

// TestBreakpointBlockCuts checks the compiler's side of live breakpoints on
// a warm machine: arming one drops every block spanning it and makes the
// breakpoint word its own interpreted block, and every way of killing it —
// ClearIABR, removing the hook, Reset, Restore — leaves no stale
// interpreted block behind and lets the blocks grow back to the layout of a
// machine that never had the breakpoint.
func TestBreakpointBlockCuts(t *testing.T) {
	prog := make([]Inst, 0, 100)
	for i := 0; i < 96; i++ {
		prog = append(prog, Inst{Op: OpAddi, RD: 3, RA: 3, Imm: 1})
	}
	img := buildImage(append(prog, exitSeq()...))
	ref := New(Config{})
	if err := ref.Load(img); err != nil {
		t.Fatal(err)
	}
	ref.CompileAllBlocks()

	const idx = 40
	addr := uint32(TextBase + idx*WordSize)
	m := New(Config{})
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	arm := func() {
		t.Helper()
		m.CompileAllBlocks()
		if b := m.blocks[idx-1]; b == nil || b.n < 2 {
			t.Fatal("warm machine has no block spanning the breakpoint address")
		}
		m.SetIABRHook(func(*Machine, uint32) {})
		if err := m.SetIABR(0, addr); err != nil {
			t.Fatal(err)
		}
		if b := checkNoBlockSpans(t, m, idx); b != nil && !b.interp {
			t.Fatal("compiled block survives at the live breakpoint")
		}
		m.CompileAllBlocks()
		if b := checkNoBlockSpans(t, m, idx); b == nil || !b.interp {
			t.Fatal("live breakpoint word is not an interpreted block")
		}
	}
	disarms := []struct {
		name string
		kill func()
	}{
		{"ClearIABR", func() { m.ClearIABR(0) }},
		{"SetIABRHook(nil)", func() { m.SetIABRHook(nil) }},
		{"Reset", func() {
			if err := m.Reset(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Restore", func() {
			if err := m.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range disarms {
		arm()
		d.kill()
		if b := m.blocks[idx]; b != nil && b.interp {
			t.Fatalf("%s: stale interpreted block at the disarmed address", d.name)
		}
		m.CompileAllBlocks()
		for j, b := range m.blocks {
			if rb := ref.blocks[j]; b.n != rb.n || b.interp != rb.interp {
				t.Fatalf("%s: block at word %d is %d words (interp %v), want %d (interp %v)",
					d.name, j, b.n, b.interp, rb.n, rb.interp)
			}
		}
		m.SetIABRHook(nil)
		m.ClearIABR(0)
	}
}
