package vm

import (
	"fmt"
	"strings"
	"testing"
)

// buildImage assembles a raw instruction slice into an image at TextBase.
func buildImage(insts []Inst) Image {
	text := make([]uint32, len(insts))
	for i, in := range insts {
		text[i] = Encode(in)
	}
	return Image{Text: text, Entry: TextBase}
}

// run loads and runs the given instructions on a fresh machine.
func run(t *testing.T, insts []Inst) *Machine {
	t.Helper()
	m := New(Config{})
	if err := m.Load(buildImage(insts)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

// exitWith returns the instruction pair that exits with the value of r3.
func exitSeq() []Inst {
	return []Inst{
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysExit},
		{Op: OpSc},
	}
}

func TestRunWithoutLoad(t *testing.T) {
	m := New(Config{})
	if _, err := m.Run(); err == nil {
		t.Fatal("Run on unloaded machine should fail")
	}
}

func TestHaltAndExitStatus(t *testing.T) {
	prog := append([]Inst{{Op: OpAddi, RD: 3, RA: RegZero, Imm: 42}}, exitSeq()...)
	m := run(t, prog)
	if m.State() != StateHalted {
		t.Fatalf("state = %v, want halted", m.State())
	}
	if m.ExitStatus() != 42 {
		t.Errorf("exit status = %d, want 42", m.ExitStatus())
	}
}

func TestR0HardwiredZero(t *testing.T) {
	prog := append([]Inst{
		{Op: OpAddi, RD: 0, RA: RegZero, Imm: 99}, // write to r0 ignored
		{Op: OpAddi, RD: 3, RA: 0, Imm: 7},        // r3 = r0 + 7 = 7
	}, exitSeq()...)
	m := run(t, prog)
	if m.ExitStatus() != 7 {
		t.Errorf("exit status = %d, want 7 (r0 must read as zero)", m.ExitStatus())
	}
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name string
		prog []Inst
		want int32
	}{
		{"add", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: 30},
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 12},
			{Op: OpAdd, RD: 3, RA: 4, RB: 5},
		}, 42},
		{"subf order", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: 10},
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 3},
			{Op: OpSubf, RD: 3, RA: 5, RB: 4}, // rB - rA = 10-3
		}, 7},
		{"mullw negative", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: -6},
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 7},
			{Op: OpMullw, RD: 3, RA: 4, RB: 5},
		}, -42},
		{"divw truncates toward zero", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: -7},
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 2},
			{Op: OpDivw, RD: 3, RA: 4, RB: 5},
		}, -3},
		{"mod sign follows dividend", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: -7},
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 2},
			{Op: OpMod, RD: 3, RA: 4, RB: 5},
		}, -1},
		{"mulli", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: 6},
			{Op: OpMulli, RD: 3, RA: 4, Imm: -7},
		}, -42},
		{"neg", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: -5},
			{Op: OpNeg, RD: 3, RA: 4},
		}, 5},
		{"logic and shift", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: 0xf0},
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 0x3c},
			{Op: OpAnd, RD: 6, RA: 4, RB: 5},  // 0x30
			{Op: OpOri, RD: 6, RA: 6, Imm: 1}, // 0x31
			{Op: OpAddi, RD: 7, RA: RegZero, Imm: 2},
			{Op: OpSlw, RD: 3, RA: 6, RB: 7}, // 0xc4
		}, 0xc4},
		{"sraw sign extends", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: -8},
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 1},
			{Op: OpSraw, RD: 3, RA: 4, RB: 5},
		}, -4},
		{"srw is logical", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: -8}, // 0xfffffff8
			{Op: OpAddi, RD: 5, RA: RegZero, Imm: 28},
			{Op: OpSrw, RD: 3, RA: 4, RB: 5},
		}, 15},
		{"xor xori", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: 0x55},
			{Op: OpXori, RD: 3, RA: 4, Imm: 0xff},
		}, 0xaa},
		{"addis", []Inst{
			{Op: OpAddis, RD: 3, RA: RegZero, Imm: 2},
			{Op: OpOri, RD: 3, RA: 3, Imm: 0x34},
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: 16},
			{Op: OpSrw, RD: 3, RA: 3, RB: 4},
		}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := run(t, append(tt.prog, exitSeq()...))
			if m.State() != StateHalted {
				t.Fatalf("state %v (exc %v)", m.State(), m.exc)
			}
			if m.ExitStatus() != tt.want {
				t.Errorf("result = %d, want %d", m.ExitStatus(), tt.want)
			}
		})
	}
}

func TestBranchesAndLoops(t *testing.T) {
	// Sum 1..10 with a bc loop: r3=acc, r4=i.
	prog := []Inst{
		{Op: OpAddi, RD: 3, RA: RegZero, Imm: 0},
		{Op: OpAddi, RD: 4, RA: RegZero, Imm: 1},
		// loop:
		{Op: OpAdd, RD: 3, RA: 3, RB: 4},
		{Op: OpAddi, RD: 4, RA: 4, Imm: 1},
		{Op: OpCmpwi, RD: 0, RA: 4, Imm: 10},
		{Op: OpBc, RD: uint8(CondLE), RA: 0, Imm: -12}, // back to loop
	}
	m := run(t, append(prog, exitSeq()...))
	if m.ExitStatus() != 55 {
		t.Errorf("sum = %d, want 55", m.ExitStatus())
	}
}

func TestCallAndReturn(t *testing.T) {
	// main: bl f; exit(r3).  f: r3 = 99; blr.
	prog := []Inst{
		{Op: OpBl, Off26: 16}, // to f at +16 (4 insts ahead)
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysExit},
		{Op: OpSc},
		{Op: OpNop},
		// f:
		{Op: OpAddi, RD: 3, RA: RegZero, Imm: 99},
		{Op: OpBlr},
	}
	m := run(t, prog)
	if m.ExitStatus() != 99 {
		t.Errorf("exit = %d, want 99", m.ExitStatus())
	}
}

func TestMflrMtlr(t *testing.T) {
	prog := append([]Inst{
		{Op: OpAddi, RD: 9, RA: RegZero, Imm: 0x48},
		{Op: OpMtlr, RD: 9},
		{Op: OpMflr, RD: 3},
	}, exitSeq()...)
	m := run(t, prog)
	if m.ExitStatus() != 0x48 {
		t.Errorf("lr round trip = %#x, want 0x48", m.ExitStatus())
	}
}

func TestMemoryWordAndByte(t *testing.T) {
	// Store 0x11223344 at SP-8, reload word and byte 3.
	prog := append([]Inst{
		{Op: OpAddis, RD: 4, RA: RegZero, Imm: 0x1122},
		{Op: OpOri, RD: 4, RA: 4, Imm: 0x3344},
		{Op: OpStw, RD: 4, RA: RegSP, Imm: -8},
		{Op: OpLwz, RD: 5, RA: RegSP, Imm: -8},
		{Op: OpLbz, RD: 6, RA: RegSP, Imm: -8}, // big-endian: MSB first = 0x11
		{Op: OpSubf, RD: 3, RA: 6, RB: 5},      // r5 - r6
		{Op: OpAddi, RD: 7, RA: RegZero, Imm: 16},
		{Op: OpSrw, RD: 3, RA: 3, RB: 7},
	}, exitSeq()...)
	m := run(t, prog)
	// (0x11223344 - 0x11) >> 16 = 0x1122
	if m.ExitStatus() != 0x1122 {
		t.Errorf("got %#x, want 0x1122", m.ExitStatus())
	}
}

func TestIndexedMemory(t *testing.T) {
	prog := append([]Inst{
		{Op: OpAddi, RD: 4, RA: RegZero, Imm: 123},
		{Op: OpAddi, RD: 5, RA: RegZero, Imm: -16}, // index
		{Op: OpStwx, RD: 4, RA: RegSP, RB: 5},
		{Op: OpLwzx, RD: 3, RA: RegSP, RB: 5},
	}, exitSeq()...)
	m := run(t, prog)
	if m.ExitStatus() != 123 {
		t.Errorf("got %d, want 123", m.ExitStatus())
	}
}

func TestExceptions(t *testing.T) {
	tests := []struct {
		name string
		prog []Inst
		want Exc
	}{
		{"div by zero", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: 1},
			{Op: OpDivw, RD: 3, RA: 4, RB: 0},
		}, ExcDivZero},
		{"mod by zero", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: 1},
			{Op: OpMod, RD: 3, RA: 4, RB: 0},
		}, ExcDivZero},
		{"misaligned load", []Inst{
			{Op: OpLwz, RD: 3, RA: RegSP, Imm: -7},
		}, ExcAlign},
		{"store into text", []Inst{
			{Op: OpAddi, RD: 4, RA: RegZero, Imm: TextBase},
			{Op: OpStw, RD: 4, RA: 4, Imm: 0},
		}, ExcProt},
		{"load below text", []Inst{
			{Op: OpLwz, RD: 3, RA: RegZero, Imm: 16},
		}, ExcProt},
		{"wild store", []Inst{
			{Op: OpAddis, RD: 4, RA: RegZero, Imm: 0x7fff},
			{Op: OpStw, RD: 4, RA: 4, Imm: 0},
		}, ExcProt},
		{"bad syscall", []Inst{
			{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: 999},
			{Op: OpSc},
		}, ExcBadSys},
		{"unhandled trap", []Inst{
			{Op: OpTrap},
		}, ExcTrap},
		{"runs off text end", []Inst{
			{Op: OpNop},
		}, ExcProt},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := run(t, tt.prog)
			if m.State() != StateCrashed {
				t.Fatalf("state = %v, want crashed", m.State())
			}
			if exc, _ := m.Exception(); exc != tt.want {
				t.Errorf("exception = %v, want %v", exc, tt.want)
			}
		})
	}
}

// TestIllegalInstructionCrash: an undecodable word, or the all-zero word
// (OpIllegal), raises ExcIllegal at its own PC on both engines — step relies
// on the decoded cache holding the zero Inst for such words.
func TestIllegalInstructionCrash(t *testing.T) {
	tests := []struct {
		name string
		idx  int
		word uint32
	}{
		{"undecodable entry", 0, 0xffffffff},
		{"zero word", 1, 0},
	}
	for _, tt := range tests {
		for _, interpOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/interpOnly=%v", tt.name, interpOnly), func(t *testing.T) {
				m := New(Config{})
				m.SetInterpOnly(interpOnly)
				img := buildImage(append([]Inst{{Op: OpNop}}, exitSeq()...))
				img.Text[tt.idx] = tt.word
				if err := m.Load(img); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if m.State() != StateCrashed {
					t.Fatalf("state = %v, want crashed", m.State())
				}
				want := TextBase + uint32(tt.idx)*WordSize
				if exc, at := m.Exception(); exc != ExcIllegal || at != want {
					t.Errorf("exception = %v at %#x, want illegal at %#x", exc, at, want)
				}
			})
		}
	}
}

func TestWatchdogHang(t *testing.T) {
	m := New(Config{MaxCycles: 1000})
	// Infinite loop: b .
	img := buildImage([]Inst{{Op: OpB, Off26: 0}})
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	state, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if state != StateHung {
		t.Fatalf("state = %v, want hung", state)
	}
	if m.Cycles() != 1000 {
		t.Errorf("cycles = %d, want 1000", m.Cycles())
	}
}

func TestSyscallIO(t *testing.T) {
	// Read two ints, write their sum, echo one char, exit 0.
	prog := append([]Inst{
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysReadInt},
		{Op: OpSc},
		{Op: OpOr, RD: 8, RA: 3, RB: 3},
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysReadInt},
		{Op: OpSc},
		{Op: OpAdd, RD: 3, RA: 8, RB: 3},
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysWriteInt},
		{Op: OpSc},
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysReadChar},
		{Op: OpSc},
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysWriteChar},
		{Op: OpSc},
		{Op: OpAddi, RD: 3, RA: RegZero, Imm: 0},
	}, exitSeq()...)
	m := New(Config{})
	if err := m.Load(buildImage(prog)); err != nil {
		t.Fatal(err)
	}
	m.SetInput([]int32{40, 2})
	m.SetByteInput([]byte{'Z'})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := string(m.Output()); got != "42\nZ" {
		t.Errorf("output = %q, want %q", got, "42\nZ")
	}
}

func TestReadIntEOF(t *testing.T) {
	prog := append([]Inst{
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysReadInt},
		{Op: OpSc},
		{Op: OpOr, RD: 3, RA: 4, RB: 4}, // exit with EOF flag
	}, exitSeq()...)
	m := New(Config{})
	if err := m.Load(buildImage(prog)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus() != 1 {
		t.Errorf("EOF flag = %d, want 1", m.ExitStatus())
	}
}

func TestReadCharEOF(t *testing.T) {
	prog := append([]Inst{
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysReadChar},
		{Op: OpSc},
	}, exitSeq()...)
	m := New(Config{})
	if err := m.Load(buildImage(prog)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus() != -1 {
		t.Errorf("EOF char = %d, want -1", m.ExitStatus())
	}
}

func TestBrkAllocates(t *testing.T) {
	// p = brk(64); store 7 at p; load it back.
	prog := append([]Inst{
		{Op: OpAddi, RD: 3, RA: RegZero, Imm: 64},
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysBrk},
		{Op: OpSc},
		{Op: OpOr, RD: 9, RA: 3, RB: 3},
		{Op: OpAddi, RD: 4, RA: RegZero, Imm: 7},
		{Op: OpStw, RD: 4, RA: 9, Imm: 0},
		{Op: OpLwz, RD: 3, RA: 9, Imm: 0},
	}, exitSeq()...)
	m := run(t, prog)
	if m.State() != StateHalted {
		t.Fatalf("state %v exc %v", m.State(), m.exc)
	}
	if m.ExitStatus() != 7 {
		t.Errorf("heap round trip = %d, want 7", m.ExitStatus())
	}
}

func TestBrkExhaustionCrashes(t *testing.T) {
	prog := append([]Inst{
		{Op: OpAddis, RD: 3, RA: RegZero, Imm: 0x7f0}, // huge request
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysBrk},
		{Op: OpSc},
	}, exitSeq()...)
	m := run(t, prog)
	if m.State() != StateCrashed {
		t.Fatalf("state = %v, want crashed", m.State())
	}
}

func TestStackOverflow(t *testing.T) {
	// Push SP down in a loop until the guard trips.
	prog := []Inst{
		{Op: OpAddi, RD: RegSP, RA: RegSP, Imm: -32767},
		{Op: OpB, Off26: -4},
	}
	m := run(t, prog)
	if m.State() != StateCrashed {
		t.Fatalf("state = %v, want crashed", m.State())
	}
	if exc, _ := m.Exception(); exc != ExcStackOvf {
		t.Errorf("exception = %v, want stack overflow", exc)
	}
}

func TestIABRTriggersHook(t *testing.T) {
	prog := append([]Inst{
		{Op: OpAddi, RD: 3, RA: RegZero, Imm: 1},
		{Op: OpAddi, RD: 3, RA: 3, Imm: 1},
		{Op: OpAddi, RD: 3, RA: 3, Imm: 1},
	}, exitSeq()...)
	m := New(Config{})
	if err := m.Load(buildImage(prog)); err != nil {
		t.Fatal(err)
	}
	var hits []uint32
	m.SetIABRHook(func(mm *Machine, addr uint32) { hits = append(hits, addr) })
	if err := m.SetIABR(0, TextBase+4); err != nil {
		t.Fatal(err)
	}
	if err := m.SetIABR(1, TextBase+8); err != nil {
		t.Fatal(err)
	}
	if err := m.SetIABR(2, TextBase); err == nil {
		t.Error("SetIABR(2) should fail: only two breakpoint registers")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != TextBase+4 || hits[1] != TextBase+8 {
		t.Errorf("IABR hits = %#v", hits)
	}
}

func TestClearIABR(t *testing.T) {
	prog := append([]Inst{{Op: OpAddi, RD: 3, RA: RegZero, Imm: 1}}, exitSeq()...)
	m := New(Config{})
	if err := m.Load(buildImage(prog)); err != nil {
		t.Fatal(err)
	}
	hits := 0
	m.SetIABRHook(func(mm *Machine, addr uint32) { hits++ })
	if err := m.SetIABR(0, TextBase); err != nil {
		t.Fatal(err)
	}
	m.ClearIABR(0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Errorf("cleared IABR still fired %d times", hits)
	}
}

func TestFetchHookCorruptsTransiently(t *testing.T) {
	// Program computes r3 = 5. The fetch hook rewrites the immediate to 9
	// without touching memory.
	prog := append([]Inst{{Op: OpAddi, RD: 3, RA: RegZero, Imm: 5}}, exitSeq()...)
	m := New(Config{})
	if err := m.Load(buildImage(prog)); err != nil {
		t.Fatal(err)
	}
	m.SetFetchHook(func(addr, word uint32) uint32 {
		if addr == TextBase {
			return Encode(Inst{Op: OpAddi, RD: 3, RA: RegZero, Imm: 9})
		}
		return word
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus() != 9 {
		t.Errorf("exit = %d, want 9 (fetch-bus corruption)", m.ExitStatus())
	}
	// Memory must be unchanged.
	w, err := m.ReadWord(TextBase)
	if err != nil {
		t.Fatal(err)
	}
	if w != Encode(Inst{Op: OpAddi, RD: 3, RA: RegZero, Imm: 5}) {
		t.Error("fetch hook must not modify instruction memory")
	}
}

func TestLoadStoreHooks(t *testing.T) {
	prog := append([]Inst{
		{Op: OpAddi, RD: 4, RA: RegZero, Imm: 10},
		{Op: OpStw, RD: 4, RA: RegSP, Imm: -8},
		{Op: OpLwz, RD: 3, RA: RegSP, Imm: -8},
	}, exitSeq()...)
	m := New(Config{})
	if err := m.Load(buildImage(prog)); err != nil {
		t.Fatal(err)
	}
	m.SetStoreHook(func(addr, v uint32) uint32 { return v + 1 })
	m.SetLoadHook(func(addr, v uint32) uint32 { return v * 2 })
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus() != 22 {
		t.Errorf("exit = %d, want 22 ((10+1)*2)", m.ExitStatus())
	}
}

func TestTrapHookExecutesInjected(t *testing.T) {
	// Original program would compute r3=5; we displace that instruction with
	// a trap and have the handler execute a corrupted version (imm=6).
	orig := Inst{Op: OpAddi, RD: 3, RA: RegZero, Imm: 5}
	prog := append([]Inst{orig}, exitSeq()...)
	m := New(Config{})
	if err := m.Load(buildImage(prog)); err != nil {
		t.Fatal(err)
	}
	m.SetTextWritable(true)
	if err := m.WriteWord(TextBase, Encode(Inst{Op: OpTrap})); err != nil {
		t.Fatal(err)
	}
	m.SetTextWritable(false)
	m.SetTrapHook(func(mm *Machine, addr uint32) error {
		return mm.ExecuteInjected(Encode(Inst{Op: OpAddi, RD: 3, RA: RegZero, Imm: 6}))
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateHalted {
		t.Fatalf("state %v", m.State())
	}
	if m.ExitStatus() != 6 {
		t.Errorf("exit = %d, want 6", m.ExitStatus())
	}
}

func TestWriteWordProtection(t *testing.T) {
	m := New(Config{})
	if err := m.Load(buildImage(exitSeq())); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteWord(TextBase, 0); err == nil {
		t.Error("WriteWord into text without SetTextWritable should fail")
	}
	m.SetTextWritable(true)
	if err := m.WriteWord(TextBase, 0); err != nil {
		t.Errorf("WriteWord with textWritable: %v", err)
	}
	if err := m.WriteWord(uint32(len(m.mem)), 0); err == nil {
		t.Error("WriteWord out of range should fail")
	}
	if err := m.WriteWord(TextBase+2, 0); err == nil {
		t.Error("misaligned WriteWord should fail")
	}
}

func TestLoadRejectsHugeImage(t *testing.T) {
	m := New(Config{MemSize: 1 << 16})
	img := Image{Text: make([]uint32, 1<<14), Entry: TextBase}
	if err := m.Load(img); err == nil {
		t.Error("Load of oversized image should fail")
	}
}

func TestReloadResetsState(t *testing.T) {
	prog := append([]Inst{
		{Op: OpAddi, RD: 3, RA: RegZero, Imm: 1},
		{Op: OpAddi, RD: RegSys, RA: RegZero, Imm: SysWriteInt},
		{Op: OpSc},
		{Op: OpAddi, RD: 3, RA: RegZero, Imm: 0},
	}, exitSeq()...)
	m := New(Config{})
	img := buildImage(prog)
	for i := 0; i < 2; i++ {
		if err := m.Load(img); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got := string(m.Output()); got != "1\n" {
			t.Fatalf("run %d: output %q, want \"1\\n\" (reload must reset output)", i, got)
		}
	}
}

func TestRunTwiceFails(t *testing.T) {
	m := New(Config{})
	if err := m.Load(buildImage(exitSeq())); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "not ready") {
		t.Errorf("second Run should fail with not-ready, got %v", err)
	}
}

func TestMisalignedPC(t *testing.T) {
	m := New(Config{})
	if err := m.Load(buildImage(exitSeq())); err != nil {
		t.Fatal(err)
	}
	m.SetPC(TextBase + 2)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if exc, _ := m.Exception(); exc != ExcAlign {
		t.Errorf("exception = %v, want alignment", exc)
	}
}

func TestBranchOutsideTextCrashes(t *testing.T) {
	m := run(t, []Inst{{Op: OpB, Off26: -2048}})
	if m.State() != StateCrashed {
		t.Fatalf("state = %v, want crashed", m.State())
	}
	if exc, _ := m.Exception(); exc != ExcProt {
		t.Errorf("exception = %v, want protection", exc)
	}
}

func TestTraceRing(t *testing.T) {
	prog := append([]Inst{
		{Op: OpAddi, RD: 3, RA: RegZero, Imm: 1},
		{Op: OpAddi, RD: 3, RA: 3, Imm: 1},
		{Op: OpAddi, RD: 3, RA: 3, Imm: 1},
	}, exitSeq()...)
	m := New(Config{})
	if err := m.Load(buildImage(prog)); err != nil {
		t.Fatal(err)
	}
	m.EnableTrace(3)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr := m.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace has %d entries, want 3 (ring capacity)", len(tr))
	}
	// The last entry must be the sc; entries are oldest-first.
	if tr[2].PC != TextBase+4*4 {
		t.Errorf("last traced PC = %#x, want the sc at %#x", tr[2].PC, TextBase+16)
	}
	if tr[0].PC >= tr[1].PC && tr[1].PC >= tr[2].PC {
		t.Errorf("trace not oldest-first: %+v", tr)
	}
	// Disabled tracing returns nothing and costs nothing.
	m2 := New(Config{})
	if err := m2.Load(buildImage(prog)); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m2.Trace()) != 0 {
		t.Error("trace recorded while disabled")
	}
	m2.EnableTrace(4)
	m2.EnableTrace(0)
	if m2.Trace() != nil {
		t.Error("EnableTrace(0) should disable tracing")
	}
}

func TestTracePartialFill(t *testing.T) {
	m := New(Config{})
	if err := m.Load(buildImage(exitSeq())); err != nil {
		t.Fatal(err)
	}
	m.EnableTrace(64)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr := m.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace has %d entries, want 2", len(tr))
	}
	if tr[0].PC != TextBase {
		t.Errorf("first traced PC = %#x", tr[0].PC)
	}
}
