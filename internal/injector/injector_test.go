package injector_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/injector"
	"repro/internal/locator"
	"repro/internal/programs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// countProgram sums 0..9 into n and prints it; the baseline output is 45.
const countProgram = `
int main() {
    int i;
    int n = 0;
    for (i = 0; i < 10; i++) {
        n = n + 1;
    }
    print_int(n);
    return 0;
}`

func compile(t *testing.T, src string) *cc.Compiled {
	t.Helper()
	c, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runWith arms f in the given mode and runs the program, returning the
// machine and session.
func runWith(t *testing.T, c *cc.Compiled, mode injector.Mode, f *fault.Fault, input []int32) (*vm.Machine, *injector.Session) {
	t.Helper()
	m := vm.New(vm.Config{MaxCycles: 1 << 20})
	if err := m.Load(c.Prog.Image); err != nil {
		t.Fatal(err)
	}
	m.SetInput(input)
	s, err := injector.Arm(m, mode, f)
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m, s
}

// findAssign returns the AssignInfo for the given LHS on the given line.
func findAssign(t *testing.T, c *cc.Compiled, lhs string, line int) cc.AssignInfo {
	t.Helper()
	for _, a := range c.Debug.Assigns {
		if a.LHS == lhs && a.Line == line {
			return a
		}
	}
	t.Fatalf("no assignment to %s at line %d", lhs, line)
	return cc.AssignInfo{}
}

func TestStoreDataCorruptionPlusOne(t *testing.T) {
	c := compile(t, countProgram)
	a := findAssign(t, c, "n", 6) // n = n + 1 inside the loop
	f, err := locator.AssignmentFault(a, fault.ErrValuePlusOne, fault.Location{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []injector.Mode{injector.ModeHardware, injector.ModeTrap} {
		t.Run(mode.String(), func(t *testing.T) {
			m, s := runWith(t, c, mode, f, nil)
			if m.State() != vm.StateHalted {
				t.Fatalf("state %v", m.State())
			}
			// Each of the 10 stores adds an extra 1: n ends at 20.
			if got := string(m.Output()); got != "20\n" {
				t.Errorf("output %q, want \"20\\n\"", got)
			}
			if s.Activations() != 10 {
				t.Errorf("activations = %d, want 10", s.Activations())
			}
		})
	}
}

func TestNoAssignCorruption(t *testing.T) {
	c := compile(t, countProgram)
	a := findAssign(t, c, "n", 6)
	f, err := locator.AssignmentFault(a, fault.ErrNoAssign, fault.Location{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []injector.Mode{injector.ModeHardware, injector.ModeTrap} {
		t.Run(mode.String(), func(t *testing.T) {
			m, _ := runWith(t, c, mode, f, nil)
			if got := string(m.Output()); got != "0\n" {
				t.Errorf("output %q, want \"0\\n\"", got)
			}
		})
	}
}

func TestRandomValueCorruption(t *testing.T) {
	c := compile(t, countProgram)
	a := findAssign(t, c, "n", 6)
	f, err := locator.AssignmentFault(a, fault.ErrRandomValue, fault.Location{}, 12345)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := runWith(t, c, injector.ModeHardware, f, nil)
	// Every store writes 12345; the loop still terminates (i untouched).
	if got := string(m.Output()); got != "12345\n" {
		t.Errorf("output %q, want \"12345\\n\"", got)
	}
}

func TestOnceTriggerFiresOnce(t *testing.T) {
	c := compile(t, countProgram)
	a := findAssign(t, c, "n", 6)
	f, err := locator.AssignmentFault(a, fault.ErrValuePlusOne, fault.Location{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Trigger.Once = true
	for _, mode := range []injector.Mode{injector.ModeHardware, injector.ModeTrap} {
		t.Run(mode.String(), func(t *testing.T) {
			m, s := runWith(t, c, mode, f, nil)
			if got := string(m.Output()); got != "11\n" {
				t.Errorf("output %q, want \"11\\n\"", got)
			}
			if s.Activations() != 1 {
				t.Errorf("activations = %d, want 1", s.Activations())
			}
		})
	}
}

func TestCheckMutationLtToLe(t *testing.T) {
	c := compile(t, countProgram)
	var ck *cc.CheckInfo
	for i := range c.Debug.Checks {
		if c.Debug.Checks[i].Op == "<" {
			ck = &c.Debug.Checks[i]
		}
	}
	if ck == nil {
		t.Fatal("no < check")
	}
	faults, err := locator.CheckingFaults(c, *ck)
	if err != nil {
		t.Fatal(err)
	}
	byType := map[fault.ErrType]*fault.Fault{}
	for i := range faults {
		byType[faults[i].ErrType] = &faults[i]
	}
	// Applicable types for "<" with no array operands: "< <=", stuck x2.
	if len(faults) != 3 {
		t.Fatalf("applicable error types = %d (%v), want 3", len(faults), faults)
	}

	tests := []struct {
		et   fault.ErrType
		want string
	}{
		{fault.ErrLtLe, "11\n"},     // i <= 10: one extra iteration
		{fault.ErrTrueFalse, "0\n"}, // loop never entered
	}
	for _, tt := range tests {
		f := byType[tt.et]
		if f == nil {
			t.Fatalf("no fault for %s", tt.et)
		}
		for _, mode := range []injector.Mode{injector.ModeHardware, injector.ModeTrap} {
			m, _ := runWith(t, c, mode, f, nil)
			if got := string(m.Output()); got != tt.want {
				t.Errorf("%s/%v: output %q, want %q", tt.et, mode, got, tt.want)
			}
		}
	}
	// stuck-true hangs the loop.
	f := byType[fault.ErrFalseTrue]
	if f == nil {
		t.Fatal("no stuck-true fault")
	}
	m, _ := runWith(t, c, injector.ModeHardware, f, nil)
	if m.State() != vm.StateHung {
		t.Errorf("stuck-true state = %v, want hung", m.State())
	}
}

const arrayCheckProgram = `
int main() {
    int a[5];
    int i;
    int hits = 0;
    for (i = 0; i < 5; i++) a[i] = i * 10;
    for (i = 0; i < 4; i++) {
        if (a[i] == 20) hits = hits + 1;
    }
    print_int(hits);
    return 0;
}`

func TestArrayIndexShiftCorruption(t *testing.T) {
	c := compile(t, arrayCheckProgram)
	var ck *cc.CheckInfo
	for i := range c.Debug.Checks {
		if c.Debug.Checks[i].Op == "==" {
			ck = &c.Debug.Checks[i]
		}
	}
	if ck == nil {
		t.Fatal("no == check")
	}
	if len(ck.ArrayLoads) == 0 {
		t.Fatal("== check has no array loads recorded")
	}
	faults, err := locator.CheckingFaults(c, *ck)
	if err != nil {
		t.Fatal(err)
	}
	byType := map[fault.ErrType]*fault.Fault{}
	for i := range faults {
		byType[faults[i].ErrType] = &faults[i]
	}
	// == over an array: 3 operator mutations + 2 stuck + 2 index = 7.
	if len(faults) != 7 {
		t.Fatalf("applicable error types = %d, want 7", len(faults))
	}
	// [i]->[i+1]: comparison sees a[i+1], so the hit moves from i==2 to
	// i==1; still exactly one hit.
	m, _ := runWith(t, c, injector.ModeHardware, byType[fault.ErrIdxPlus], nil)
	if got := string(m.Output()); got != "1\n" {
		t.Errorf("[i+1] output %q, want \"1\\n\"", got)
	}
	// != mutation: condition flips, 3 of 4 iterations hit.
	m, _ = runWith(t, c, injector.ModeHardware, byType[fault.ErrEqNe], nil)
	if got := string(m.Output()); got != "3\n" {
		t.Errorf("=->!= output %q, want \"3\\n\"", got)
	}
}

func TestBreakpointBudgetExhaustion(t *testing.T) {
	c := compile(t, countProgram)
	// A fault needing three distinct trigger addresses, like the Figure 4
	// stack-shift emulation.
	nop := vm.Encode(vm.Inst{Op: vm.OpNop})
	f := &fault.Fault{
		ID: "three-triggers", Class: fault.ClassAssignment, ErrType: fault.ErrNoAssign,
		Trigger: fault.Trigger{Kind: fault.TriggerOnLocation},
		Corruptions: []fault.Corruption{
			{Kind: fault.CorruptFetch, Addr: vm.TextBase + 0, NewWord: nop},
			{Kind: fault.CorruptFetch, Addr: vm.TextBase + 4, NewWord: nop},
			{Kind: fault.CorruptFetch, Addr: vm.TextBase + 8, NewWord: nop},
		},
	}
	m := vm.New(vm.Config{})
	if err := m.Load(c.Prog.Image); err != nil {
		t.Fatal(err)
	}
	_, err := injector.Arm(m, injector.ModeHardware, f)
	if !errors.Is(err, injector.ErrOutOfBreakpoints) {
		t.Fatalf("Arm = %v, want ErrOutOfBreakpoints", err)
	}
	// Trap mode has no budget: arming must succeed.
	m2 := vm.New(vm.Config{})
	if err := m2.Load(c.Prog.Image); err != nil {
		t.Fatal(err)
	}
	if _, err := injector.Arm(m2, injector.ModeTrap, f); err != nil {
		t.Fatalf("trap-mode Arm: %v", err)
	}
}

func TestTrapModeIsIntrusive(t *testing.T) {
	c := compile(t, countProgram)
	a := findAssign(t, c, "n", 6)
	f, err := locator.AssignmentFault(a, fault.ErrValuePlusOne, fault.Location{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mh := vm.New(vm.Config{})
	if err := mh.Load(c.Prog.Image); err != nil {
		t.Fatal(err)
	}
	if _, err := injector.Arm(mh, injector.ModeHardware, f); err != nil {
		t.Fatal(err)
	}
	wh, _ := mh.ReadWord(a.StoreAddr)

	mt := vm.New(vm.Config{})
	if err := mt.Load(c.Prog.Image); err != nil {
		t.Fatal(err)
	}
	if _, err := injector.Arm(mt, injector.ModeTrap, f); err != nil {
		t.Fatal(err)
	}
	wt, _ := mt.ReadWord(a.StoreAddr)

	orig, _ := c.Prog.ReadTextWord(a.StoreAddr)
	if wh != orig {
		t.Error("hardware mode modified the target program text")
	}
	if wt == orig {
		t.Error("trap mode left the target program text unmodified")
	}
	in, err := vm.Decode(wt)
	if err != nil || in.Op != vm.OpTrap {
		t.Errorf("trap mode planted %v, want trap", in.Op)
	}
}

func TestCorruptTextAtStart(t *testing.T) {
	c := compile(t, countProgram)
	a := findAssign(t, c, "n", 6)
	f := &fault.Fault{
		ID: "start-text", Class: fault.ClassAssignment, ErrType: fault.ErrNoAssign,
		Trigger: fault.Trigger{Kind: fault.TriggerAtStart},
		Corruptions: []fault.Corruption{
			{Kind: fault.CorruptText, Addr: a.StoreAddr, NewWord: vm.Encode(vm.Inst{Op: vm.OpNop})},
		},
	}
	m, s := runWith(t, c, injector.ModeHardware, f, nil)
	if got := string(m.Output()); got != "0\n" {
		t.Errorf("output %q, want \"0\\n\"", got)
	}
	if s.Activations() != 1 {
		t.Errorf("activations = %d, want 1", s.Activations())
	}
}

func TestCorruptTextOnLocation(t *testing.T) {
	c := compile(t, countProgram)
	a := findAssign(t, c, "n", 6)
	f := &fault.Fault{
		ID: "loc-text", Class: fault.ClassAssignment, ErrType: fault.ErrNoAssign,
		Trigger: fault.Trigger{Kind: fault.TriggerOnLocation},
		Corruptions: []fault.Corruption{
			{Kind: fault.CorruptText, Addr: a.StoreAddr, NewWord: vm.Encode(vm.Inst{Op: vm.OpNop})},
		},
	}
	for _, mode := range []injector.Mode{injector.ModeHardware, injector.ModeTrap} {
		t.Run(mode.String(), func(t *testing.T) {
			m, _ := runWith(t, c, mode, f, nil)
			if got := string(m.Output()); got != "0\n" {
				t.Errorf("output %q, want \"0\\n\"", got)
			}
			// The corruption is persistent: memory must now hold the nop.
			w, err := m.ReadWord(a.StoreAddr)
			if err != nil {
				t.Fatal(err)
			}
			if w != vm.Encode(vm.Inst{Op: vm.OpNop}) {
				t.Errorf("text at %#x = %#08x, want planted nop", a.StoreAddr, w)
			}
		})
	}
}

func TestRegisterCorruptionAtStart(t *testing.T) {
	// Corrupting the stack pointer at start crashes almost any program —
	// the hardware-fault flavour the paper says random injections share.
	c := compile(t, countProgram)
	f := &fault.Fault{
		ID: "reg-sp", Class: fault.ClassHardware, ErrType: "reg-xor",
		Trigger: fault.Trigger{Kind: fault.TriggerAtStart},
		Corruptions: []fault.Corruption{
			{Kind: fault.CorruptRegister, Reg: vm.RegSP, Op: fault.ValXor, Operand: 0xffff0001},
		},
	}
	m, _ := runWith(t, c, injector.ModeHardware, f, nil)
	if m.State() != vm.StateCrashed {
		t.Errorf("state = %v, want crashed", m.State())
	}
}

func TestLoadShiftOutOfRangeCrashes(t *testing.T) {
	// Shift a load's effective address far outside memory: the injector
	// must surface a protection exception, not silently continue.
	src := `
int big[4];
int main() {
    int i;
    int sum = 0;
    for (i = 0; i < 4; i++) {
        if (big[i] < 1) sum = sum + 1;
    }
    print_int(sum);
    return 0;
}`
	c := compile(t, src)
	var ck *cc.CheckInfo
	for i := range c.Debug.Checks {
		if len(c.Debug.Checks[i].ArrayLoads) > 0 {
			ck = &c.Debug.Checks[i]
		}
	}
	if ck == nil {
		t.Fatal("no array check")
	}
	f := &fault.Fault{
		ID: "wild-shift", Class: fault.ClassChecking, ErrType: fault.ErrIdxPlus,
		Trigger: fault.Trigger{Kind: fault.TriggerOnLocation},
		Corruptions: []fault.Corruption{
			{Kind: fault.CorruptLoadAddr, Addr: ck.ArrayLoads[0].Addr, Offset: 1 << 30},
		},
	}
	m, _ := runWith(t, c, injector.ModeHardware, f, nil)
	if m.State() != vm.StateCrashed {
		t.Fatalf("state = %v, want crashed", m.State())
	}
	if exc, _ := m.Exception(); exc != vm.ExcProt {
		t.Errorf("exception = %v, want protection", exc)
	}
}

func TestArmRejectsInvalidFault(t *testing.T) {
	c := compile(t, countProgram)
	m := vm.New(vm.Config{})
	if err := m.Load(c.Prog.Image); err != nil {
		t.Fatal(err)
	}
	if _, err := injector.Arm(m, injector.ModeHardware, &fault.Fault{ID: "empty"}); err == nil {
		t.Error("Arm accepted a fault with no corruptions")
	}
	bad := &fault.Fault{
		ID: "bad-start", Trigger: fault.Trigger{Kind: fault.TriggerAtStart},
		Corruptions: []fault.Corruption{{Kind: fault.CorruptFetch, Addr: 4, NewWord: 0}},
	}
	if _, err := injector.Arm(m, injector.ModeHardware, bad); err == nil {
		t.Error("Arm accepted a fetch corruption with an at-start trigger")
	}
}

// TestSkipTrigger verifies the When axis: with Skip=3 the first three
// executions of the corrupted store stay clean, so only 7 of the 10 loop
// iterations get the +1 corruption.
func TestSkipTrigger(t *testing.T) {
	c := compile(t, countProgram)
	a := findAssign(t, c, "n", 6)
	f, err := locator.AssignmentFault(a, fault.ErrValuePlusOne, fault.Location{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Trigger.Skip = 3
	for _, mode := range []injector.Mode{injector.ModeHardware, injector.ModeTrap} {
		t.Run(mode.String(), func(t *testing.T) {
			m, s := runWith(t, c, mode, f, nil)
			if got := string(m.Output()); got != "17\n" {
				t.Errorf("output %q, want \"17\\n\" (10 + 7 corrupted stores)", got)
			}
			if s.Activations() != 7 {
				t.Errorf("activations = %d, want 7", s.Activations())
			}
		})
	}
}

// TestSkipOnceTrigger: Skip+Once corrupts exactly the (Skip+1)-th execution.
func TestSkipOnceTrigger(t *testing.T) {
	c := compile(t, countProgram)
	a := findAssign(t, c, "n", 6)
	f, err := locator.AssignmentFault(a, fault.ErrValuePlusOne, fault.Location{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Trigger.Skip = 5
	f.Trigger.Once = true
	m, s := runWith(t, c, injector.ModeHardware, f, nil)
	if got := string(m.Output()); got != "11\n" {
		t.Errorf("output %q, want \"11\\n\"", got)
	}
	if s.Activations() != 1 {
		t.Errorf("activations = %d, want 1", s.Activations())
	}
}

// TestSkipBeyondExecutions: a skip larger than the execution count leaves
// the run fully clean (a dormant fault).
func TestSkipBeyondExecutions(t *testing.T) {
	c := compile(t, countProgram)
	a := findAssign(t, c, "n", 6)
	f, err := locator.AssignmentFault(a, fault.ErrValuePlusOne, fault.Location{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Trigger.Skip = 100
	m, s := runWith(t, c, injector.ModeHardware, f, nil)
	if got := string(m.Output()); got != "10\n" {
		t.Errorf("output %q, want clean \"10\\n\"", got)
	}
	if s.Activations() != 0 {
		t.Errorf("activations = %d, want 0 (dormant)", s.Activations())
	}
}

// refSession is the hardware-mode arming Arm used before breakpoint hits
// drove every corruption, kept as the oracle for the current one: a fetch
// hook consulted on every cycle, global load and store hooks keyed on the
// PC, and a breakpoint hook for text rewrites and register corruptions. It
// pins the machine to the per-instruction path, which is what made it slow;
// its counting of the When axis (Skip/Once) is the contract the current
// arming must reproduce exactly.
type refSession struct {
	m           *vm.Machine
	f           *fault.Fault
	activations uint64
	fetchRepl   map[uint32]uint32
	textWrites  map[uint32]uint32
	storeOps    map[uint32][]fault.Corruption
	loadShift   map[uint32]int32
	regOps      map[uint32][]fault.Corruption
	seen        map[uint32]uint64
}

// refArm arms a location-triggered fault the reference way (hardware mode).
func refArm(m *vm.Machine, f *fault.Fault) (*refSession, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	s := &refSession{
		m: m, f: f,
		fetchRepl:  make(map[uint32]uint32),
		textWrites: make(map[uint32]uint32),
		storeOps:   make(map[uint32][]fault.Corruption),
		loadShift:  make(map[uint32]int32),
		regOps:     make(map[uint32][]fault.Corruption),
		seen:       make(map[uint32]uint64),
	}
	for _, c := range f.Corruptions {
		switch c.Kind {
		case fault.CorruptText:
			s.textWrites[c.Addr] = c.NewWord
		case fault.CorruptFetch:
			s.fetchRepl[c.Addr] = c.NewWord
		case fault.CorruptStoreData:
			s.storeOps[c.Addr] = append(s.storeOps[c.Addr], c)
		case fault.CorruptLoadAddr:
			s.loadShift[c.Addr] = c.Offset
		case fault.CorruptRegister:
			s.regOps[c.Addr] = append(s.regOps[c.Addr], c)
		}
	}
	addrs := f.TriggerAddrs()
	if len(addrs) > vm.NumIABR {
		return nil, injector.ErrOutOfBreakpoints
	}
	for i, a := range addrs {
		if err := m.SetIABR(i, a); err != nil {
			return nil, err
		}
	}
	if len(s.textWrites) > 0 || len(s.regOps) > 0 {
		m.SetIABRHook(s.onBreakpoint)
	}
	if len(s.fetchRepl) > 0 {
		m.SetFetchHook(s.onFetch)
	}
	if len(s.loadShift) > 0 {
		m.SetLoadHook(s.onLoad)
	}
	if len(s.storeOps) > 0 {
		m.SetStoreHook(s.onStore)
	}
	return s, nil
}

func (s *refSession) shouldApply(addr uint32) bool {
	s.seen[addr]++
	k := s.seen[addr]
	skip := uint64(s.f.Trigger.Skip)
	if k <= skip {
		return false
	}
	return !s.f.Trigger.Once || k == skip+1
}

func (s *refSession) onBreakpoint(m *vm.Machine, addr uint32) {
	_, isWrite := s.textWrites[addr]
	if !isWrite && len(s.regOps[addr]) == 0 {
		return
	}
	if !s.shouldApply(addr) {
		return
	}
	if w, ok := s.textWrites[addr]; ok {
		m.SetTextWritable(true)
		err := m.WriteWord(addr, w)
		m.SetTextWritable(false)
		if err == nil {
			s.activations++
			delete(s.textWrites, addr)
		}
	}
	for _, c := range s.regOps[addr] {
		m.SetReg(c.Reg, c.Op.Apply(m.Reg(c.Reg), c.Operand))
		s.activations++
	}
}

func (s *refSession) onFetch(addr, word uint32) uint32 {
	if w, ok := s.fetchRepl[addr]; ok && s.shouldApply(addr) {
		s.activations++
		return w
	}
	return word
}

func (s *refSession) onLoad(addr, value uint32) uint32 {
	off, ok := s.loadShift[s.m.PC()]
	if !ok || !s.shouldApply(s.m.PC()) {
		return value
	}
	s.activations++
	size := off
	if size < 0 {
		size = -size
	}
	buf, err := s.m.ReadMem(addr+uint32(off), int(size))
	if err != nil {
		s.m.InjectException(vm.ExcProt)
		return value
	}
	var v uint32
	for _, b := range buf {
		v = v<<8 | uint32(b)
	}
	return v
}

func (s *refSession) onStore(_, value uint32) uint32 {
	ops, ok := s.storeOps[s.m.PC()]
	if !ok || !s.shouldApply(s.m.PC()) {
		return value
	}
	for _, c := range ops {
		value = c.Op.Apply(value, c.Operand)
		s.activations++
	}
	return value
}

// armOutcome is everything the oracle test compares between the reference
// and the current arming of one fault on one input.
type armOutcome struct {
	ArmErr      bool
	State       vm.State
	Exit        int32
	Output      string
	Cycles      uint64
	Exc         vm.Exc
	ExcAt       uint32
	PC          uint32
	Regs        [32]uint32
	Activations uint64
}

func runArmed(t *testing.T, img vm.Image, in programs.Input, maxCycles uint64, arm func(m *vm.Machine) (func() uint64, error)) armOutcome {
	t.Helper()
	m := vm.New(vm.Config{MaxCycles: maxCycles})
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	m.SetInput(in.Ints)
	m.SetByteInput(in.Bytes)
	activations, err := arm(m)
	if err != nil {
		if !errors.Is(err, injector.ErrOutOfBreakpoints) {
			t.Fatal(err)
		}
		return armOutcome{ArmErr: true}
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	o := armOutcome{
		State: st, Exit: m.ExitStatus(), Output: string(m.Output()),
		Cycles: m.Cycles(), PC: m.PC(), Activations: activations(),
	}
	o.Exc, o.ExcAt = m.Exception()
	for r := uint8(0); r < 32; r++ {
		o.Regs[r] = m.Reg(r)
	}
	return o
}

// checkArmOracle runs f on img under the reference and the current hardware
// arming and fails on any difference in outcome or activation count.
func checkArmOracle(t *testing.T, name string, img vm.Image, in programs.Input, maxCycles uint64, f *fault.Fault) armOutcome {
	t.Helper()
	ref := runArmed(t, img, in, maxCycles, func(m *vm.Machine) (func() uint64, error) {
		s, err := refArm(m, f)
		if err != nil {
			return nil, err
		}
		return func() uint64 { return s.activations }, nil
	})
	got := runArmed(t, img, in, maxCycles, func(m *vm.Machine) (func() uint64, error) {
		s, err := injector.Arm(m, injector.ModeHardware, f)
		if err != nil {
			return nil, err
		}
		return s.Activations, nil
	})
	if ref != got {
		t.Errorf("%s: breakpoint-driven arming diverges from the reference\nref: %+v\ngot: %+v", name, ref, got)
	}
	return ref
}

// oracleProgram exercises every corruption kind in loops: word and byte
// stores and loads, array indexing, compare-and-branch, calls.
const oracleProgram = `
int sq(int x) { return x * x; }
int main() {
    int a[8];
    int i;
    int s = 0;
    for (i = 0; i < 8; i++) a[i] = sq(i) + 3;
    for (i = 0; i < 8; i++) {
        if (a[i] > 20) s = s + a[i];
        else s = s - 1;
    }
    print_int(s);
    return 0;
}`

// TestArmMatchesReferenceOracle compares the breakpoint-driven hardware
// arming with the reference arming on single corruptions of every
// location-triggered kind, on two kinds at one address, and across the When
// axis (Skip 0, 1 and 2, Once off and on).
func TestArmMatchesReferenceOracle(t *testing.T) {
	c := compile(t, oracleProgram)
	img := c.Prog.Image
	type site struct {
		addr uint32
		in   vm.Inst
	}
	var stores, loads, branches, arith []site
	for i, w := range img.Text {
		in, err := vm.Decode(w)
		if err != nil {
			continue
		}
		s := site{vm.TextBase + uint32(i)*vm.WordSize, in}
		switch in.Op {
		case vm.OpStw, vm.OpStwx, vm.OpStb, vm.OpStbx:
			stores = append(stores, s)
		case vm.OpLwz, vm.OpLwzx, vm.OpLbz, vm.OpLbzx:
			loads = append(loads, s)
		case vm.OpBc:
			branches = append(branches, s)
		case vm.OpAddi, vm.OpAdd, vm.OpMullw, vm.OpCmpw, vm.OpCmpwi:
			arith = append(arith, s)
		}
	}
	if len(stores) == 0 || len(loads) == 0 || len(branches) == 0 || len(arith) == 0 {
		t.Fatalf("oracle program lacks a site kind: %d stores, %d loads, %d branches, %d arith",
			len(stores), len(loads), len(branches), len(arith))
	}
	// mutate changes a branch condition or bumps any other immediate, by a
	// step of 1 or 2 so two mutations of one instruction differ; the result
	// still decodes to the same operation.
	mutate := func(in vm.Inst, step int) uint32 {
		if in.Op == vm.OpBc {
			in.RD = uint8(1 + (int(in.RD)+2*step)%6)
		} else {
			in.Imm += int32(step)
		}
		return vm.Encode(in)
	}
	flip := func(in vm.Inst) uint32 { return mutate(in, 1) }
	shift := func(in vm.Inst) int32 {
		if in.Op == vm.OpLbz || in.Op == vm.OpLbzx {
			return 1
		}
		return vm.WordSize
	}

	type shape struct {
		name string
		cs   []fault.Corruption
	}
	var shapes []shape
	for _, s := range branches {
		shapes = append(shapes,
			shape{fmt.Sprintf("fetch@%#x", s.addr), []fault.Corruption{{Kind: fault.CorruptFetch, Addr: s.addr, NewWord: flip(s.in)}}},
			shape{fmt.Sprintf("text@%#x", s.addr), []fault.Corruption{{Kind: fault.CorruptText, Addr: s.addr, NewWord: flip(s.in)}}},
			shape{fmt.Sprintf("reg+fetch@%#x", s.addr), []fault.Corruption{
				{Kind: fault.CorruptRegister, Addr: s.addr, Reg: 3, Op: fault.ValXor, Operand: 5},
				{Kind: fault.CorruptFetch, Addr: s.addr, NewWord: flip(s.in)},
			}},
			shape{fmt.Sprintf("text+fetch@%#x", s.addr), []fault.Corruption{
				{Kind: fault.CorruptText, Addr: s.addr, NewWord: flip(s.in)},
				{Kind: fault.CorruptFetch, Addr: s.addr, NewWord: mutate(s.in, 2)},
			}},
		)
	}
	for _, s := range stores {
		shapes = append(shapes,
			shape{fmt.Sprintf("store@%#x", s.addr), []fault.Corruption{{Kind: fault.CorruptStoreData, Addr: s.addr, Op: fault.ValPlusOne}}},
			shape{fmt.Sprintf("store+reg@%#x", s.addr), []fault.Corruption{
				{Kind: fault.CorruptStoreData, Addr: s.addr, Op: fault.ValXor, Operand: 0x10},
				{Kind: fault.CorruptRegister, Addr: s.addr, Reg: s.in.RD, Op: fault.ValPlusOne},
			}},
		)
	}
	for _, s := range loads {
		shapes = append(shapes,
			shape{fmt.Sprintf("load@%#x", s.addr), []fault.Corruption{{Kind: fault.CorruptLoadAddr, Addr: s.addr, Offset: shift(s.in)}}},
			shape{fmt.Sprintf("load+fetch@%#x", s.addr), []fault.Corruption{
				{Kind: fault.CorruptLoadAddr, Addr: s.addr, Offset: -shift(s.in)},
				{Kind: fault.CorruptFetch, Addr: s.addr, NewWord: flip(s.in)},
			}},
		)
	}
	for _, s := range arith {
		shapes = append(shapes,
			shape{fmt.Sprintf("reg@%#x", s.addr), []fault.Corruption{{Kind: fault.CorruptRegister, Addr: s.addr, Reg: 3, Op: fault.ValMinusOne}}},
			shape{fmt.Sprintf("fetch@%#x", s.addr), []fault.Corruption{{Kind: fault.CorruptFetch, Addr: s.addr, NewWord: flip(s.in)}}},
			shape{fmt.Sprintf("illegal fetch@%#x", s.addr), []fault.Corruption{{Kind: fault.CorruptFetch, Addr: s.addr, NewWord: 0xffffffff}}},
		)
	}
	// Two trigger addresses: a store corruption and a fetch corruption, each
	// with its own breakpoint register.
	shapes = append(shapes, shape{"store+fetch two sites", []fault.Corruption{
		{Kind: fault.CorruptStoreData, Addr: stores[len(stores)-1].addr, Op: fault.ValPlusOne},
		{Kind: fault.CorruptFetch, Addr: branches[0].addr, NewWord: flip(branches[0].in)},
	}})

	var activated int
	for _, sh := range shapes {
		// An odd Skip on a two-kind address lets the second kind apply
		// one execution before the first; Skip 1 covers that interleaving.
		for _, skip := range []int{0, 1, 2} {
			for _, once := range []bool{false, true} {
				f := &fault.Fault{
					ID:          sh.name,
					Trigger:     fault.Trigger{Kind: fault.TriggerOnLocation, Skip: skip, Once: once},
					Corruptions: sh.cs,
				}
				name := fmt.Sprintf("%s skip=%d once=%v", sh.name, skip, once)
				if o := checkArmOracle(t, name, img, programs.Input{}, 1<<18, f); o.Activations > 0 {
					activated++
				}
			}
		}
	}
	if activated < len(shapes)*2 {
		t.Fatalf("only %d of %d armed runs activated; the site selection is broken", activated, len(shapes)*6)
	}
}

// TestArmMatchesReferenceSection5 runs the paper's three §5 emulations
// (C.team1 checking, C.team4 assignment, JB.team6 stack shift) under the
// reference and the breakpoint-driven arming on generated inputs. JB.team6
// needs more trigger addresses than there are breakpoint registers, so both
// must refuse it; its first two trigger addresses are also run alone.
func TestArmMatchesReferenceSection5(t *testing.T) {
	for _, name := range []string{"C.team1", "C.team4", "JB.team6"} {
		p, ok := programs.ByName(name)
		if !ok {
			t.Fatalf("no program %s", name)
		}
		em, err := campaign.BuildEmulation(p)
		if err != nil {
			t.Fatal(err)
		}
		correct, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		cases, err := workload.Generate(p.Kind, 6, 2000)
		if err != nil {
			t.Fatal(err)
		}
		faults := []*fault.Fault{em.Fault}
		if addrs := em.Fault.TriggerAddrs(); len(addrs) > vm.NumIABR {
			g := *em.Fault
			g.Corruptions = nil
			for _, c := range em.Fault.Corruptions {
				if c.Addr == addrs[0] || c.Addr == addrs[1] {
					g.Corruptions = append(g.Corruptions, c)
				}
			}
			faults = append(faults, &g)
		}
		for fi, f := range faults {
			for skip := 0; skip <= 2; skip += 2 {
				g := *f
				g.Trigger.Skip = skip
				g.Trigger.Once = skip > 0
				for i := range cases {
					o := checkArmOracle(t, fmt.Sprintf("%s fault %d skip %d case %d", name, fi, skip, i),
						correct.Prog.Image, cases[i].Input, vm.DefaultMaxCycles, &g)
					if fi == 0 && len(faults) > 1 && !o.ArmErr {
						t.Errorf("%s: armed in hardware mode despite needing %d trigger addresses", name, len(f.TriggerAddrs()))
					}
				}
			}
		}
	}
}
