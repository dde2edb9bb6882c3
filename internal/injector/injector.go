// Package injector is the Xception-equivalent SWIFI engine: it arms fault
// triggers on a virtual machine and applies the corruptions of a fault
// definition while a target program runs, without modifying the target
// application source.
//
// Two trigger mechanisms are provided, mirroring the trade-off discussed in
// §5 of the paper:
//
//   - ModeHardware uses the processor's instruction-address breakpoint
//     registers. It is non-intrusive but the PowerPC 601 has only two, so a
//     fault needing more than two distinct trigger addresses (the Figure 4
//     stack-shift emulation) cannot be armed: Arm returns
//     ErrOutOfBreakpoints, reproducing the limitation the paper reports.
//     As on Xception, the target runs at full speed and only the trigger
//     instruction traps: every location corruption is driven from the
//     breakpoint hit. A fetch corruption plants the corrupted word into the
//     decoded cache for the executions it applies to (vm.PlantDecoded), and
//     a store or load corruption installs a bus hook that removes itself on
//     its first call. No hook is consulted on the other instructions, so the
//     VM keeps them on its block engine.
//   - ModeTrap plants trap instructions over the trigger locations — "the
//     traditional SWIFI approach of inserting trap instructions ... but this
//     technique is very intrusive". It has no budget limit; the displaced
//     instructions are emulated by the trap handler.
package injector

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/vm"
)

// Mode selects the trigger mechanism.
type Mode int

// Trigger modes.
const (
	ModeHardware Mode = iota + 1 // IABR-backed, max vm.NumIABR distinct addresses
	ModeTrap                     // trap-instruction insertion, unlimited, intrusive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeHardware:
		return "hardware breakpoints"
	case ModeTrap:
		return "trap insertion"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ErrOutOfBreakpoints is returned by Arm when a fault needs more distinct
// hardware trigger addresses than the processor has breakpoint registers.
var ErrOutOfBreakpoints = errors.New("injector: fault needs more trigger addresses than available breakpoint registers")

// Session is one armed fault on one machine. Create a fresh machine and
// session per injection run (the campaigns "reboot between injections").
type Session struct {
	m    *vm.Machine
	mode Mode
	f    *fault.Fault

	activations uint64

	// Location-triggered corruption tables, keyed by instruction address.
	fetchRepl  map[uint32]uint32
	textWrites map[uint32]uint32
	storeOps   map[uint32][]fault.Corruption
	loadShift  map[uint32]int32
	regOps     map[uint32][]fault.Corruption

	// Hardware mode: what a breakpoint hit applies, per trigger address, and
	// the self-removing bus hooks a hit installs. The hooks are built once
	// per Arm so a hot trigger does not allocate per hit.
	sites     []*bpSite
	loadOnce  vm.LoadHook
	storeOnce vm.StoreHook

	// Trap mode: displaced original words.
	origWords map[uint32]uint32
	// seen counts executions of each trigger address, implementing the
	// When axis (Trigger.Skip / Trigger.Once).
	seen map[uint32]uint64
}

// bpSite is everything a hardware-mode breakpoint hit at one trigger address
// applies. fetch is the corrupted word of a fetch corruption (hasFetch) and
// planted records whether the decoded cache currently holds it; hasLoad and
// hasStore select the bus hooks the hit installs.
type bpSite struct {
	addr     uint32
	regOps   []fault.Corruption
	fetch    uint32
	hasFetch bool
	planted  bool
	hasLoad  bool
	hasStore bool
}

// Arm validates the fault and installs its triggers on m. The machine must
// already have the target program loaded.
func Arm(m *vm.Machine, mode Mode, f *fault.Fault) (*Session, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		m: m, mode: mode, f: f,
		fetchRepl:  make(map[uint32]uint32),
		textWrites: make(map[uint32]uint32),
		storeOps:   make(map[uint32][]fault.Corruption),
		loadShift:  make(map[uint32]int32),
		regOps:     make(map[uint32][]fault.Corruption),
		origWords:  make(map[uint32]uint32),
		seen:       make(map[uint32]uint64),
	}

	if f.Trigger.Kind == fault.TriggerAtStart {
		// Apply permanent corruptions immediately; only CorruptText and
		// CorruptRegister make sense before execution begins.
		for _, c := range f.Corruptions {
			switch c.Kind {
			case fault.CorruptText:
				if err := s.writeText(c.Addr, c.NewWord); err != nil {
					return nil, err
				}
				s.activations++
			case fault.CorruptRegister:
				m.SetReg(c.Reg, c.Op.Apply(m.Reg(c.Reg), c.Operand))
				s.activations++
			default:
				return nil, fmt.Errorf("injector: corruption kind %v cannot fire at start", c.Kind)
			}
		}
		return s, nil
	}

	// Location-triggered: build dispatch tables.
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
	switch mode {
	case ModeHardware:
		if len(addrs) > vm.NumIABR {
			return nil, fmt.Errorf("%w: need %d, have %d", ErrOutOfBreakpoints, len(addrs), vm.NumIABR)
		}
		for i, a := range addrs {
			if err := m.SetIABR(i, a); err != nil {
				return nil, err
			}
			site := &bpSite{addr: a, regOps: s.regOps[a]}
			site.fetch, site.hasFetch = s.fetchRepl[a]
			_, site.hasLoad = s.loadShift[a]
			_, site.hasStore = s.storeOps[a]
			s.sites = append(s.sites, site)
		}
		// The breakpoint fires right before the instruction executes, so a
		// bus hook's first call is either that instruction's own access or,
		// if it makes none, a later instruction's, which the PC check in
		// onLoad/onStore passes through untouched. Either way the hook is
		// spent.
		if len(s.loadShift) > 0 {
			s.loadOnce = func(addr, value uint32) uint32 {
				m.SetLoadHook(nil)
				return s.onLoad(addr, value)
			}
		}
		if len(s.storeOps) > 0 {
			s.storeOnce = func(addr, value uint32) uint32 {
				m.SetStoreHook(nil)
				return s.onStore(addr, value)
			}
		}
		m.SetIABRHook(s.onBreakpoint)
	case ModeTrap:
		for _, a := range addrs {
			w, err := m.ReadWord(a)
			if err != nil {
				return nil, fmt.Errorf("injector: trigger address %#x: %w", a, err)
			}
			s.origWords[a] = w
			if err := s.writeText(a, vm.Encode(vm.Inst{Op: vm.OpTrap})); err != nil {
				return nil, err
			}
		}
		m.SetTrapHook(s.onTrap)
		// The displaced instructions run inside onTrap, so the bus hooks
		// are global and key on the PC (still the trap address).
		if len(s.loadShift) > 0 {
			m.SetLoadHook(s.onLoad)
		}
		if len(s.storeOps) > 0 {
			m.SetStoreHook(s.onStore)
		}
	default:
		return nil, fmt.Errorf("injector: unknown mode %d", mode)
	}
	return s, nil
}

// Activations reports how many times the fault's corruptions were applied —
// whether the faulty code was exercised at all, which the paper uses to
// separate dormant faults from activated ones.
func (s *Session) Activations() uint64 { return s.activations }

// Fault returns the armed fault definition.
func (s *Session) Fault() *fault.Fault { return s.f }

// Mode returns the session's trigger mechanism.
func (s *Session) Mode() Mode { return s.mode }

func (s *Session) writeText(addr, word uint32) error {
	s.m.SetTextWritable(true)
	defer s.m.SetTextWritable(false)
	return s.m.WriteWord(addr, word)
}

// shouldApply advances the execution counter of the trigger address and
// reports whether the corruption applies this time, honouring the When
// parameters: the first Skip executions stay clean, and with Once set only
// the (Skip+1)-th execution is corrupted.
func (s *Session) shouldApply(addr uint32) bool {
	s.seen[addr]++
	k := s.seen[addr]
	skip := uint64(s.f.Trigger.Skip)
	if k <= skip {
		return false
	}
	if s.f.Trigger.Once && k != skip+1 {
		return false
	}
	return true
}

// onBreakpoint handles IABR hits (hardware mode), before the instruction
// executes. The execution counter advances once per corruption group, in the
// order the groups act on the instruction: text rewrite and registers, then
// the fetched word, then (from the bus hook) the data access. An address
// carrying two groups therefore counts twice per execution, which keeps the
// Skip/Once semantics of the When axis identical for every fault shape.
func (s *Session) onBreakpoint(m *vm.Machine, addr uint32) {
	var site *bpSite
	for _, st := range s.sites {
		if st.addr == addr {
			site = st
			break
		}
	}
	if site == nil {
		return
	}
	if _, isWrite := s.textWrites[addr]; (isWrite || len(site.regOps) > 0) && s.shouldApply(addr) {
		if w, ok := s.textWrites[addr]; ok {
			if err := s.writeText(addr, w); err == nil {
				s.activations++
				delete(s.textWrites, addr) // memory now holds the corruption
				site.planted = false       // and WriteWord re-decoded the entry
			}
		}
		for _, c := range site.regOps {
			m.SetReg(c.Reg, c.Op.Apply(m.Reg(c.Reg), c.Operand))
			s.activations++
		}
	}
	if site.hasFetch {
		// The corrupted word is planted for the executions the corruption
		// applies to and the memory word for the others; either plant stays
		// until the next decision flips it. The errors are dropped because
		// they only report an address outside text, and a breakpoint only
		// fires on a text address.
		if s.shouldApply(addr) {
			s.activations++
			if !site.planted {
				_ = m.PlantDecoded(addr, site.fetch)
				site.planted = true
			}
		} else if site.planted {
			w, _ := m.ReadWord(addr)
			_ = m.PlantDecoded(addr, w)
			site.planted = false
		}
	}
	if site.hasLoad {
		m.SetLoadHook(s.loadOnce)
	}
	if site.hasStore {
		m.SetStoreHook(s.storeOnce)
	}
}

// onLoad shifts the effective address of corrupted loads. The corruption is
// keyed by the PC of the load instruction; the magnitude of the shift equals
// the element size, so it also selects how many bytes to re-read.
func (s *Session) onLoad(addr, value uint32) uint32 {
	off, ok := s.loadShift[s.m.PC()]
	if !ok || !s.shouldApply(s.m.PC()) {
		return value
	}
	s.activations++
	shifted := addr + uint32(off)
	size := off
	if size < 0 {
		size = -size
	}
	buf, err := s.m.ReadMem(shifted, int(size))
	if err != nil {
		// The shifted access leaves mapped memory: on real hardware this is
		// a machine check / DSI exception.
		s.m.InjectException(vm.ExcProt)
		return value
	}
	var v uint32
	for _, b := range buf {
		v = v<<8 | uint32(b)
	}
	return v
}

// onStore transforms values written by corrupted store instructions.
func (s *Session) onStore(addr, value uint32) uint32 {
	ops, ok := s.storeOps[s.m.PC()]
	if !ok || !s.shouldApply(s.m.PC()) {
		return value
	}
	_ = addr
	for _, c := range ops {
		value = c.Op.Apply(value, c.Operand)
		s.activations++
	}
	return value
}

// onTrap handles trap-mode triggers: it applies corruptions and emulates the
// displaced instruction.
func (s *Session) onTrap(m *vm.Machine, addr uint32) error {
	orig, ok := s.origWords[addr]
	if !ok {
		return fmt.Errorf("injector: stray trap at %#x", addr)
	}
	word := orig
	hasTrigger := false
	if _, ok := s.textWrites[addr]; ok {
		hasTrigger = true
	}
	if _, ok := s.fetchRepl[addr]; ok {
		hasTrigger = true
	}
	if len(s.regOps[addr]) > 0 {
		hasTrigger = true
	}
	if hasTrigger && s.shouldApply(addr) {
		if w, ok := s.textWrites[addr]; ok {
			// Permanent rewrite: replace the trap with the corrupted word
			// and let it execute from memory ever after.
			if err := s.writeText(addr, w); err != nil {
				return err
			}
			s.activations++
			delete(s.origWords, addr)
			return m.ExecuteInjected(w)
		}
		if w, ok := s.fetchRepl[addr]; ok {
			s.activations++
			word = w
		}
		for _, c := range s.regOps[addr] {
			m.SetReg(c.Reg, c.Op.Apply(m.Reg(c.Reg), c.Operand))
			s.activations++
		}
	}
	// Load/store corruptions apply inside ExecuteInjected via the hooks,
	// which key on the PC (still the trap address here).
	return m.ExecuteInjected(word)
}
