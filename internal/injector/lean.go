package injector

import (
	"repro/internal/fault"
	"repro/internal/vm"
)

// Lean arming is the campaign executor's fast path. The generic Arm builds
// map-backed dispatch tables and, in hardware mode, hooks the breakpoint
// registers: each execution of a trigger address leaves the block engine
// for one interpreted step, counts the execution and applies the
// corruptions it selects. For the §6 fault shapes — a single-location
// corruption triggered on every execution — even that per-hit cost is
// avoidable. ArmLean recognises those shapes and arms them with zero or
// near-zero steady-state cost:
//
//   - Every-execution fetch corruptions are planted directly into the
//     decoded-instruction cache (vm.PlantDecoded) once, before the run: the
//     corrupted word executes at the address at full speed, memory stays
//     pristine, and an undecodable word raises ExcIllegal at the address,
//     exactly like a corrupted fetch. Planting also invalidates any
//     compiled blocks covering the address, so the block engine
//     re-compiles through the corruption instead of executing a stale
//     trace. No breakpoint hook is installed, so the trigger address is
//     not cut out of its block either.
//   - A single store-data or load-address corruption installs a closure
//     comparing the PC against one address, with no map lookups and no
//     execution counters (Skip=0, Once=false makes shouldApply identically
//     true).
//
// The cost of the shortcut is the activation count: with no breakpoint hook
// nothing intercepts the trigger, so nobody counts how often it applied.
// The executor only ever uses the count as "applied at least once", and
// over the golden record that boolean is already known before the run (the
// injected run's prefix is fault-free, so the trigger address is reached if
// and only if the golden run reached it). ArmLean is therefore only correct
// to use when the caller derives activation from a golden record;
// RunWithFault and the §5 experiments, which report exact counts, must keep
// using Arm.

// ArmLean arms f on m with the campaign-specialised fast paths when the
// fault shape allows it, reporting whether it did. When it returns false the
// machine is untouched and the caller must fall back to Arm. Faults needing
// more breakpoint registers than the hardware has are also left to Arm, so
// the error behaviour of the two paths is identical.
func ArmLean(m *vm.Machine, mode Mode, f *fault.Fault) (bool, error) {
	if mode != ModeHardware || f.Trigger.Kind != fault.TriggerOnLocation ||
		f.Trigger.Skip != 0 || f.Trigger.Once {
		return false, nil
	}
	if err := f.Validate(); err != nil {
		return false, err
	}

	allFetch := true
	for _, c := range f.Corruptions {
		if c.Kind != fault.CorruptFetch {
			allFetch = false
			break
		}
	}
	single := len(f.Corruptions) == 1

	addrs := f.TriggerAddrs()
	if len(addrs) > vm.NumIABR {
		return false, nil // let Arm raise ErrOutOfBreakpoints
	}

	switch {
	case allFetch:
		// Same last-write-wins aggregation per address as Arm's fetchRepl.
		repl := make(map[uint32]uint32, len(f.Corruptions))
		base, end := m.TextRange()
		for _, c := range f.Corruptions {
			if c.Addr%vm.WordSize != 0 || c.Addr < base || c.Addr >= end {
				// Outside text the fetch hook could never fire anyway; fall
				// back before touching the machine.
				return false, nil
			}
			repl[c.Addr] = c.NewWord
		}
		for a, w := range repl {
			if err := m.PlantDecoded(a, w); err != nil {
				return false, err
			}
		}
	case single && f.Corruptions[0].Kind == fault.CorruptStoreData:
		c := f.Corruptions[0]
		a, op, operand := c.Addr, c.Op, c.Operand
		m.SetStoreHook(func(_, value uint32) uint32 {
			if m.PC() != a {
				return value
			}
			return op.Apply(value, operand)
		})
	case single && f.Corruptions[0].Kind == fault.CorruptLoadAddr:
		c := f.Corruptions[0]
		a, off := c.Addr, c.Offset
		m.SetLoadHook(func(addr, value uint32) uint32 {
			if m.PC() != a {
				return value
			}
			shifted := addr + uint32(off)
			size := off
			if size < 0 {
				size = -size
			}
			buf, err := m.ReadMem(shifted, int(size))
			if err != nil {
				// Same as Session.onLoad: a shifted access leaving mapped
				// memory is a machine check on real hardware.
				m.InjectException(vm.ExcProt)
				return value
			}
			var v uint32
			for _, b := range buf {
				v = v<<8 | uint32(b)
			}
			return v
		})
	default:
		return false, nil
	}

	// Arm consumes the breakpoint registers for every hardware-mode fault;
	// keep that visible state identical.
	for i, a := range addrs {
		if err := m.SetIABR(i, a); err != nil {
			return false, err
		}
	}
	return true, nil
}
