package vm_test

import (
	"fmt"
	"testing"

	"repro/internal/programs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// These tests pin the decoded-cache maintenance contract behind Reset and
// Restore: a machine whose text was corrupted — through PlantDecoded or
// injector writes into writable text — must come back bit-identical to a
// fresh machine, and must get there by re-decoding only the touched words.
// A full rebuild (visible through DecodeRebuilds) is permitted only when the
// precise modification list overflows. Campaigns plant one or two words per
// injection across hundreds of thousands of Reset calls, so a redundant
// whole-text rebuild per Reset is exactly the regression these tests exist
// to catch.

// loadTable4 compiles one Table 4 program and one workload input for it.
func loadTable4(t *testing.T) (vm.Image, []int32, []byte) {
	t.Helper()
	p := programs.Table4Programs()[0]
	c, err := p.Compile()
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	cases, err := workload.Generate(p.Kind, 1, 7)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return c.Prog.Image, cases[0].Input.Ints, cases[0].Input.Bytes
}

// runOnce loads img into a fresh machine, runs the given input, and returns
// the finished machine.
func runOnce(t *testing.T, img vm.Image, ints []int32, bts []byte) *vm.Machine {
	t.Helper()
	m := vm.New(vm.Config{})
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	m.SetInput(ints)
	m.SetByteInput(bts)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestResetPreciseRedecode: planting decoded corruptions and writing words
// into writable text, then Resetting, must restore fresh-machine behavior
// without a single full decode rebuild — the modification list is precise.
// The corrupted entry must raise ExcIllegal at its own PC on both engines.
func TestResetPreciseRedecode(t *testing.T) {
	img, ints, bts := loadTable4(t)
	want := snapshot(runOnce(t, img, ints, bts))

	for _, interpOnly := range []bool{false, true} {
		t.Run(fmt.Sprintf("interpOnly=%v", interpOnly), func(t *testing.T) {
			m := vm.New(vm.Config{})
			m.SetInterpOnly(interpOnly)
			if err := m.Load(img); err != nil {
				t.Fatal(err)
			}
			base, end := m.TextRange()
			if (end-base)/4 < 48 {
				t.Fatalf("test program too small: %d text words", (end-base)/4)
			}

			// A clean Reset after a plain run must not rebuild anything.
			m.SetInput(ints)
			m.SetByteInput(bts)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if err := m.Reset(); err != nil {
				t.Fatal(err)
			}
			if n := m.DecodeRebuilds(); n != 0 {
				t.Fatalf("clean Reset caused %d full decode rebuilds, want 0", n)
			}

			// Corrupt a handful of words through both mutation paths, run the
			// corrupted machine (it may crash — irrelevant here), then Reset.
			if err := m.PlantDecoded(base, 0); err != nil { // OpIllegal at the entry
				t.Fatal(err)
			}
			if err := m.PlantDecoded(base+8, 0xffffffff); err != nil {
				t.Fatal(err)
			}
			m.SetTextWritable(true)
			if err := m.WriteWord(base+16, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if exc, at := m.Exception(); exc != vm.ExcIllegal || at != base {
				t.Fatalf("corrupted entry: exception %v at %#x, want ExcIllegal at %#x", exc, at, base)
			}

			if err := m.Reset(); err != nil {
				t.Fatal(err)
			}
			if n := m.DecodeRebuilds(); n != 0 {
				t.Fatalf("Reset after 3 text mods caused %d full rebuilds, want 0 (precise re-decode)", n)
			}
			m.SetInput(ints)
			m.SetByteInput(bts)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if got := snapshot(m); !got.equal(want) {
				t.Fatalf("run after precise re-decode diverges from fresh machine:\nfresh: %+v\nreset: %+v", want, got)
			}
		})
	}
}

// TestResetRebuildOnOverflow: past the precise-list capacity the machine
// must fall back to exactly one full rebuild on Reset — and still come back
// bit-identical to a fresh machine.
func TestResetRebuildOnOverflow(t *testing.T) {
	img, ints, bts := loadTable4(t)
	want := snapshot(runOnce(t, img, ints, bts))

	m := vm.New(vm.Config{})
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	base, end := m.TextRange()
	words := (end - base) / 4
	if words < 48 {
		t.Fatalf("test program too small: %d text words", words)
	}
	for i := uint32(0); i < 40; i++ { // well past the 32-entry precise list
		if err := m.PlantDecoded(base+i*4, 0xffffffff); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if n := m.DecodeRebuilds(); n != 1 {
		t.Fatalf("Reset after 40 text mods caused %d full rebuilds, want exactly 1", n)
	}
	m.SetInput(ints)
	m.SetByteInput(bts)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(m); !got.equal(want) {
		t.Fatalf("run after overflow rebuild diverges from fresh machine:\nfresh: %+v\nreset: %+v", want, got)
	}

	// A subsequent clean Reset must not rebuild again.
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if n := m.DecodeRebuilds(); n != 1 {
		t.Fatalf("clean Reset after the overflow caused more rebuilds: %d, want still 1", n)
	}
}

// TestRestorePreciseRedecode: Restore un-plants decoded corruptions the same
// way Reset does — precisely, without a full rebuild — so fast-forwarded
// injections (snapshot → plant → run → restore) stay cheap.
func TestRestorePreciseRedecode(t *testing.T) {
	img, ints, bts := loadTable4(t)
	want := snapshot(runOnce(t, img, ints, bts))

	m := vm.New(vm.Config{})
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	base, _ := m.TextRange()
	snap := m.Snapshot()
	if snap == nil {
		t.Fatal("nil snapshot of a loaded machine")
	}

	if err := m.PlantDecoded(base, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if exc, at := m.Exception(); exc != vm.ExcIllegal || at != base {
		t.Fatalf("planted entry: exception %v at %#x, want ExcIllegal at %#x", exc, at, base)
	}

	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if n := m.DecodeRebuilds(); n != 0 {
		t.Fatalf("Restore after a plant caused %d full rebuilds, want 0 (precise re-decode)", n)
	}
	m.SetInput(ints)
	m.SetByteInput(bts)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(m); !got.equal(want) {
		t.Fatalf("run after Restore diverges from fresh machine:\nfresh:    %+v\nrestored: %+v", want, got)
	}
}
