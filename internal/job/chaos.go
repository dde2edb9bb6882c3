package job

import (
	"io"
	"net"
	"os"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// The chaos adapters turn a chaos configuration into the hooks each layer
// accepts. Each returns nil when its plane injects nothing, so a clean run
// keeps the unwrapped connection, file and pipe paths.

// ConnWrap builds the fabric connection wrapper for cfg, registering the
// injector's counters on reg (nil reg: injection without metrics).
func ConnWrap(cfg *chaos.Config, reg *telemetry.Registry) func(net.Conn) net.Conn {
	if !cfg.Enabled() {
		return nil
	}
	return chaos.New(*cfg, chaos.NewMetrics(reg)).Wrap
}

// StorageChaos builds the storage/IPC-plane injector for cfg: its disk
// keys fault journal and sidecar handles (JournalWrap), its pipe keys fault
// worker pipes (PipeWrap), and disk poison corrupts golden checkpoints
// (PoisonHook). It is a separate instance from the connection wrapper's,
// which is harmless: each plane's handle ordinals are counted
// independently, so the schedules are identical either way.
func StorageChaos(cfg *chaos.Config, reg *telemetry.Registry) *chaos.Chaos {
	if !cfg.DiskEnabled() && !cfg.PipeEnabled() && (cfg == nil || cfg.DiskPoison <= 0) {
		return nil
	}
	return chaos.New(*cfg, chaos.NewMetrics(reg))
}

// JournalWrap adapts a storage-chaos injector into the journal package's
// File substitution hook.
func JournalWrap(c *chaos.Chaos) journal.Wrap {
	if cc := c.Config(); !cc.DiskEnabled() {
		return nil
	}
	return func(f *os.File) journal.File { return c.WrapFile(f) }
}

// PipeWrap adapts a storage-chaos injector into the worker supervisor's
// pipe interposition hook (ProcOptions.WrapPipes).
func PipeWrap(c *chaos.Chaos) func(io.WriteCloser, io.Reader) (io.WriteCloser, io.Reader) {
	if cc := c.Config(); !cc.PipeEnabled() {
		return nil
	}
	return c.WrapPipes
}

// PoisonHook adapts a storage-chaos injector into the golden store's
// checkpoint poison hook.
func PoisonHook(c *chaos.Chaos) func() bool {
	if cc := c.Config(); cc.DiskPoison <= 0 {
		return nil
	}
	return c.PoisonCheckpoint
}
