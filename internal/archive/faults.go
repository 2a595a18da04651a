package archive

import (
	"strings"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// InstallFaults subscribes a plant alone on its clock to a fault
// registry; see the package-level InstallFaults.
func (s *System) InstallFaults(reg *faults.Registry) { InstallFaults(reg, s) }

// InstallFaults subscribes the plants sharing one clock to a fault
// registry. Every event the registry applies — immediately or from an
// armed schedule — is recorded once in telemetry and counted in
// faults_events_total, the fabric's links are bound, and then each
// plant's dispatcher hands the event to the owning subsystem by
// component-name prefix:
//
//	drive:<name>   tape drive dies / is replaced
//	volume:<label> cartridge goes bad (read-only media) / is repaired
//	node:<name>    mover machine crashes / reboots
//	tsm:<site>     the plant's TSM server goes down / comes back
//	               (plain "tsm" for a plant alone on its clock)
//	link:<name>    any fabric link by name (trunk, per-node NICs and
//	               HBAs, pool arrays) degrades or is restored, handled
//	               by the fabric's own fault hook
//
// A site-named plant's drives, cartridges, machines, links and server
// carry its site (Options.Site), so each event reaches one
// plant's part; components a plant does not own are ignored by it.
// Recording comes FIRST, before any dispatcher (including the
// fabric's) flips subsystem state: any span aborted in reaction to the
// fault — and any armed silent corruption — then finds the event
// already on the books to cite as its cause. Recovery is NOT wired
// here — each subsystem reacts through its own mechanisms (TSM reaps
// dead drives at its next transaction, PFTool's WatchDog declares ranks
// dead, the machine list filters down nodes); the registry only flips
// the failure state.
func InstallFaults(reg *faults.Registry, plants ...*System) {
	clock := plants[0].Clock
	tel := telemetry.Of(clock)
	reg.OnApply(func(ev faults.Event) {
		tel.Event("fault",
			"component", ev.Component,
			"kind", ev.Kind.String())
		tel.Counter("faults_events_total", "kind", ev.Kind.String()).Inc()
	})
	fabric.Of(clock).BindFaults(reg)
	for _, s := range plants {
		reg.OnApply(func(ev faults.Event) { s.dispatch(tel, ev) })
	}
}

// dispatch applies one event to the plant's part it names, if any.
func (s *System) dispatch(tel *telemetry.Registry, ev faults.Event) {
	cause := func() uint64 {
		id, _ := tel.LastEventFor(ev.Component)
		return id
	}
	switch {
	case strings.HasPrefix(ev.Component, "drive:"):
		name := strings.TrimPrefix(ev.Component, "drive:")
		for _, d := range s.Library.Drives() {
			if d.Name != name {
				continue
			}
			if ev.Kind == faults.KindCorrupt {
				// A flaky head: the next Param (>= 1) read/write ops
				// silently flip bits. The drive stays in service.
				n := int(ev.Param)
				if n < 1 {
					n = 1
				}
				d.CorruptNextOps(n, cause())
				continue
			}
			if ev.Kind == faults.KindDegrade {
				// A crawling head: the drive stays in service but
				// streams at Param x rated speed (Param >= 1
				// restores).
				d.SetDegraded(ev.Param)
				continue
			}
			d.SetDown(ev.Kind == faults.KindFail)
		}
	case strings.HasPrefix(ev.Component, "volume:"):
		label := strings.TrimPrefix(ev.Component, "volume:")
		if c, err := s.Library.Cartridge(label); err == nil {
			if ev.Kind == faults.KindCorrupt {
				// Bit rot at rest: Param in [0,1) picks the damage
				// offset as a fraction of the written region. The
				// cartridge mounts and reads normally — only a
				// checksum can tell.
				c.CorruptAtOffset(int64(ev.Param*float64(c.Used())), cause())
				return
			}
			c.SetReadOnly(ev.Kind == faults.KindFail)
		}
	case strings.HasPrefix(ev.Component, "node:"):
		if ev.Kind == faults.KindCorrupt {
			return
		}
		name := strings.TrimPrefix(ev.Component, "node:")
		for _, n := range s.Cluster.Nodes() {
			if n.Name == name {
				n.SetDown(ev.Kind == faults.KindFail)
			}
		}
	case ev.Component == s.TSM.Component():
		if ev.Kind == faults.KindCorrupt {
			return
		}
		s.TSM.SetDown(ev.Kind == faults.KindFail)
	}
}
