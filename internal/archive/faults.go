package archive

import (
	"strings"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// InstallFaults subscribes the deployment to a fault registry: every
// event the registry applies — immediately or from an armed schedule —
// is dispatched to the owning subsystem by component-name prefix.
//
//	drive:<name>   tape drive dies / is replaced
//	volume:<label> cartridge goes bad (read-only media) / is repaired
//	node:<name>    mover machine crashes / reboots
//	tsm            the TSM server goes down / comes back
//	link:<name>    any fabric link by name (trunk, per-node NICs and
//	               HBAs, pool arrays) degrades or is restored, handled
//	               by the fabric's own fault hook
//
// Unknown components are ignored, so one schedule can drive several
// deployments that each own a subset of the components. Recovery
// is NOT wired here — each subsystem reacts through its own mechanisms
// (TSM reaps dead drives at its next transaction, PFTool's WatchDog
// declares ranks dead, the machine list filters down nodes); the
// registry only flips the failure state.
func (s *System) InstallFaults(reg *faults.Registry) {
	tel := RecordFaults(s.Clock, reg)
	reg.OnApply(func(ev faults.Event) {
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
					// restores). Previously this case fell through to
					// SetDown(false), silently repairing the drive.
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
		case ev.Component == faults.TSMComponent:
			if ev.Kind == faults.KindCorrupt {
				return
			}
			s.TSM.SetDown(ev.Kind == faults.KindFail)
		}
	})
}

// RecordFaults subscribes the prologue every fault dispatcher on the
// clock starts with, and returns the clock's registry. It records each
// event in telemetry and counts it in faults_events_total, then binds
// the fabric's links. Recording comes FIRST, before any dispatch
// subscriber (including the fabric's) flips subsystem state: any span
// aborted in reaction to the fault — and any armed silent corruption —
// then finds the event already on the books to cite as its cause.
func RecordFaults(clock *simtime.Clock, reg *faults.Registry) *telemetry.Registry {
	tel := telemetry.Of(clock)
	reg.OnApply(func(ev faults.Event) {
		tel.Event("fault",
			"component", ev.Component,
			"kind", ev.Kind.String())
		tel.Counter("faults_events_total", "kind", ev.Kind.String()).Inc()
	})
	fabric.Of(clock).BindFaults(reg)
	return tel
}

// DriveNames lists the library's drive names, for building fault
// profiles against this deployment.
func (s *System) DriveNames() []string {
	drives := s.Library.Drives()
	names := make([]string, len(drives))
	for i, d := range drives {
		names[i] = d.Name
	}
	return names
}

// NodeNames lists the cluster's machine names, for building fault
// profiles against this deployment.
func (s *System) NodeNames() []string {
	nodes := s.Cluster.Nodes()
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	return names
}
