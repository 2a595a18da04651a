package fabric

import (
	"strings"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// BindFaults subscribes the fabric to a fault registry: every
// "link:<name>" event is applied to the named link by one hook, so
// schedules drive degradation and repair by link name.
//
//	KindDegrade  capacity scales to Param x nominal
//	KindFail     capacity drops to a 1% crawl — a fully dead link would
//	             wedge in-flight flows forever; a crawl lets traffic drain
//	KindRepair   capacity restores to nominal
//	KindCorrupt  arms Param (>= 1) silent in-flight corruptions: the next
//	             flows to start across the link are tainted at full speed
//
// Corruptions are tagged with the provoking fault's telemetry event ID
// (the registry records the fault event before dispatchers run), so a
// later checksum-mismatch span can cite its cause. Events naming links
// this fabric does not own are ignored, so one schedule can drive
// several deployments.
func (f *Fabric) BindFaults(reg *faults.Registry) {
	reg.OnApply(func(ev faults.Event) {
		if !strings.HasPrefix(ev.Component, "link:") {
			return
		}
		l := f.Link(strings.TrimPrefix(ev.Component, "link:"))
		if l == nil {
			return
		}
		switch ev.Kind {
		case faults.KindDegrade:
			l.scale(ev.Param)
		case faults.KindFail:
			l.scale(0.01)
		case faults.KindRepair:
			l.scale(1)
		case faults.KindCorrupt:
			cause, _ := telemetry.Of(f.clock).LastEventFor(ev.Component)
			n := int(ev.Param)
			if n < 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				l.armCorrupt(cause)
			}
		}
	})
}
