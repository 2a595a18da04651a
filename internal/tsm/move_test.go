package tsm

import (
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/simtime"
	"repro/internal/tape"
	"repro/internal/telemetry"
)

// moveKind is one way moveData carries an object's bytes.
type moveKind struct {
	name    string
	stream  bool // a persistent stream from NewStream
	routed  bool // a fabric route from the client's HBA
	lanFree bool // false splices the server NIC in
}

var moveKinds = []moveKind{
	{name: "stream", stream: true, routed: true, lanFree: true},
	{name: "routed", routed: true, lanFree: true},
	{name: "routed via server", routed: true},
	{name: "server NIC", lanFree: false},
}

// What a moveTime run times.
const (
	moveTape     = iota // the drive operation alone
	moveTransfer        // the transfer alone
	moveBoth            // moveData: both from one instant
)

// moveTime measures, on a fresh one-drive server whose links carry rate
// bytes/s, the virtual time one 1 GB object's move takes: an append, or
// when read the read of an object stored before. failDrive arms a drive
// fault first. For moveBoth it also injects a silent corruption fault
// on the transfer's first link and reports whether moveData returned
// the transfer tainted by that fault.
func moveTime(t *testing.T, k moveKind, read bool, rate float64, failDrive bool, what int) (took simtime.Duration, tainted bool, err error) {
	t.Helper()
	const n = 1e9
	cfg := DefaultConfig()
	cfg.LANFree, cfg.ServerRate = k.lanFree, rate
	e := newEnv(1, cfg)
	e.run(t, func() {
		fab := fabric.Of(e.clock)
		hba := fab.AddLink("fta01-hba", rate, "fta01", "san")
		var route fabric.Path
		if k.routed {
			var rerr error
			if route, rerr = fab.Route("fta01", "", "san"); rerr != nil {
				t.Fatal(rerr)
			}
		}
		obj, serr := e.srv.Store(StoreRequest{Client: "fta01", Path: "/f", Bytes: n})
		if serr != nil {
			t.Fatal(serr)
		}
		d, _, derr := e.srv.acquireDriveForWrite("fta01", "", n)
		if derr != nil {
			t.Fatal(derr)
		}
		defer e.srv.releaseDrive(d)
		io := tapeIO{drive: d, write: true, id: 2, bytes: n}
		if read {
			io = tapeIO{drive: d, bytes: n, seq: obj.Seq}
		}
		if failDrive {
			d.FailNextOps(1)
		}
		var stream *fabric.Flow
		if k.stream {
			stream = e.srv.NewStream(route)
		}
		// The path the transfer crosses: the route, then the server NIC
		// unless LAN-free.
		p := route
		if !k.lanFree {
			p = p.With(e.srv.netLink)
		}
		start := e.clock.Now()
		switch what {
		case moveTape:
			err = io.run()
		case moveTransfer:
			if stream != nil {
				stream.Send(n)
			} else {
				p.Transfer(n)
			}
		case moveBoth:
			link := e.srv.netLink
			if k.routed {
				link = hba
			}
			comp := faults.LinkComponent(link.Name())
			reg := faults.New(e.clock)
			fab.BindFaults(reg)
			fault := telemetry.Of(e.clock).Event("fault", "component", comp)
			reg.Apply(faults.Event{Component: comp, Kind: faults.KindCorrupt})
			var cause uint64
			_, cause, tainted, err = e.srv.moveData(route, stream, io)
			tainted = tainted && cause == fault
		}
		took = e.clock.Now() - start
	})
	return took, tainted, err
}

// TestMoveDataCompletesAtTheSlowerSide holds moveData to its model on
// every transfer kind, for stores and recalls, tape-bound and
// fabric-bound: the drive and the transfer start at one instant, the
// move completes when the slower finishes, and the transfer's taint
// reaches the caller. A drive fault surfaces only once the bytes in
// flight have drained.
func TestMoveDataCompletesAtTheSlowerSide(t *testing.T) {
	bounds := []struct {
		name string
		rate float64 // bytes/s on every link
	}{
		{"tape-bound", 1e9},    // 1 s of transfer against ~8 s on LTO-4
		{"fabric-bound", 20e6}, // 50 s of transfer
	}
	for _, k := range moveKinds {
		for _, read := range []bool{false, true} {
			for _, b := range bounds {
				name := k.name + " store " + b.name
				if read {
					name = k.name + " recall " + b.name
				}
				t.Run(name, func(t *testing.T) {
					tapeT, _, err := moveTime(t, k, read, b.rate, false, moveTape)
					if err != nil {
						t.Fatal(err)
					}
					xferT, _, _ := moveTime(t, k, read, b.rate, false, moveTransfer)
					if (b.name == "tape-bound") != (tapeT > xferT) {
						t.Fatalf("tape %v, transfer %v: not %s", tapeT, xferT, b.name)
					}
					both, tainted, err := moveTime(t, k, read, b.rate, false, moveBoth)
					if err != nil {
						t.Fatal(err)
					}
					if want := max(tapeT, xferT); both != want {
						t.Errorf("moveData took %v, want max(tape %v, transfer %v) = %v", both, tapeT, xferT, want)
					}
					if !tainted {
						t.Error("moveData did not report the transfer tainted by the link's corruption fault")
					}
					if b.name != "fabric-bound" {
						return
					}
					failT, _, err := moveTime(t, k, read, b.rate, true, moveTape)
					if !errors.Is(err, tape.ErrIO) || failT >= xferT {
						t.Fatalf("faulting drive alone: %v after %v, want ErrIO before the transfer's %v", err, failT, xferT)
					}
					failBoth, _, err := moveTime(t, k, read, b.rate, true, moveBoth)
					if !errors.Is(err, tape.ErrIO) {
						t.Errorf("moveData with a faulting drive: err = %v, want ErrIO", err)
					}
					if failBoth != xferT {
						t.Errorf("moveData with a faulting drive returned after %v, want the transfer's %v", failBoth, xferT)
					}
				})
			}
		}
	}
}

// storeEvents is the clock events one Store on a warm LAN-free stream
// dispatches: the server transaction that admits it, the fabric's
// completion timer, the end of the drive's write, and the commit
// transaction.
const storeEvents = 4

// TestStoreEventsOnWarmStream guards the event cost of one Store whose
// drive is mounted and whose stream is open: the drive operation runs
// on the storing actor, so no actor is spawned and no latch woken for it.
func TestStoreEventsOnWarmStream(t *testing.T) {
	e := newEnv(1, DefaultConfig())
	e.run(t, func() {
		req := storeOnStream(e)
		if _, err := e.srv.Store(req); err != nil {
			t.Fatal(err)
		}
		before := e.clock.EventsProcessed()
		if _, err := e.srv.Store(req); err != nil {
			t.Fatal(err)
		}
		if got := e.clock.EventsProcessed() - before; got != storeEvents {
			t.Errorf("Store dispatched %d clock events, want %d", got, storeEvents)
		}
	})
}
