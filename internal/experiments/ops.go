package experiments

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/faults"
	"repro/internal/hsm"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
	"repro/internal/tsm"
)

// E22 — the operator drill. A wave-based archive campaign runs under
// wall-clock pacing with the obs server attached; mid-run one tape
// drive degrades to a crawl (a dragging head, not a hard failure, so
// nothing declares it dead). A scripted operator goroutine — a stand-in
// for a human with a Grafana dashboard — scrapes /metrics over real
// HTTP, notices the drive's effective rate collapse, and answers
// through the control surface: drain the drive, quarantine the volume
// it was writing, tighten the scrub cadence. The drill asserts the
// rescue worked: wave throughput recovers to >= 80% of the pre-fault
// baseline, and the final live scrape is byte-identical to the post-hoc
// registry snapshot.

// An OpsWave is one archive wave (pfcp + tape migration) of the drill.
type OpsWave struct {
	Index       int     `json:"index"`
	Phase       string  `json:"phase"` // warmup|baseline|contaminated|settling|recovery
	Files       int     `json:"files"`
	MigratedMB  float64 `json:"migrated_mb"`
	CopySecs    float64 `json:"copy_secs"`
	MigrateSecs float64 `json:"migrate_secs"`
	RateMBs     float64 `json:"rate_mbs"`
}

// An OpsAction is one operator move, stamped with the virtual time of the
// scrape that triggered it.
type OpsAction struct {
	VirtualSecs float64 `json:"virtual_secs"`
	Action      string  `json:"action"`
	Target      string  `json:"target,omitempty"`
	Detail      string  `json:"detail,omitempty"`
}

// OpsReport is the ops report's Detail: what the drill's flat metrics
// cannot carry — the wave ledger, the operator's runbook actions, and
// the scrubber's pass reports.
type OpsReport struct {
	SlowDrive     string            `json:"slow_drive"`
	Waves         []OpsWave         `json:"waves"`
	Actions       []OpsAction       `json:"actions"`
	ScrubInterval string            `json:"scrub_interval"`
	ScrubPasses   []tsm.ScrubReport `json:"scrub_passes"`

	// FinalScrape is the settled /metrics body, written verbatim behind
	// -ops-scrape so CI archives a real live scrape, not a re-render.
	FinalScrape string `json:"-"`
}

// opsParams scales the drill. The test runs a shrunken copy.
type opsParams struct {
	Drives        int
	Cartridges    int
	WaveFiles     int
	FileBytes     int64
	FaultWave     int     // wave at whose start the degrade lands
	DegradeTo     float64 // fraction of nominal rate retained
	RecoveryWaves int     // waves to run after the drain before stopping
	MaxWaves      int     // hard cap (operator failed if reached)
	Pace          float64 // virtual seconds per real second
	ScrapeEvery   time.Duration
	MinXfer       float64 // virtual transfer-seconds a rate estimate must span
	RateFraction  float64 // below this fraction of nominal => degraded
	ScrubStart    time.Duration
	ScrubTighten  time.Duration
	Addr          string
}

func defaultOpsParams() opsParams {
	return opsParams{
		Drives:        8,
		Cartridges:    128,
		WaveFiles:     16,
		FileBytes:     500e6,
		FaultWave:     5,
		DegradeTo:     0.05,
		RecoveryWaves: 6,
		MaxWaves:      28,
		Pace:          240,
		ScrapeEvery:   20 * time.Millisecond,
		MinXfer:       25,
		RateFraction:  0.25,
		ScrubStart:    6 * time.Hour,
		ScrubTighten:  30 * time.Minute,
		Addr:          "127.0.0.1:0",
	}
}

// opsDriveSample is one scrape's view of one drive's cumulative work.
type opsDriveSample struct {
	bytes float64 // written + read
	xfer  float64 // transfer seconds
}

// opsOperator is the scripted runbook: scrape, watch per-drive
// effective rates, act once when a drive drops below threshold. It
// runs on a real goroutine and only ever talks to the simulation
// through HTTP — the same interface a human operator would have.
type opsOperator struct {
	url    string
	p      opsParams
	client *http.Client

	hist    map[string][]opsDriveSample
	nominal map[string]float64
	mounted map[string]string // drive -> volume currently loaded
	prev    *obs.Exposition

	acted   bool
	actions []OpsAction
	scrapes int
	errs    []string
}

func newOpsOperator(url string, p opsParams) *opsOperator {
	return &opsOperator{
		url:     url,
		p:       p,
		client:  &http.Client{Timeout: 30 * time.Second},
		hist:    make(map[string][]opsDriveSample),
		nominal: make(map[string]float64),
		mounted: make(map[string]string),
	}
}

func (o *opsOperator) get(path string) (string, error) {
	resp, err := o.client.Get(o.url + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, b)
	}
	return string(b), nil
}

func (o *opsOperator) post(path string) error {
	resp, err := o.client.Post(o.url+path, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, b)
	}
	return nil
}

// run scrapes until stop closes. Every scrape is validated and checked
// monotone against the previous one — the drill doubles as a live
// soak of the exposition contract.
func (o *opsOperator) run(stop <-chan struct{}) {
	tick := time.NewTicker(o.p.ScrapeEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		o.scrapeOnce()
	}
}

func (o *opsOperator) scrapeOnce() {
	text, err := o.get("/metrics")
	if err != nil {
		o.errs = append(o.errs, err.Error())
		return
	}
	exp, err := obs.ValidateExposition(strings.NewReader(text))
	if err != nil {
		o.errs = append(o.errs, fmt.Sprintf("scrape %d invalid: %v", o.scrapes, err))
		return
	}
	o.scrapes++
	if o.prev != nil {
		if err := obs.CheckMonotone(o.prev, exp); err != nil {
			o.errs = append(o.errs, err.Error())
		}
	}
	o.prev = exp

	virt, _ := exp.Value(telemetry.VirtualSecondsFamily)
	written := make(map[string]float64)
	read := make(map[string]float64)
	xfer := make(map[string]float64)
	for _, s := range exp.Samples {
		d := s.Labels["drive"]
		switch s.Name {
		case "tape_drive_bytes_written_total":
			written[d] = s.Value
		case "tape_drive_bytes_read_total":
			read[d] = s.Value
		case "tape_drive_transfer_seconds_total":
			xfer[d] = s.Value
		case "tape_drive_nominal_bytes_per_second":
			o.nominal[d] = s.Value
		case "tape_drive_mounted_info":
			if s.Value == 1 {
				o.mounted[d] = s.Labels["volume"]
			}
		}
	}
	for d, x := range xfer {
		o.hist[d] = append(o.hist[d], opsDriveSample{bytes: written[d] + read[d], xfer: x})
		if len(o.hist[d]) > 1024 {
			o.hist[d] = o.hist[d][len(o.hist[d])-512:]
		}
	}
	if o.acted {
		return
	}
	if drive, rate := o.detect(); drive != "" {
		o.acted = true
		o.respond(virt, drive, rate)
	}
}

// detect looks for a drive whose effective rate — bytes moved per
// transfer-second over the most recent window spanning at least
// MinXfer transfer-seconds — fell below RateFraction of its advertised
// nominal rate. Using transfer time (not wall time) as the denominator
// makes idle drives invisible and a crawling one unmistakable.
func (o *opsOperator) detect() (string, float64) {
	for d, ss := range o.hist {
		nom := o.nominal[d]
		if nom <= 0 || len(ss) < 2 {
			continue
		}
		cur := ss[len(ss)-1]
		for i := len(ss) - 2; i >= 0; i-- {
			dx := cur.xfer - ss[i].xfer
			if dx < o.p.MinXfer {
				continue
			}
			if rate := (cur.bytes - ss[i].bytes) / dx; rate < o.p.RateFraction*nom {
				return d, rate
			}
			break // nearest qualifying window only
		}
	}
	return "", 0
}

// respond is the runbook: drain the dragging drive, quarantine the
// media it was writing (a crawling head may have written marginal
// tracks), and tighten the scrub cadence so the next integrity sweep
// covers the pool sooner.
func (o *opsOperator) respond(virt float64, drive string, rate float64) {
	vol := o.mounted[drive]
	o.act(virt, "drain-drive", drive,
		fmt.Sprintf("effective %.1f MB/s vs nominal %.0f MB/s", stats.MB(rate), stats.MB(o.nominal[drive])),
		"/ops/drain-drive?drive="+drive)
	if vol != "" {
		o.act(virt, "quarantine-volume", vol, "suspect media last loaded in "+drive,
			"/ops/quarantine-volume?volume="+vol)
	}
	o.act(virt, "scrub-interval", o.p.ScrubTighten.String(), "post-incident sweep sooner",
		"/ops/scrub-interval?interval="+o.p.ScrubTighten.String())
}

func (o *opsOperator) act(virt float64, action, target, detail, path string) {
	if err := o.post(path); err != nil {
		o.errs = append(o.errs, fmt.Sprintf("%s: %v", action, err))
		return
	}
	o.actions = append(o.actions, OpsAction{VirtualSecs: virt, Action: action, Target: target, Detail: detail})
}

// archiveWave archives one wave: write WaveFiles uniform files on scratch,
// pfcp them to the archive FS, migrate the tree to tape, and report
// the wave's tape rate from the registry counter.
func archiveWave(sys *archive.System, ctrMig *telemetry.Counter, w int, seed int64, p opsParams, tun pftool.Tunables) OpsWave {
	clock := sys.Clock
	src := fmt.Sprintf("/drop/w%03d", w)
	dst := fmt.Sprintf("/arc/w%03d", w)
	if err := sys.Scratch.MkdirAll(src); err != nil {
		panic(fmt.Sprintf("ops wave %d: %v", w, err))
	}
	specs := make([]pfs.FileSpec, p.WaveFiles)
	for i := range specs {
		cseed := uint64(seed)<<20 ^ uint64(w)<<10 ^ uint64(i)
		specs[i] = pfs.FileSpec{
			Path:    fmt.Sprintf("%s/f%04d", src, i),
			Content: synthetic.NewUniform(cseed, p.FileBytes),
		}
	}
	if err := sys.Scratch.WriteFiles(specs); err != nil {
		panic(fmt.Sprintf("ops wave %d: %v", w, err))
	}
	t0 := clock.Now()
	if res, err := sys.Pfcp(src, dst, tun); err != nil {
		panic(fmt.Sprintf("ops wave %d pfcp: %v (errors %v)", w, err, res.Errors))
	}
	copySecs := (clock.Now() - t0).Seconds()
	_ = sys.Scratch.RemoveAll(src)

	mig0 := ctrMig.Value()
	t1 := clock.Now()
	mr, err := sys.MigrateTree(dst, hsm.MigrateOptions{Balanced: true})
	if err != nil {
		panic(fmt.Sprintf("ops wave %d migrate: %v", w, err))
	}
	migSecs := (clock.Now() - t1).Seconds()
	mb := stats.MB(ctrMig.Value() - mig0)
	return OpsWave{
		Index: w, Files: mr.Files, MigratedMB: mb,
		CopySecs: copySecs, MigrateSecs: migSecs, RateMBs: mb / migSecs,
	}
}

// opsDrill runs E22 at full scale.
func opsDrill(seed int64) Report { return opsDrillWith(seed, defaultOpsParams()) }

func opsDrillWith(seed int64, p opsParams) Report {
	wall0 := time.Now()
	var (
		tel      *telemetry.Registry
		scrubber *tsm.Scrubber
		srv      *obs.Server
		op       *opsOperator
		slow     string

		waves     []OpsWave
		drainWave = -1
		migSecs   float64
		audit     archive.AuditResult
	)
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()
	stop := make(chan struct{})
	opDone := make(chan struct{})
	run := runClock(func(clock *simtime.Clock) func() {
		clock.SetPace(p.Pace)
		tel = telemetry.Of(clock)
		sys := newSystem(clock, func(opts *archive.Options) {
			opts.TapeDrives = p.Drives
			opts.Cartridges = p.Cartridges
			// One mover stream per drive minus one: oversubscribed drives cause
			// volume-swap churn that drowns the fault signal, and the spare
			// drive is what the drained stream fails over to — the capacity the
			// operator's runbook spends.
			opts.Cluster.Nodes = p.Drives - 1
		})
		reg := faults.New(clock)
		sys.InstallFaults(reg)
		scrubber = sys.Scrubber(tsm.ScrubConfig{Client: "ops-scrub", Interval: p.ScrubStart})

		srv = obs.New(clock, obs.Actions{Faults: reg, TSM: sys.TSM, Scrub: scrubber})
		url, err := srv.Start(p.Addr)
		if err != nil {
			panic(fmt.Sprintf("ops: serve: %v", err))
		}
		op = newOpsOperator(url, p)
		go func() { defer close(opDone); op.run(stop) }()

		slow = sys.Library.Drive(0).Name
		comp := faults.DriveComponent(slow)
		return func() {
			tun := pftool.DefaultTunables()
			ctrMig := tel.Counter("hsm_migrated_bytes_total")
			for w := 0; ; w++ {
				if w == p.FaultWave {
					reg.Apply(faults.Event{Component: comp, Kind: faults.KindDegrade, Param: p.DegradeTo})
				}
				wv := archiveWave(sys, ctrMig, w, seed, p, tun)
				if drainWave < 0 && reg.Down(comp) {
					drainWave = w
				}
				migSecs += wv.MigrateSecs
				waves = append(waves, wv)
				if drainWave >= 0 && w-drainWave >= p.RecoveryWaves {
					break
				}
				if w+1 >= p.MaxWaves {
					break
				}
			}
			// Post-incident integrity sweep at the operator's tightened
			// cadence, then the exactly-once audit.
			scrubber.ScrubOnce()
			var aerr error
			audit, aerr = sys.Audit()
			if aerr != nil {
				panic(fmt.Sprintf("ops audit: %v", aerr))
			}
		}
	})
	srv.Settle()
	close(stop)
	<-opDone

	// The final live scrape, still over HTTP against the settled server.
	final, err := op.get("/metrics")
	if err != nil {
		panic(fmt.Sprintf("ops: final scrape: %v", err))
	}
	exp, vErr := obs.ValidateExposition(strings.NewReader(final))
	var snap *telemetry.Snapshot
	srv.Gate().Do(func() { snap = tel.Snapshot() })
	matches := final == snap.Text()

	// Phase labels: wave 0 pays the library's cold mounts, the drain
	// wave's successor absorbs requeues and any volume swap; neither
	// belongs in a throughput baseline.
	for i := range waves {
		w := &waves[i]
		switch {
		case w.Index == 0:
			w.Phase = "warmup"
		case w.Index < p.FaultWave:
			w.Phase = "baseline"
		case drainWave < 0 || w.Index <= drainWave:
			w.Phase = "contaminated"
		case w.Index == drainWave+1:
			w.Phase = "settling"
		default:
			w.Phase = "recovery"
		}
	}
	mean := func(phase string) float64 {
		var sum float64
		var n int
		for _, w := range waves {
			if w.Phase == phase {
				sum += w.RateMBs
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	baseline := mean("baseline")
	recovery := mean("recovery")
	contamMin := math.Inf(1)
	for _, w := range waves {
		if w.Phase == "contaminated" && w.RateMBs < contamMin {
			contamMin = w.RateMBs
		}
	}

	failf := run.failf
	if drainWave < 0 {
		failf("ops: operator never drained %s (%d scrapes, %d waves, errs %v)",
			slow, op.scrapes, len(waves), op.errs)
	}
	if len(op.errs) > 0 {
		failf("ops: operator hit %d scrape/action errors, first: %s", len(op.errs), op.errs[0])
	}
	wantActions := map[string]bool{"drain-drive": false, "quarantine-volume": false, "scrub-interval": false}
	for _, a := range op.actions {
		wantActions[a.Action] = true
	}
	for a, seen := range wantActions {
		if !seen {
			failf("ops: runbook step %q never ran (actions %+v)", a, op.actions)
		}
	}
	if op.actions[0].Target != slow {
		failf("ops: operator drained %s, but %s is the dragging drive", op.actions[0].Target, slow)
	}
	if scrubber.Interval() != p.ScrubTighten {
		failf("ops: scrub interval %v, operator set %v", scrubber.Interval(), p.ScrubTighten)
	}
	if baseline == 0 || recovery == 0 {
		failf("ops: empty phase (baseline %.1f, recovery %.1f, %d waves)", baseline, recovery, len(waves))
	}
	ratio := recovery / baseline
	if ratio < 0.8 {
		failf("ops: recovery %.1f MB/s is %.0f%% of baseline %.1f MB/s, want >= 80%%",
			recovery, 100*ratio, baseline)
	}
	if contamMin > 0.6*baseline {
		failf("ops: fault barely dented throughput (min contaminated %.1f vs baseline %.1f MB/s)",
			contamMin, baseline)
	}
	if vErr != nil {
		failf("ops: final scrape fails validation: %v", vErr)
	}
	if !matches {
		failf("ops: settled scrape (%d bytes) differs from Snapshot().Text() (%d bytes)",
			len(final), len(snap.Text()))
	}
	headline := stats.MB(snap.Total("hsm_migrated_bytes_total")) / migSecs
	scrapeMig, ok := exp.Value("hsm_migrated_bytes_total")
	scrapeHeadline := stats.MB(scrapeMig) / migSecs
	if !ok || math.Abs(headline-scrapeHeadline) > 0.001*headline {
		failf("ops: headline MB/s from scrape %.3f vs snapshot %.3f (ok=%v)", scrapeHeadline, headline, ok)
	}
	if !audit.Clean() {
		failf("ops: post-drill audit not clean: %+v", audit)
	}
	passes := scrubber.Reports()
	if n := len(passes); n == 0 || passes[n-1].Unrepairable > 0 {
		failf("ops: post-incident scrub pass unhappy: %+v", passes)
	}

	t := stats.NewTable("metric", "value")
	t.Row("waves", len(waves))
	t.Row("fault wave (drive degrade)", p.FaultWave)
	t.Row("drain wave (operator acts)", drainWave)
	t.Row("baseline MB/s", fmt.Sprintf("%.0f", baseline))
	t.Row("worst contaminated MB/s", fmt.Sprintf("%.0f", contamMin))
	t.Row("recovery MB/s", fmt.Sprintf("%.0f", recovery))
	t.Row("recovery / baseline", fmt.Sprintf("%.2f", ratio))
	t.Row("operator scrapes", op.scrapes)
	t.Row("operator actions", len(op.actions))
	t.Row("scrape == snapshot", matches)
	t.Row("audit clean", audit.Clean())

	r := Report{
		Name: "ops",
		Title: "Operator drill: live scrape detects a dragging drive; " +
			"drain + quarantine rescue the campaign",
		Body: t.String(),
		Notes: []string{
			fmt.Sprintf("a scripted operator scraping /metrics every %v real drained %s after its effective rate collapsed", p.ScrapeEvery, slow),
			"recovery >= 80% of the pre-fault baseline, so the drain measurably rescued the campaign",
			"the settled /metrics scrape is byte-identical to the post-hoc registry snapshot",
		},
	}
	r.metric("pace", p.Pace)
	r.metric("drives", float64(p.Drives))
	r.metric("waves", float64(len(waves)))
	r.metric("fault_wave", float64(p.FaultWave))
	r.metric("drain_wave", float64(drainWave))
	r.metric("baseline_mbs", baseline)
	r.metric("contaminated_min_mbs", contamMin)
	r.metric("recovery_mbs", recovery)
	r.metric("recovery_ratio", ratio)
	r.metric("headline_mbs", headline)
	r.metric("scrape_headline_mbs", scrapeHeadline)
	r.metric("operator_scrapes", float64(op.scrapes))
	r.metric("operator_actions", float64(len(op.actions)))
	r.metric("scrub_passes", float64(len(passes)))
	r.metric("scrape_matches", b2f(matches))
	r.metric("audit_clean", b2f(audit.Clean()))
	r.metric("wall_secs", time.Since(wall0).Seconds())
	r.Telemetry = snap
	r.Flight = run.flight
	r.Detail = &OpsReport{
		SlowDrive: slow, Waves: waves, Actions: op.actions,
		ScrubInterval: scrubber.Interval().String(), ScrubPasses: passes,
		FinalScrape: final,
	}
	return r
}
