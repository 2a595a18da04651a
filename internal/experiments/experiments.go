// Package experiments regenerates every table and figure of the
// paper's evaluation (§5–§6) plus the design-point studies DESIGN.md
// calls out. Each experiment builds a fresh deployment on its own
// virtual clock, drives it, and returns a Report with the same rows or
// series the paper presents. cmd/archsim prints the reports and writes
// them as JSON behind -report.
package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Report is one regenerated table or figure, and its own
// machine-readable record: cmd/archsim -report marshals the reports of
// a run as they are (envelope archsim-report/v1, DESIGN.md "Machine-readable reports").
type Report struct {
	Name    string             `json:"name"`  // experiment id, e.g. "fig10"
	Title   string             `json:"title"` // what the paper calls it
	Body    string             `json:"body"`  // rendered rows/series
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Notes   []string           `json:"notes,omitempty"`

	// Detail is the experiment's structured record beyond flat metrics —
	// scrub passes, cohort series, per-island balance — marshalled as
	// is. A new experiment sets it without touching Report or archsim.
	Detail any `json:"detail,omitempty"`

	// Telemetry and Flight carry the run's registry snapshot and
	// flight-recorder dump for experiments that attach them. They are
	// not rendered by String() or -report; cmd/archsim exposes them
	// behind the -metrics-text and -flight-record flags.
	Telemetry *telemetry.Snapshot   `json:"-"`
	Flight    *telemetry.FlightDump `json:"-"`
}

// ErrUnknownExperiment reports an experiment name Run does not know.
// cmd/archsim matches it with errors.Is to print the available names.
var ErrUnknownExperiment = errors.New("unknown experiment")

// String renders the report for terminal output.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.Name, r.Title)
	b.WriteString(r.Body)
	if len(r.Notes) > 0 {
		b.WriteString("notes:\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "  - %s\n", n)
		}
	}
	return b.String()
}

func (r *Report) metric(k string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[k] = v
}

// experiment is one row of the registry: a runnable name, whether the
// "all" group includes it, and how to run it at a seed.
type experiment struct {
	name  string
	inAll bool
	run   func(seed int64) []Report
}

func one(f func(int64) Report) func(int64) []Report {
	return func(seed int64) []Report { return []Report{f(seed)} }
}

func fullCampaign(seed int64) []Report { return campaign(CampaignParams{Seed: seed}) }

// table is the single ordered registry behind Names, Run and All; its
// order is the presentation order. The last three rows stay out of
// "all" because their results depend on the host, not just the seed:
// E24 "parallel" and "scale" measure wall-clock, and E22 "ops" runs
// under wall-clock pacing with a live HTTP operator.
var table = []experiment{
	{"campaign", true, fullCampaign},
	{"fig8", false, fullCampaign},
	{"fig9", false, fullCampaign},
	{"fig10", false, fullCampaign},
	{"fig11", false, fullCampaign},
	{"parallel-vs-serial", true, one(parallelVsSerial)},
	{"smallfile", true, one(smallFileTape)},
	{"recall", true, one(recallOrdering)},
	{"largefile", true, one(largeFileSweep)},
	{"verylarge", true, one(veryLargeNtoN)},
	{"restart", true, one(restartableTransfer)},
	{"delete", true, one(syncDeleteVsReconcile)},
	{"migrate", true, one(migratorBalance)},
	{"scan", true, one(inodeScan)},
	{"kiviat", true, one(scalingGap)},
	{"ablation-colocation", true, one(ablationCoLocation)},
	{"ablation-chunksize", true, one(ablationChunkSize)},
	{"ablation-batching", true, one(ablationBatching)},
	{"ablation-lanfree", true, one(ablationLANFree)},
	{"reclaim", true, one(reclamation)},
	{"fabric", true, one(fabricBottleneck)},
	{"chaos", true, one(chaosStudy)},
	{"obs", true, one(observabilitySelfCheck)},
	{"integrity", true, one(integrityStudy)},
	{"dr", true, one(drStudy)},
	{"tenants", true, one(tenantStudy)},
	{"storm", true, one(stormStudy)},
	{"parallel", false, one(parallelStudy)},
	{"scale", false, one(scaleStudy)},
	{"ops", false, one(opsDrill)},
}

// all runs every seed-determined experiment at full scale and returns
// the reports in presentation order.
func all(seed int64) []Report {
	var out []Report
	for _, e := range table {
		if e.inAll {
			out = append(out, e.run(seed)...)
		}
	}
	return out
}

// Names lists the runnable experiment names.
func Names() []string {
	names := make([]string, 0, len(table)+1)
	for _, e := range table {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// Run executes one experiment (or the whole campaign group) by name.
func Run(name string, seed int64) ([]Report, error) {
	if name == "all" {
		return all(seed), nil
	}
	for _, e := range table {
		if e.name == name {
			return e.run(seed), nil
		}
	}
	return nil, fmt.Errorf("%w %q (have %s)", ErrUnknownExperiment, name, strings.Join(Names(), ", "))
}

// summaryRows renders a figure summary in the harness's standard shape.
func summaryRows(t *stats.Table, s *stats.Summary, unit string) {
	t.Row("min", s.Min(), unit)
	t.Row("median", s.Median(), unit)
	t.Row("mean", s.Mean(), unit)
	t.Row("max", s.Max(), unit)
}
