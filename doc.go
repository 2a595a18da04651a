// Package repro is a from-scratch reproduction of "Integration
// Experiences and Performance Studies of A COTS Parallel Archive
// System" (Chen et al., LANL, IEEE Cluster 2010): PFTool and the rest
// of the paper's glue implemented for real, with every COTS substrate
// (GPFS, Panasas, TSM, LTO-4 tape, the FTA cluster fabric) rebuilt as a
// calibrated discrete-event simulator.
//
// See README.md for the tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results. cmd/archsim regenerates every table and figure of the
// paper's evaluation at full scale; internal/experiments' tests run
// them at reduced scale, and bench/ is the performance ledger.
package repro
