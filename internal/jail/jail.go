// Package jail reproduces §4.2.3, "Controlling User Commands": the
// archive is exported to users through a chroot environment with a
// restricted command set, because a stock UNIX toolbox over an HSM is
// dangerous — "a simple example of this would be grep looking for a
// pattern across a set of files", which recalls tapes in random order
// and mounts/dismounts the same cartridge over and over.
//
// The jail offers the safe commands the paper kept (ls, cat-like reads
// through ordered recall, rm routed into the trashcan) and demonstrates
// the hazard by also implementing the unsafe grep two ways: the naive
// UNIX behaviour (per-file random-order recall) and the tape-aware
// variant the site encourages (locate everything first, recall in tape
// order, then search).
package jail

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/hsm"
	"repro/internal/pfs"
	"repro/internal/synthetic"
	"repro/internal/trash"
)

// errForbidden is returned for a command the policy does not allow.
var errForbidden = errors.New("jail: command not permitted")

// Policy lists the commands a jailed user may run.
type Policy struct {
	AllowGrep bool // the dangerous one; off by default
}

// Jail is the restricted environment over one archive file system.
type Jail struct {
	fs     *pfs.FS
	engine *hsm.Engine
	can    *trash.Can
	policy Policy
	stats  stats
}

// stats counts jailed activity.
type stats struct {
	Commands    int
	Denied      int
	Recalls     int
	FilesRead   int
	FilesMoved  int // to trash
	GrepMatches int
}

// New builds a jail over the archive.
func New(fs *pfs.FS, engine *hsm.Engine, can *trash.Can, policy Policy) *Jail {
	return &Jail{fs: fs, engine: engine, can: can, policy: policy}
}

// Ls lists a directory (always safe: metadata only).
func (j *Jail) Ls(path string) ([]pfs.Info, error) {
	j.stats.Commands++
	return j.fs.ReadDir(path)
}

// Read returns a file's content, transparently recalling it from tape
// first if migrated — the DMAPI read-event path, but routed through the
// tape-ordered recall engine.
func (j *Jail) Read(path string) (synthetic.Content, error) {
	j.stats.Commands++
	content, rerr := j.fs.ReadContent(path)
	if errors.Is(rerr, pfs.ErrOffline) {
		j.stats.Recalls++
		if _, err := j.engine.Recall([]string{path}, hsm.RecallOrdered); err != nil {
			return synthetic.Content{}, err
		}
		content, rerr = j.fs.ReadContent(path)
	}
	if rerr != nil {
		return synthetic.Content{}, rerr
	}
	j.stats.FilesRead++
	return content, nil
}

// Rm routes a delete into the user's trashcan — never a raw unlink, so
// the synchronous deleter can reap the tape copy later (§4.2.6).
func (j *Jail) Rm(user, path string) (string, error) {
	j.stats.Commands++
	tp, err := j.can.Delete(user, path)
	if err != nil {
		return "", err
	}
	j.stats.FilesMoved++
	return tp, nil
}

// grepResult reports one search run.
type grepResult struct {
	FilesSearched int
	FilesRecalled int
	Matches       int
}

// grepMode selects the §4.2.3 hazard or the site-recommended variant.
type grepMode int

// Grep modes.
const (
	// GrepNaive reads files in directory order, recalling each on
	// demand — the "grep from &*&(*&" the chroot jail exists to stop.
	GrepNaive grepMode = iota
	// grepTapeAware locates all migrated files first, recalls them in
	// tape order via the engine, then searches.
	grepTapeAware
)

// Grep searches all files under dir for a byte pattern. It is denied
// unless the jail policy allows it.
func (j *Jail) Grep(dir string, pattern []byte, mode grepMode) (grepResult, error) {
	j.stats.Commands++
	if !j.policy.AllowGrep {
		j.stats.Denied++
		return grepResult{}, fmt.Errorf("%w: grep", errForbidden)
	}
	var files []pfs.Info
	err := j.fs.Walk(dir, func(i pfs.Info) error {
		if !i.IsDir() {
			files = append(files, i)
		}
		return nil
	})
	if err != nil {
		return grepResult{}, err
	}
	res := grepResult{}
	switch mode {
	case grepTapeAware:
		// Recall everything offline in one ordered pass first.
		var offline []string
		for _, f := range files {
			if f.State == pfs.Migrated {
				offline = append(offline, f.Path)
			}
		}
		if len(offline) > 0 {
			if _, err := j.engine.Recall(offline, hsm.RecallOrdered); err != nil {
				return res, err
			}
			res.FilesRecalled = len(offline)
			j.stats.Recalls += len(offline)
		}
	default:
		// Shuffle-ish: stock grep visits in readdir order, which has
		// no relation to tape order; emulate the worst case by sorting
		// on the name's reverse, decorrelating path and tape position.
		sort.Slice(files, func(a, b int) bool {
			return reverse(files[a].Path) < reverse(files[b].Path)
		})
	}
	for _, f := range files {
		content, err := j.fs.ReadContent(f.Path)
		if errors.Is(err, pfs.ErrOffline) {
			// Naive mode recalls one file at a time, in visit order.
			if _, rerr := j.engine.Recall([]string{f.Path}, hsm.RecallNaive); rerr != nil {
				return res, rerr
			}
			res.FilesRecalled++
			j.stats.Recalls++
			content, err = j.fs.ReadContent(f.Path)
		}
		if err != nil {
			return res, err
		}
		res.FilesSearched++
		if containsPattern(content, pattern) {
			res.Matches++
			j.stats.GrepMatches++
		}
	}
	return res, nil
}

func reverse(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// containsPattern scans the synthetic content for the byte pattern in
// bounded windows (a real grep reads everything; cost is charged by the
// recall and pool layers, and the scan itself is CPU-side).
func containsPattern(content synthetic.Content, pattern []byte) bool {
	if len(pattern) == 0 {
		return true
	}
	const window = 64 << 10
	buf := make([]byte, window+len(pattern))
	for off := int64(0); off < content.Len(); off += window {
		n := content.ReadAt(buf, off)
		if idx := indexBytes(buf[:n], pattern); idx >= 0 {
			return true
		}
	}
	return false
}

func indexBytes(haystack, needle []byte) int {
	return strings.Index(string(haystack), string(needle))
}
