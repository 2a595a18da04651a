// Package trash implements the paper's delete pipeline (§4.2.6–4.2.7,
// §6.3): a per-user trashcan (the Windows-Recycle-Bin-alike built from
// renames), the synchronous deleter that joins the GPFS file ID with
// the TSM object ID through the shadow database and deletes both sides
// at once — eliminating orphans without reconciliation — and, as the
// baseline it replaces, the reconcile agent that tree-walks the file
// system and compares it against the full TSM inventory.
package trash

import (
	"errors"
	"fmt"
	"path"

	"repro/internal/metadb"
	"repro/internal/pfs"
	"repro/internal/tsm"
)

// Xattr keys recorded on trashed files.
const (
	xattrOrig = "trash.orig"
	xattrUser = "trash.user"
	xattrTime = "trash.time"
)

// Can is a trashcan rooted at a directory of the archive file system.
type Can struct {
	fs   *pfs.FS
	root string
}

// NewCan creates (if needed) and returns a trashcan at root.
func NewCan(fs *pfs.FS, root string) (*Can, error) {
	if err := fs.MkdirAll(root); err != nil {
		return nil, err
	}
	return &Can{fs: fs, root: root}, nil
}

// userDir returns (creating) the per-user subdirectory.
func (c *Can) userDir(user string) (string, error) {
	d := path.Join(c.root, user)
	if err := c.fs.MkdirAll(d); err != nil {
		return "", err
	}
	return d, nil
}

// Delete moves p into the user's trashcan (a rename: no data moves, no
// tape I/O) and returns the trash path. This is what "rm" does inside
// the chroot jail.
func (c *Can) Delete(user, p string) (string, error) {
	info, err := c.fs.Stat(p)
	if err != nil {
		return "", err
	}
	dir, err := c.userDir(user)
	if err != nil {
		return "", err
	}
	dst := path.Join(dir, fmt.Sprintf("%d-%s", info.ID, info.Name))
	if err := c.fs.Rename(p, dst); err != nil {
		return "", err
	}
	if err := c.fs.SetXattr(dst, xattrOrig, p); err != nil {
		return "", err
	}
	if err := c.fs.SetXattr(dst, xattrUser, user); err != nil {
		return "", err
	}
	if err := c.fs.SetXattr(dst, xattrTime, fmt.Sprint(int64(c.fs.Clock().Now()))); err != nil {
		return "", err
	}
	return dst, nil
}

// PurgeResult reports one synchronous-delete pass.
type PurgeResult struct {
	Removed     int // files unlinked from the file system
	TapeDeletes int // TSM objects deleted in the same breath
	DiskOnly    int // files that had no tape copy
}

// Deleter performs synchronous deletes: for each victim it resolves the
// GPFS file ID to the TSM object ID through the shadow database, then
// issues the file system unlink and the TSM delete together, so no
// orphan is ever left on tape (§4.2.6).
type Deleter struct {
	fs     *pfs.FS
	srv    *tsm.Server
	shadow *metadb.DB
}

// NewDeleter creates a synchronous deleter.
func NewDeleter(fs *pfs.FS, srv *tsm.Server, shadow *metadb.DB) *Deleter {
	return &Deleter{fs: fs, srv: srv, shadow: shadow}
}

// Purge deletes every trashcan entry across all users. This is the
// administrative pass the GPFS policy engine feeds with trashcan lists.
func (d *Deleter) Purge(can *Can) (PurgeResult, error) {
	res := PurgeResult{}
	users, err := d.fs.ReadDir(can.root)
	if err != nil {
		return res, err
	}
	for _, u := range users {
		if !u.IsDir() {
			continue
		}
		entries, err := d.fs.ReadDir(u.Path)
		if err != nil {
			return res, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			if err := d.deleteOne(e, &res); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// deleteOne synchronously deletes a single file (already stat'ed).
func (d *Deleter) deleteOne(e pfs.Info, res *PurgeResult) error {
	rec, err := d.shadow.ByFileID(uint64(e.ID))
	switch {
	case err == nil:
		// Both sides go together: the synchronous part.
		if err := d.srv.Delete(rec.ObjectID); err != nil && !errors.Is(err, tsm.ErrNoSuchObject) {
			return fmt.Errorf("trash: tsm delete for %s: %w", e.Path, err)
		}
		res.TapeDeletes++
	case errors.Is(err, metadb.ErrNotFound):
		res.DiskOnly++
	default:
		return err
	}
	if err := d.fs.Remove(e.Path); err != nil {
		return err
	}
	res.Removed++
	return nil
}

// ReconcileResult reports one reconciliation pass.
type ReconcileResult struct {
	FSFiles        int // inodes visited on the file system side
	TSMObjects     int // objects scanned on the TSM side
	OrphansDeleted int // tape objects with no matching file
}

// Reconciler is the baseline the synchronous deleter replaces: walk the
// whole file system, export the whole TSM inventory, compare one by
// one, and delete the orphans. Its cost scales with the total file
// population — "for an archive with tens to hundreds of millions of
// files, the overhead is unacceptable".
type Reconciler struct {
	fs  *pfs.FS
	srv *tsm.Server
}

// NewReconciler creates a reconciler.
func NewReconciler(fs *pfs.FS, srv *tsm.Server) *Reconciler {
	return &Reconciler{fs: fs, srv: srv}
}

// Reconcile compares the file system against the TSM inventory and
// deletes orphaned tape objects. It charges a full policy scan of the
// file system plus a full export of the TSM database.
func (r *Reconciler) Reconcile() (ReconcileResult, error) {
	res := ReconcileResult{}
	live := make(map[uint64]bool)
	err := r.fs.Scan(func(i pfs.Info) error {
		if !i.IsDir() {
			res.FSFiles++
			live[uint64(i.ID)] = true
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	objs := r.srv.Export()
	res.TSMObjects = len(objs)
	for _, o := range objs {
		if o.FileID == 0 {
			continue // aggregates are not reconciled
		}
		if !live[o.FileID] {
			if err := r.srv.Delete(o.ID); err != nil {
				return res, err
			}
			res.OrphansDeleted++
		}
	}
	return res, nil
}
