package janus

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Durable resharding: the on-disk side of ShardGroup.Reshard. Target
// stores materialize under ROOT/shard-k.new while the old layout keeps
// serving from ROOT/shard-k (or the root itself, for a single-engine
// layout). The cutover's write-gated window checkpoints every target
// store and then commits a layout manifest — ROOT/layout.json, written
// atomically — which is the single commit point: a crash strictly before
// the manifest recovers the old layout (the .new directories are litter),
// a crash anywhere after it rolls forward to the new layout (every target
// checkpoint was fsynced before the manifest existed). Either way the
// directory recovers to exactly one consistent layout holding every
// acknowledged write.

// layoutManifestName is the shard-layout manifest file, kept in the data
// directory root.
const layoutManifestName = "layout.json"

// ShardLayout is the durable shard-layout manifest. Once a directory has
// resharded it always carries one; Pending marks the window between the
// cutover commit and the directory finalize (renames), which recovery
// completes.
type ShardLayout struct {
	Version int   `json:"version"`
	Shards  int   `json:"shards"`
	Epoch   int64 `json:"epoch"`
	Pending bool  `json:"pending,omitempty"`
}

// ShardDir returns shard k's store directory under a data-dir root.
func ShardDir(root string, k int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%d", k))
}

// shardNewDir is where shard k's target store materializes mid-reshard.
func shardNewDir(root string, k int) string { return ShardDir(root, k) + ".new" }

// reshardTestHook, when set by tests, runs at named reshard stages
// ("copy", "pre-manifest", "post-manifest", "mid-finalize"). Returning
// errSimulatedCrash makes ReshardDurable bail out leaving the directory
// exactly as a process death at that point would — the crash-drill tests
// then recover it.
var reshardTestHook func(stage string) error

// errSimulatedCrash aborts a reshard without cleanup (test-only).
var errSimulatedCrash = errors.New("janus: simulated crash")

// readShardLayout reads ROOT/layout.json. ok is false when the directory
// has no manifest (a legacy layout: single-engine root files or bare
// shard-k directories from first boot).
func readShardLayout(root string) (ShardLayout, bool, error) {
	raw, err := os.ReadFile(filepath.Join(root, layoutManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return ShardLayout{}, false, nil
	}
	if err != nil {
		return ShardLayout{}, false, fmt.Errorf("janus: reading layout manifest: %w", err)
	}
	var ly ShardLayout
	if err := json.Unmarshal(raw, &ly); err != nil {
		return ShardLayout{}, false, fmt.Errorf("janus: parsing %s: %w", layoutManifestName, err)
	}
	if ly.Version != 1 {
		return ShardLayout{}, false, fmt.Errorf("janus: unsupported layout manifest version %d", ly.Version)
	}
	if ly.Shards < 1 {
		return ShardLayout{}, false, fmt.Errorf("janus: layout manifest names %d shards", ly.Shards)
	}
	return ly, true, nil
}

// writeShardLayout commits the manifest atomically: tmp + rename + dir
// fsync, same discipline as checkpoint publication.
func writeShardLayout(root string, ly ShardLayout) error {
	raw, err := json.Marshal(ly)
	if err != nil {
		return err
	}
	tmp := filepath.Join(root, layoutManifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("janus: creating layout manifest: %w", err)
	}
	_, err = f.Write(append(raw, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("janus: writing layout manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(root, layoutManifestName)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("janus: publishing layout manifest: %w", err)
	}
	return syncDir(root)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// shardEntry parses a directory entry name as shard-K or shard-K.new.
func shardEntry(name string) (k int, isNew, ok bool) {
	rest, found := strings.CutPrefix(name, "shard-")
	if !found {
		return 0, false, false
	}
	rest, isNew = strings.CutSuffix(rest, ".new")
	k, err := strconv.Atoi(rest)
	if err != nil || k < 0 {
		return 0, false, false
	}
	return k, isNew, true
}

// LayoutRecovery reports what RecoverShardLayout did to a data directory
// and what layout it holds afterwards.
type LayoutRecovery struct {
	// Layout is the committed manifest, nil for a legacy directory.
	Layout *ShardLayout
	// RemovedNew lists abandoned shard-k.new directories swept away — the
	// litter of a reshard that crashed before its commit point.
	RemovedNew []string
	// RolledForward reports that a committed-but-unfinalized reshard (a
	// crash after the manifest, before the renames) was completed.
	RolledForward bool
	// Fresh: the directory is missing or holds no data at all — a first
	// boot.
	Fresh bool
	// RootForm: the legacy single-engine layout — segment logs and
	// checkpoint in the root itself, no manifest, no shard directories.
	RootForm bool
	// Shards is the on-disk layout width: 1 for the root form, 0 when
	// fresh.
	Shards int
}

// RecoverShardLayout brings a data directory to exactly one consistent
// shard layout before any store is opened, and reports which. Call it
// first on every boot of a durable directory:
//
//   - no manifest: any shard-k.new directory is an uncommitted reshard's
//     partial copy — removed; the legacy layout (root files or shard-k
//     dirs) is untouched and complete.
//   - manifest, not pending: the layout is finalized; stale shard-k.new
//     litter from a later failed reshard attempt is removed.
//   - manifest, pending: the reshard committed but the process died
//     before (or during) the directory finalize — roll forward: for each
//     shard the rename is completed, stale old-layout files are removed,
//     and the manifest is rewritten as finalized. Idempotent: a crash
//     during recovery recovers again.
//
// Hash routing is a pure function of (id, K), so a boot path must know
// the on-disk K before opening any store; serving a width that disagrees
// with it means resharding the directory, never appending under the wrong
// K. Structural damage is refused with the full found-vs-expected layout
// enumerated: shard-k entries that are not directories, gaps or strays in
// the shard-dir sequence, single-engine logs mixed with shard directories,
// or a manifest the directories contradict.
func RecoverShardLayout(root string) (LayoutRecovery, error) {
	var rec LayoutRecovery
	ly, ok, err := readShardLayout(root)
	if err != nil {
		return rec, err
	}
	if ok && ly.Pending {
		// Committed but unfinalized: complete the move.
		if err := finalizeLayoutDirs(root, ly.Shards); err != nil {
			return rec, fmt.Errorf("janus: rolling layout forward: %w", err)
		}
		ly.Pending = false
		if err := writeShardLayout(root, ly); err != nil {
			return rec, err
		}
		rec.RolledForward = true
	}
	if ok {
		rec.Layout, rec.Shards = &ly, ly.Shards
	}
	entries, err := os.ReadDir(root)
	if errors.Is(err, os.ErrNotExist) {
		rec.Fresh = true
		return rec, nil
	}
	if err != nil {
		return rec, err
	}

	var found []int
	var notDirs []string
	rootLogs := false
	for _, e := range entries {
		k, isNew, isShard := shardEntry(e.Name())
		switch {
		case !isShard:
			switch e.Name() {
			case insertsLogName, deletesLogName, checkpointName:
				rootLogs = true
			}
		case isNew:
			// Uncommitted target litter; the serving layout is complete
			// without it (every acked write during a failed copy also landed
			// in the source layout — dual-write mirrors, it never redirects).
			if e.IsDir() {
				if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
					return rec, fmt.Errorf("janus: removing abandoned %s: %w", e.Name(), err)
				}
				rec.RemovedNew = append(rec.RemovedNew, e.Name())
			}
		case !e.IsDir():
			notDirs = append(notDirs, e.Name())
		default:
			found = append(found, k)
		}
	}
	if len(rec.RemovedNew) > 0 {
		if err := syncDir(root); err != nil {
			return rec, err
		}
	}
	sort.Ints(found)
	if len(notDirs) > 0 {
		return rec, fmt.Errorf("data dir %s: %s: not a directory (a shard layout holds one shard-k directory per shard); shard directories found: [%s]",
			root, strings.Join(notDirs, ", "), shardDirNames(found))
	}
	contiguous := func(width int) bool {
		return len(found) == width && (width == 0 || found[width-1] == width-1)
	}
	switch {
	case ok:
		expected := fmt.Sprintf("the manifest's %d-shard layout (shard-0..shard-%d)", ly.Shards, ly.Shards-1)
		if rootLogs {
			return rec, fmt.Errorf("data dir %s: expected %s but single-engine root logs are present alongside [%s]",
				root, expected, shardDirNames(found))
		}
		if !contiguous(ly.Shards) {
			return rec, layoutMismatch(root, found, ly.Shards, expected)
		}
	case rootLogs && len(found) > 0:
		return rec, fmt.Errorf("data dir %s holds both single-engine root logs and shard directories [%s]; move one layout aside",
			root, shardDirNames(found))
	case rootLogs:
		rec.RootForm, rec.Shards = true, 1
	case len(found) > 0:
		width := found[len(found)-1] + 1
		if !contiguous(width) {
			return rec, layoutMismatch(root, found, width,
				fmt.Sprintf("a contiguous %d-shard layout (shard-0..shard-%d)", width, width-1))
		}
		rec.Shards = width
	default:
		rec.Fresh = true
	}
	return rec, nil
}

// shardDirNames renders a shard-index list as its directory names, e.g.
// "shard-0, shard-2".
func shardDirNames(ks []int) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = fmt.Sprintf("shard-%d", k)
	}
	return strings.Join(names, ", ")
}

// layoutMismatch builds the found-vs-expected error for a shard-dir set
// that doesn't form the expected contiguous shard-0..shard-(width-1)
// layout, enumerating every missing and extra directory.
func layoutMismatch(dir string, found []int, width int, expected string) error {
	have := make(map[int]bool, len(found))
	var extra []int
	for _, k := range found {
		have[k] = true
		if k >= width {
			extra = append(extra, k)
		}
	}
	var missing []int
	for k := 0; k < width; k++ {
		if !have[k] {
			missing = append(missing, k)
		}
	}
	var probs []string
	if len(missing) > 0 {
		probs = append(probs, "missing "+shardDirNames(missing))
	}
	if len(extra) > 0 {
		probs = append(probs, "extra "+shardDirNames(extra))
	}
	return fmt.Errorf("data dir %s: expected %s but found [%s] (%s)",
		dir, expected, shardDirNames(found), strings.Join(probs, "; "))
}

// finalizeLayoutDirs rewrites the directory to the committed shards-wide
// layout: old-layout files are removed and each shard-k.new renames into
// place. Every step is idempotent, so recovery can rerun it after a crash
// at any point.
func finalizeLayoutDirs(root string, shards int) error {
	// Old single-engine root files (if the source layout was unsharded).
	for _, name := range []string{insertsLogName, deletesLogName, checkpointName} {
		for _, p := range []string{name, name + ".tmp"} {
			if err := os.Remove(filepath.Join(root, p)); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	// Old shard directories beyond the new width, and any stray .new
	// litter beyond it (a wider reshard attempt that never committed).
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if k, _, isShard := shardEntry(e.Name()); isShard && k >= shards && e.IsDir() {
			if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
				return err
			}
		}
	}
	if h := reshardTestHook; h != nil {
		if err := h("mid-finalize"); err != nil {
			return err
		}
	}
	for k := 0; k < shards; k++ {
		newDir, dir := shardNewDir(root, k), ShardDir(root, k)
		if _, err := os.Stat(newDir); err == nil {
			// Any existing shard-k belongs to the old layout: the committed
			// manifest says the .new directory supersedes it.
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			if err := os.Rename(newDir, dir); err != nil {
				return err
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		} else if _, serr := os.Stat(dir); serr != nil {
			return fmt.Errorf("layout manifest names %d shards but neither %s nor %s exists", shards, dir, newDir)
		}
	}
	return syncDir(root)
}

// ReshardDurable runs a live reshard of a durable layout rooted at root:
// it opens one fresh Store per target shard under root/shard-k.new, runs
// group.Reshard with dual-writes landing write-through in the target
// logs, checkpoints every target store and commits the layout manifest
// inside the cutover's write-gated window, and finalizes the directory
// (retiring the old layout's files and renaming each shard-k.new into
// place). On success the returned stores serve the new layout and every
// old store has been closed.
//
// On error before the cutover commit, the old layout is untouched and
// still serving and the target directories have been removed. If err is
// non-nil but report is also non-nil, the cutover committed and the group
// IS serving the new layout, but the directory finalize failed: the
// returned stores are live, and restarting the daemon (RecoverShardLayout
// rolls forward) completes the move.
func ReshardDurable(ctx context.Context, g *ShardGroup, root string, oldStores []*Store, opts ReshardOptions) (report *ReshardReport, stores []*Store, err error) {
	if opts.Brokers != nil || opts.OnCutover != nil {
		return nil, nil, fmt.Errorf("janus: ReshardDurable manages the target brokers and cutover hook itself")
	}
	kNew := opts.TargetShards
	if kNew < 1 {
		return nil, nil, fmt.Errorf("janus: reshard target of %d shards; need at least 1", kNew)
	}
	prev, havePrev, err := readShardLayout(root)
	if err != nil {
		return nil, nil, err
	}
	epoch := int64(1)
	if havePrev {
		epoch = prev.Epoch + 1
	}

	stores = make([]*Store, kNew)
	brokers := make([]*Broker, kNew)
	closeTargets := func() {
		for _, st := range stores {
			if st != nil {
				_ = st.Close()
			}
		}
	}
	for j := range stores {
		dir := shardNewDir(root, j)
		if err := os.RemoveAll(dir); err != nil {
			closeTargets()
			return nil, nil, fmt.Errorf("janus: clearing stale %s: %w", dir, err)
		}
		st, err := OpenStore(dir)
		if err != nil {
			closeTargets()
			return nil, nil, err
		}
		stores[j] = st
		brokers[j] = st.Broker()
	}
	opts.Brokers = brokers
	opts.OnCutover = func(target []*Engine) error {
		// Writers are gated and the target engines are quiescent: persist
		// each target shard, then commit. The checkpoints must be durable
		// before the manifest exists — recovery trusts the manifest.
		for j, st := range stores {
			if werr := st.WriteErr(); werr != nil {
				return fmt.Errorf("janus: target shard %d log failed during reshard: %w", j, werr)
			}
			if _, cerr := st.WriteCheckpoint(target[j]); cerr != nil {
				return fmt.Errorf("janus: checkpointing target shard %d: %w", j, cerr)
			}
		}
		if h := reshardTestHook; h != nil {
			if herr := h("pre-manifest"); herr != nil {
				return herr
			}
		}
		if werr := writeShardLayout(root, ShardLayout{Version: 1, Shards: kNew, Epoch: epoch, Pending: true}); werr != nil {
			return werr
		}
		if h := reshardTestHook; h != nil {
			if herr := h("post-manifest"); herr != nil {
				return herr
			}
		}
		return nil
	}

	report, err = g.Reshard(ctx, opts)
	if err != nil {
		closeTargets()
		if !errors.Is(err, errSimulatedCrash) {
			for j := range stores {
				_ = os.RemoveAll(shardNewDir(root, j))
			}
		}
		return nil, nil, err
	}

	// The group serves the new layout; the old stores are retired. Close
	// them before their directories are removed so no write-through handle
	// outlives its files.
	for _, st := range oldStores {
		_ = st.Close()
	}
	if ferr := finalizeLayoutDirs(root, kNew); ferr != nil {
		return report, stores, fmt.Errorf("janus: reshard committed but directory finalize failed (a restart completes it): %w", ferr)
	}
	for j, st := range stores {
		st.rebase(ShardDir(root, j))
	}
	if ferr := writeShardLayout(root, ShardLayout{Version: 1, Shards: kNew, Epoch: epoch}); ferr != nil {
		return report, stores, fmt.Errorf("janus: reshard finalized but manifest rewrite failed (a restart repeats the finalize): %w", ferr)
	}
	return report, stores, nil
}

// rebase repoints the store at dir after a reshard finalize renamed its
// directory into place. The open log handles remain valid across the
// rename; only paths formed later — checkpoints, compactions — change.
func (st *Store) rebase(dir string) {
	st.ckptMu.Lock()
	st.dir = dir
	st.ckptMu.Unlock()
}
