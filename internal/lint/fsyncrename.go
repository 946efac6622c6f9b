package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// FsyncRename enforces the durable-write protocol every artifact in the
// data directory relies on (checkpoint.db, layout.json, compacted segment
// logs): write to a temp file, fsync the temp file, rename it over the
// live name, then fsync the directory. Skipping the file fsync lets a
// crash publish a rename pointing at unwritten bytes; skipping the
// directory fsync lets the rename itself vanish. The check is scoped to
// the files that own that protocol — durable.go, persist.go, layout.go,
// internal/broker, and internal/cluster/node.go (the install swap) —
// where every os.Rename is a publication.
var FsyncRename = &Analyzer{
	Name: "fsyncrename",
	Doc: "a rename publishing a durable artifact needs tmp-file fsync before and directory fsync after\n\n" +
		"In durable.go, persist.go, layout.go, internal/broker, and\n" +
		"internal/cluster/node.go: any\n" +
		"function calling os.Rename must fsync what it wrote beforehand\n" +
		"(when the function itself created the file) and must fsync the\n" +
		"containing directory afterwards (a .Sync() call or syncDir helper\n" +
		"after the rename).",
	Run: runFsyncRename,
}

// fsyncScopeFiles are the base names of files that implement the
// durable-write protocol in any package fsyncScopePkgs does not name.
var fsyncScopeFiles = map[string]bool{
	"durable.go": true,
	"persist.go": true,
	"layout.go":  true,
}

// fsyncScopePkgs scope packages (by import-path suffix) into the check:
// a nil file set takes the whole package, otherwise only the named files.
var fsyncScopePkgs = map[string]map[string]bool{
	"internal/broker":  nil,
	"internal/cluster": {"node.go": true},
}

func runFsyncRename(pass *Pass) error {
	files := fsyncScopeFiles
	for suf, pkgFiles := range fsyncScopePkgs {
		if pass.Pkg.Path() == suf || strings.HasSuffix(pass.Pkg.Path(), "/"+suf) {
			files = pkgFiles
		}
	}
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if files != nil && !files[name] {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkRenameProtocol(pass, fn)
		}
	}
	return nil
}

func checkRenameProtocol(pass *Pass, fn *ast.FuncDecl) {
	type callSite struct {
		pos  token.Pos
		end  token.Pos
		call *ast.CallExpr
	}
	var renames []callSite
	var syncs []token.Pos    // x.Sync() calls (file or dir handles)
	var syncDirs []token.Pos // syncDir(...)-style helper calls
	var creates []token.Pos  // os.Create/os.CreateTemp/os.OpenFile/x.Write*

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isPkgFunc(pass.TypesInfo, call, "os", "Rename"):
			renames = append(renames, callSite{pos: call.Pos(), end: call.End(), call: call})
		case isPkgFunc(pass.TypesInfo, call, "os", "Create"),
			isPkgFunc(pass.TypesInfo, call, "os", "CreateTemp"),
			isPkgFunc(pass.TypesInfo, call, "os", "OpenFile"),
			isPkgFunc(pass.TypesInfo, call, "os", "WriteFile"):
			creates = append(creates, call.Pos())
		default:
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" && len(call.Args) == 0 {
				syncs = append(syncs, call.Pos())
			}
			if id, ok := call.Fun.(*ast.Ident); ok && isDirSyncName(id.Name) {
				syncDirs = append(syncDirs, call.Pos())
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isDirSyncName(sel.Sel.Name) {
				syncDirs = append(syncDirs, call.Pos())
			}
		}
		return true
	})

	for _, r := range renames {
		// Tmp-file fsync before the rename — required when this function
		// wrote the bytes it is publishing. A function that only shuffles
		// already-synced files (e.g. a finalize step renaming staged
		// directories) carries no pre-rename obligation of its own.
		wrote := false
		for _, c := range creates {
			if c < r.pos {
				wrote = true
				break
			}
		}
		if wrote {
			synced := false
			for _, s := range syncs {
				if s < r.pos {
					synced = true
					break
				}
			}
			if !synced {
				pass.Reportf(r.pos,
					"os.Rename publishes a file this function wrote without fsyncing it first: a crash can publish a name pointing at unwritten bytes (call f.Sync() before the rename)")
			}
		}

		// Directory fsync after the rename, so the rename itself is
		// durable.
		after := false
		for _, s := range syncs {
			if s > r.end {
				after = true
				break
			}
		}
		for _, s := range syncDirs {
			if s > r.end {
				after = true
				break
			}
		}
		if !after {
			pass.Reportf(r.pos,
				"os.Rename is not followed by a directory fsync in this function: a crash can lose the rename (fsync the containing directory, e.g. syncDir)")
		}
	}
}

// isDirSyncName matches this codebase's directory-fsync helper spellings.
func isDirSyncName(name string) bool {
	switch name {
	case "syncDir", "fsyncDir", "SyncDir":
		return true
	}
	return false
}
