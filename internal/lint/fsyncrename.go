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
		"after the rename whose error is not discarded).",
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
	var dirSyncs []token.Pos // x.Sync() and syncDir(...)-style calls whose error is not discarded
	var creates []token.Pos  // os.Create/os.CreateTemp/os.OpenFile/x.Write*
	// discarded holds calls whose results are dropped: a bare statement,
	// an assignment to _ only, or a defer. A directory fsync whose error
	// is dropped cannot stop a failed rename from being reported durable.
	discarded := map[*ast.CallExpr]bool{}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var dropped ast.Expr
		switch n := n.(type) {
		case *ast.ExprStmt:
			dropped = n.X
		case *ast.DeferStmt:
			dropped = n.Call
		case *ast.AssignStmt:
			if id, ok := n.Lhs[0].(*ast.Ident); ok && len(n.Lhs) == 1 && id.Name == "_" {
				dropped = n.Rhs[0]
			}
		}
		if call, ok := dropped.(*ast.CallExpr); ok {
			discarded[call] = true
		}
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
			sel, isSel := call.Fun.(*ast.SelectorExpr)
			id, isIdent := call.Fun.(*ast.Ident)
			isSync := isSel && sel.Sel.Name == "Sync" && len(call.Args) == 0
			if isSync {
				syncs = append(syncs, call.Pos())
			}
			if (isSync || isSel && isDirSyncName(sel.Sel.Name) || isIdent && isDirSyncName(id.Name)) && !discarded[call] {
				dirSyncs = append(dirSyncs, call.Pos())
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
		// durable — and its error checked, so a failed one is reported.
		after := false
		for _, s := range dirSyncs {
			if s > r.end {
				after = true
				break
			}
		}
		if !after {
			pass.Reportf(r.pos,
				"os.Rename is not followed by a directory fsync in this function, or its error is discarded: a crash can lose the rename unreported (fsync the containing directory and check the error, e.g. syncDir)")
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
