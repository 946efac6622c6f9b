package janus

// docrefs_test.go keeps the rationale the code points at reachable: a
// comment that says "see X.md" must name a file that exists.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdPath matches a Markdown file name or relative path inside Go source.
var mdPath = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestCitedMarkdownExists fails when a non-test .go file of the repository
// names a *.md path that exists neither relative to the repository root nor
// relative to the citing file's directory.
func TestCitedMarkdownExists(t *testing.T) {
	cited := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Build and cache directories and fixtures are not the program.
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, ref := range mdPath.FindAllString(string(src), -1) {
			cited++
			if !pathExists(ref) && !pathExists(filepath.Join(filepath.Dir(path), ref)) {
				t.Errorf("%s names %s, which does not exist", path, ref)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("no .go file names a .md path: the scan found nothing to check")
	}
}

func pathExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
