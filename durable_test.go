package janus

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"janusaqp/internal/workload"
)

// replicaImage checkpoints an engine over 2000 taxi rows, 50 of them
// deleted, and returns the image with the offsets it carries.
func replicaImage(t *testing.T) ([]byte, CheckpointInfo, Config) {
	t.Helper()
	b, tuples := seedBroker(t, workload.NYCTaxi, 2000)
	cfg := Config{LeafNodes: 16, SampleRate: 0.05, CatchUpRate: 1, Seed: 5}
	eng := NewEngine(cfg, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples[:50] {
		delete1(eng, tp.ID)
	}
	var buf bytes.Buffer
	info, err := eng.Checkpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), info, cfg
}

// recoverAt opens dir and recovers it, failing unless the recovered
// engine is consistent with want's offsets.
func recoverAt(t *testing.T, dir string, cfg Config, want CheckpointInfo) {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, info, err := st.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Checkpoint; got.InsertOffset != want.InsertOffset || got.DeleteOffset != want.DeleteOffset {
		t.Fatalf("recovered at %d/%d, want the image's %d/%d",
			got.InsertOffset, got.DeleteOffset, want.InsertOffset, want.DeleteOffset)
	}
}

// TestInitReplicaDir pins the replica bootstrap against the header rules
// Recover applies: an image InitReplicaDir accepts must recover, and one
// it refuses must leave no store files behind.
func TestInitReplicaDir(t *testing.T) {
	img, info, cfg := replicaImage(t)
	header := func(hdr checkpointHeader) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&hdr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name  string
		image []byte
		held  string // a store file the directory already holds
		ok    bool
	}{
		{name: "bad version", image: header(checkpointHeader{Version: checkpointVersion + 1})},
		{name: "negative offsets", image: header(checkpointHeader{Version: checkpointVersion, InsertOffset: -1, DeleteOffset: 3})},
		{name: "negative templates", image: header(checkpointHeader{Version: checkpointVersion, Templates: -1})},
		{name: "archive rows without archive", image: header(checkpointHeader{Version: checkpointVersion, ArchiveRows: 7})},
		{name: "dir holds store files", image: img, held: insertsLogName},
		{name: "good image", image: img, ok: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "replica")
			if tc.held != "" {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, tc.held), []byte("held"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := InitReplicaDir(dir, tc.image)
			if !tc.ok {
				if err == nil {
					t.Fatal("InitReplicaDir accepted the image")
				}
				if _, serr := os.Stat(filepath.Join(dir, checkpointName)); serr == nil {
					t.Fatal("a refused image left a checkpoint behind")
				}
				if tc.held != "" {
					if raw, _ := os.ReadFile(filepath.Join(dir, tc.held)); string(raw) != "held" {
						t.Fatalf("%s was overwritten: %q", tc.held, raw)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			recoverAt(t, dir, cfg, info)
		})
	}
}

// TestOpenStoreRefusesInterruptedInstall builds, by hand, the directories
// a crash in an older release's node install could leave — DIR moved
// aside to DIR.install-old with the incoming replica staged in
// DIR.install, and each of the two left alone — and checks OpenStore
// refuses rather than boot an empty DIR over them, naming the path and
// leaving every byte where it was.
func TestOpenStoreRefusesInterruptedInstall(t *testing.T) {
	img, _, cfg := replicaImage(t)
	for _, tc := range []struct {
		name          string
		staged, aside bool
	}{
		{"between the renames", true, true},
		{"staged only", true, false},
		{"aside only", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			old, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			tuples, err := workload.Generate(workload.NYCTaxi, 300, 1<<20, 9)
			if err != nil {
				t.Fatal(err)
			}
			old.Broker().PublishInsertBatch(tuples)
			if _, err := old.WriteCheckpoint(NewEngine(cfg, old.Broker())); err != nil {
				t.Fatal(err)
			}
			if err := old.Close(); err != nil {
				t.Fatal(err)
			}
			var sides []string
			if tc.staged {
				sides = append(sides, dir+".install")
				if err := InitReplicaDir(dir+".install", img); err != nil {
					t.Fatal(err)
				}
			}
			if tc.aside {
				sides = append(sides, dir+".install-old")
				if err := os.Rename(dir, dir+".install-old"); err != nil {
					t.Fatal(err)
				}
			}
			before := make([]map[string][]byte, len(sides))
			for i, side := range sides {
				before[i] = readTree(t, side)
			}

			if st, err := OpenStore(dir); err == nil {
				st.Close()
				t.Fatal("OpenStore opened a store beside an interrupted install")
			} else if !strings.Contains(err.Error(), sides[0]) {
				t.Errorf("refusal %q does not name %s", err, sides[0])
			}
			for i, side := range sides {
				if after := readTree(t, side); !reflect.DeepEqual(after, before[i]) {
					t.Errorf("the refused open changed %s", filepath.Base(side))
				}
			}
			if _, err := os.Stat(dir); tc.aside && !os.IsNotExist(err) {
				t.Errorf("the refused open created %s (%v)", filepath.Base(dir), err)
			}
		})
	}
}

// readTree returns every regular file under dir by its relative path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
