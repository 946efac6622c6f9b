package janus

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
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

// TestOpenStoreFinishesInstallSwap builds, by hand, the directory a crash
// leaves between ReplaceStore's two renames — DIR moved aside, the
// complete replica still staged — and checks OpenStore completes the swap:
// the store recovers at the image's offsets and no staged or aside copy
// is left.
func TestOpenStoreFinishesInstallSwap(t *testing.T) {
	img, info, cfg := replicaImage(t)
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
	if err := InitReplicaDir(dir+installStaging, img); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir, dir+installAside); err != nil {
		t.Fatal(err)
	}

	recoverAt(t, dir, cfg, info)
	for _, litter := range []string{dir + installStaging, dir + installAside} {
		if _, err := os.Stat(litter); !os.IsNotExist(err) {
			t.Errorf("%s survived the finished swap (%v)", filepath.Base(litter), err)
		}
	}
}
