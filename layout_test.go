package janus

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestShardEntry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		k     int
		isNew bool
		ok    bool
	}{
		{"shard-0", 0, false, true},
		{"shard-17", 17, false, true},
		{"shard-3.new", 3, true, true},
		{"shard--1", 0, false, false},
		{"shard-x", 0, false, false},
		{"shard-", 0, false, false},
		{"inserts.log", 0, false, false},
		{"layout.json", 0, false, false},
	} {
		k, isNew, ok := shardEntry(tc.name)
		if k != tc.k || isNew != tc.isNew || ok != tc.ok {
			t.Errorf("shardEntry(%q) = (%d, %v, %v), want (%d, %v, %v)",
				tc.name, k, isNew, ok, tc.k, tc.isNew, tc.ok)
		}
	}
}

// mkLayout materializes a synthetic data-dir layout: entries ending in "/"
// become directories, everything else an empty file; a non-empty manifest
// is written as layout.json.
func mkLayout(t *testing.T, manifest string, entries ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, e := range entries {
		p := filepath.Join(dir, strings.TrimSuffix(e, "/"))
		if strings.HasSuffix(e, "/") {
			if err := os.MkdirAll(p, 0o755); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if manifest != "" {
		if err := os.WriteFile(filepath.Join(dir, LayoutManifestName), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRecoverShardLayoutInspection covers the detection matrix in the one
// call every durable boot makes: the healthy layouts each boot form
// recognizes, the kill-point states recovery repairs (and must then
// report as the layout it repaired them to), and the structural-damage
// errors, which must enumerate the found-vs-expected layout rather than
// just the first mismatch.
func TestRecoverShardLayoutInspection(t *testing.T) {
	type want struct {
		fresh, rootForm, rolledForward bool
		shards                         int
		epoch                          int64 // -1: no manifest
		removedNew                     []string
		errParts                       []string // non-nil: an error containing each
		after                          []string // entries the directory holds afterwards
		gone                           []string // entries it must no longer hold
	}
	for _, tc := range []struct {
		name     string
		manifest string
		entries  []string
		missing  bool // the directory itself does not exist
		want     want
	}{
		{name: "missing dir is fresh", missing: true, want: want{fresh: true, epoch: -1}},
		{name: "empty dir is fresh", want: want{fresh: true, epoch: -1}},
		{name: "root logs are the single layout",
			entries: []string{"inserts.log", "deletes.log", "checkpoint.db"},
			want:    want{rootForm: true, shards: 1, epoch: -1}},
		{name: "contiguous shard dirs",
			entries: []string{"shard-0/", "shard-1/", "shard-2/"},
			want:    want{shards: 3, epoch: -1}},
		{name: "new litter is swept and ignored",
			entries: []string{"shard-0/", "shard-1/", "shard-2.new/"},
			want: want{shards: 2, epoch: -1, removedNew: []string{"shard-2.new"},
				after: []string{"shard-0", "shard-1"}, gone: []string{"shard-2.new"}}},
		{name: "new litter beside root logs",
			entries: []string{"inserts.log", "deletes.log", "shard-0.new/", "shard-1.new/"},
			want: want{rootForm: true, shards: 1, epoch: -1, removedNew: []string{"shard-0.new", "shard-1.new"},
				after: []string{"inserts.log"}, gone: []string{"shard-0.new", "shard-1.new"}}},
		{name: "pending manifest rolls forward",
			manifest: `{"version":1,"shards":2,"epoch":4,"pending":true}`,
			entries:  []string{"inserts.log", "deletes.log", "checkpoint.db", "shard-0.new/", "shard-1.new/", "shard-5.new/"},
			want: want{shards: 2, epoch: 4, rolledForward: true,
				after: []string{"shard-0", "shard-1"},
				gone:  []string{"inserts.log", "deletes.log", "checkpoint.db", "shard-0.new", "shard-1.new", "shard-5.new"}}},
		{name: "pending manifest half finalized",
			manifest: `{"version":1,"shards":2,"epoch":2,"pending":true}`,
			entries:  []string{"shard-0/", "shard-1.new/", "shard-2/"},
			want: want{shards: 2, epoch: 2, rolledForward: true,
				after: []string{"shard-0", "shard-1"}, gone: []string{"shard-1.new", "shard-2"}}},
		{name: "gap enumerates found vs expected",
			entries: []string{"shard-0/", "shard-2/", "shard-5/"},
			want:    want{errParts: []string{"shard-0, shard-2, shard-5", "missing shard-1, shard-3, shard-4", "6-shard layout"}}},
		{name: "non-dir shard entry",
			entries: []string{"shard-0/", "shard-1"},
			want:    want{errParts: []string{"shard-1", "not a directory", "shard-0"}}},
		{name: "mixed layouts",
			entries: []string{"inserts.log", "shard-0/"},
			want:    want{errParts: []string{"both"}}},
		{name: "manifest governs",
			manifest: `{"version":1,"shards":2,"epoch":3}`,
			entries:  []string{"shard-0/", "shard-1/"},
			want:     want{shards: 2, epoch: 3}},
		{name: "manifest single shard is not the root layout",
			manifest: `{"version":1,"shards":1,"epoch":2}`,
			entries:  []string{"shard-0/"},
			want:     want{shards: 1, epoch: 2}},
		{name: "manifest contradicted enumerates both sides",
			manifest: `{"version":1,"shards":3,"epoch":1}`,
			entries:  []string{"shard-0/", "shard-4/"},
			want:     want{errParts: []string{"manifest's 3-shard layout", "shard-0, shard-4", "missing shard-1, shard-2", "extra shard-4"}}},
		{name: "manifest with root logs",
			manifest: `{"version":1,"shards":1,"epoch":1}`,
			entries:  []string{"shard-0/", "inserts.log"},
			want:     want{errParts: []string{"single-engine root logs"}}},
		{name: "bad manifest",
			manifest: `{"version":99}`,
			want:     want{errParts: []string{"unsupported layout manifest version"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := mkLayout(t, tc.manifest, tc.entries...)
			if tc.missing {
				dir = filepath.Join(dir, "nope")
			}
			rec, err := RecoverShardLayout(dir)
			if tc.want.errParts != nil {
				if err == nil {
					t.Fatalf("got %+v, want an error", rec)
				}
				for _, part := range tc.want.errParts {
					if !strings.Contains(err.Error(), part) {
						t.Errorf("error %q does not enumerate %q", err, part)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			epoch := int64(-1)
			if rec.Layout != nil {
				epoch = rec.Layout.Epoch
				if rec.Layout.Pending || rec.Layout.Shards != rec.Shards {
					t.Errorf("manifest %+v disagrees with the inspected width %d", *rec.Layout, rec.Shards)
				}
			}
			if rec.Fresh != tc.want.fresh || rec.RootForm != tc.want.rootForm || rec.Shards != tc.want.shards ||
				epoch != tc.want.epoch || rec.RolledForward != tc.want.rolledForward ||
				!reflect.DeepEqual(rec.RemovedNew, tc.want.removedNew) {
				t.Fatalf("got %+v (epoch %d), want %+v", rec, epoch, tc.want)
			}
			for _, name := range tc.want.after {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					t.Errorf("%s missing after recovery: %v", name, err)
				}
			}
			for _, name := range tc.want.gone {
				if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
					t.Errorf("%s survived recovery (stat: %v)", name, err)
				}
			}
			// Recovery and inspection agree in one call: a second pass over
			// the repaired directory repairs nothing and reports the same
			// layout.
			again, err := RecoverShardLayout(dir)
			if err != nil {
				t.Fatal(err)
			}
			if again.RolledForward || len(again.RemovedNew) != 0 ||
				again.Fresh != rec.Fresh || again.RootForm != rec.RootForm || again.Shards != rec.Shards {
				t.Errorf("second pass = %+v, want a no-op reporting %+v", again, rec)
			}
		})
	}
}
