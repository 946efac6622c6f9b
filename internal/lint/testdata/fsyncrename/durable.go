// Fixture for the fsyncrename analyzer, file-scoped half: this file is
// named durable.go, so every os.Rename in it is treated as publishing a
// durable artifact.
package fsyncrename

import "os"

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func fullProtocol(dir string) error {
	f, err := os.Create(dir + "/checkpoint.tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(dir+"/checkpoint.tmp", dir+"/checkpoint.db"); err != nil {
		return err
	}
	return syncDir(dir)
}

func missingFileSync(dir string) error {
	f, err := os.Create(dir + "/layout.tmp")
	if err != nil {
		return err
	}
	f.Close()
	if err := os.Rename(dir+"/layout.tmp", dir+"/layout.json"); err != nil { // want `os\.Rename publishes a file this function wrote without fsyncing it first`
		return err
	}
	return syncDir(dir)
}

func missingDirSync(dir string) error {
	f, err := os.Create(dir + "/seg.tmp")
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	f.Close()
	return os.Rename(dir+"/seg.tmp", dir+"/seg.log") // want `os\.Rename is not followed by a directory fsync in this function`
}

func discardedDirSync(dir string) error {
	f, err := os.Create(dir + "/checkpoint.tmp")
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	f.Close()
	if err := os.Rename(dir+"/checkpoint.tmp", dir+"/checkpoint.db"); err != nil { // want `os\.Rename is not followed by a directory fsync in this function, or its error is discarded`
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

func discardedSyncDir(dir string) error {
	if err := os.Rename(dir+"/staged", dir+"/live"); err != nil { // want `os\.Rename is not followed by a directory fsync in this function, or its error is discarded`
		return err
	}
	syncDir(dir)
	return nil
}

func shuffleOnly(dir string) error {
	// This function renames files it did not write (a finalize step over
	// already-synced staging), so only the directory fsync is owed.
	if err := os.Rename(dir+"/staged", dir+"/live"); err != nil {
		return err
	}
	return syncDir(dir)
}

func suppressedRename(dir string) error {
	//lint:janusvet-ignore fsyncrename: scratch-dir shuffle, durability handled by the caller's barrier
	return os.Rename(dir+"/a", dir+"/b")
}
