// File-in-package half of the fsyncrename fixture: the import path ends
// in internal/cluster and this file is node.go, so a rename here is a
// publication and in scope.
package cluster

import "os"

func swapInstalled(staging, dir string) error {
	return os.Rename(staging, dir) // want `os\.Rename is not followed by a directory fsync in this function`
}

func swapInstalledSynced(staging, dir, parent string) error {
	if err := os.Rename(staging, dir); err != nil {
		return err
	}
	return syncDir(parent)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
