// Only node.go of internal/cluster is in scope: a rename elsewhere in the
// package carries no obligation.
package cluster

import "os"

func unscopedRename(dir string) error {
	return os.Rename(dir+"/x", dir+"/y")
}
