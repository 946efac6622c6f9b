package cluster

import (
	"testing"

	janus "janusaqp"
	"janusaqp/internal/routertest"
)

// TestRouterContractCoordinator runs the shared scatter-gather contract —
// the table the root package runs over a ShardGroup — over a Coordinator
// fronting the same engines as loopback nodes.
func TestRouterContractCoordinator(t *testing.T) {
	routertest.Run(t, func(t *testing.T, engines []*janus.Engine) routertest.Subject {
		peers := make([]string, len(engines))
		for i, eng := range engines {
			peers[i], _ = serveNode(t, NewNode(eng, nil))
		}
		coord, err := NewCoordinator(peers, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		return coord
	})
}
