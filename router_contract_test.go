package janus_test

import (
	"testing"

	janus "janusaqp"
	"janusaqp/internal/routertest"
)

// TestRouterContractShardGroup runs the shared scatter-gather contract
// over an in-process ShardGroup; internal/cluster runs the same table over
// a Coordinator.
func TestRouterContractShardGroup(t *testing.T) {
	routertest.Run(t, func(t *testing.T, engines []*janus.Engine) routertest.Subject {
		g, err := janus.NewShardGroup(engines)
		if err != nil {
			t.Fatal(err)
		}
		return g
	})
}
