package topology

import (
	"time"

	"sora/internal/cluster"
	"sora/internal/fault"
)

// This file carries the default resilience configuration of the two
// benchmark applications: per-edge call policies (timeouts, bounded
// retries with backoff, circuit breakers, optional-call degradation)
// matching what a service mesh would install in the paper's testbed.
// Policies are opt-in — plain experiments run the raw topologies; the
// chaos experiments apply these before injecting faults, aimed at the
// per-app fault targets declared below.

// EdgePolicy pairs one caller→callee edge with its resilience policy.
type EdgePolicy struct {
	Caller string
	Callee string
	Policy cluster.CallPolicy
}

// ApplyResilience installs a set of edge policies on a cluster.
func ApplyResilience(c *cluster.Cluster, policies []EdgePolicy) error {
	for _, ep := range policies {
		if err := c.SetCallPolicy(ep.Caller, ep.Callee, ep.Policy); err != nil {
			return err
		}
	}
	return nil
}

// essential is the default policy for edges whose failure fails the
// request: tight attempt timeout, three tries with jittered exponential
// backoff, and a circuit breaker so a dead callee fails fast.
func essential(timeout time.Duration) cluster.CallPolicy {
	return cluster.CallPolicy{
		Timeout:     timeout,
		MaxAttempts: 3,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		Jitter:      0.2,
		Breaker:     &cluster.BreakerPolicy{Threshold: 5, Cooldown: 5 * time.Second, ProbeSuccesses: 1},
	}
}

// optional is the default policy for edges the caller can degrade away:
// fewer tries, and exhaustion produces a degraded response instead of a
// failure.
func optional(timeout time.Duration) cluster.CallPolicy {
	p := essential(timeout)
	p.MaxAttempts = 2
	p.Optional = true
	return p
}

// SockShopResilience returns the default Sock Shop mesh configuration:
// the cart path is essential (an order page without the cart is an
// error), while the catalogue branch is optional — the front end
// renders a degraded page without product details.
func SockShopResilience() []EdgePolicy {
	return []EdgePolicy{
		{Caller: FrontEnd, Callee: Cart, Policy: essential(500 * time.Millisecond)},
		{Caller: Cart, Callee: CartDB, Policy: essential(300 * time.Millisecond)},
		{Caller: FrontEnd, Callee: Catalogue, Policy: optional(400 * time.Millisecond)},
		{Caller: Catalogue, Callee: CatalogueDB, Policy: essential(250 * time.Millisecond)},
	}
}

// SocialNetworkResilience returns the default Social Network mesh
// configuration: the home-timeline read path is essential down to Post
// Storage, and the social-graph annotation is optional — a timeline
// without follow suggestions is degraded, not broken.
func SocialNetworkResilience() []EdgePolicy {
	return []EdgePolicy{
		{Caller: SNFrontEnd, Callee: HomeTimeline, Policy: essential(600 * time.Millisecond)},
		{Caller: HomeTimeline, Callee: PostStorage, Policy: essential(300 * time.Millisecond)},
		{Caller: HomeTimeline, Callee: SocialGraph, Policy: optional(200 * time.Millisecond)},
	}
}

// SockShopFaultTargets aims the named fault plans at the cart path: the
// Cart service crashes, its database slows, the front-end→Cart edge
// turns lossy and Cart's thread pool is clamped to 4.
func SockShopFaultTargets() fault.Targets {
	return fault.Targets{
		CrashService: Cart,
		SlowService:  CartDB,
		EdgeCaller:   FrontEnd,
		EdgeCallee:   Cart,
		ClampRef:     cluster.ResourceRef{Service: Cart, Kind: cluster.PoolThreads},
		ClampSize:    4,
	}
}

// SocialNetworkFaultTargets aims the named fault plans at the
// home-timeline read path. The crash hits Social Graph, an optional
// edge, so it degrades requests rather than failing them; Post Storage
// slows, its edge from Home Timeline turns lossy, and that edge's
// connection pool is clamped to 4.
func SocialNetworkFaultTargets() fault.Targets {
	return fault.Targets{
		CrashService: SocialGraph,
		SlowService:  PostStorage,
		EdgeCaller:   HomeTimeline,
		EdgeCallee:   PostStorage,
		ClampRef: cluster.ResourceRef{
			Service: HomeTimeline,
			Kind:    cluster.PoolClientConns,
			Target:  PostStorage,
		},
		ClampSize: 4,
	}
}
