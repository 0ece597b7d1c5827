// Social Network example: system-state drifting (the paper's section 5.3).
//
// The DeathStarBench-style Social Network serves home-timeline reads
// while Kubernetes-HPA scales Post Storage horizontally. Halfway through,
// the request type drifts from light (2 posts per read) to heavy (10
// posts per read), which shifts the optimal request-connection allocation
// to Post Storage. The run compares a static connection pool against
// Sora's runtime re-estimation. Run with:
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"
	"time"

	"sora/internal/autoscaler"
	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/workload"
)

const (
	slo       = 400 * time.Millisecond
	duration  = 6 * time.Minute
	peakUsers = 4000
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	staticP99, staticGP, err := runOnce(false)
	if err != nil {
		return fmt.Errorf("static run: %w", err)
	}
	soraP99, soraGP, err := runOnce(true)
	if err != nil {
		return fmt.Errorf("Sora run: %w", err)
	}
	fmt.Printf("\n%-16s %12s %16s\n", "strategy", "p99 [ms]", "goodput [req/s]")
	fmt.Printf("%-16s %12.0f %16.0f\n", "HPA (static)", staticP99.Seconds()*1000, staticGP)
	fmt.Printf("%-16s %12.0f %16.0f\n", "HPA+Sora", soraP99.Seconds()*1000, soraGP)
	return nil
}

func runOnce(withSora bool) (time.Duration, float64, error) {
	name := "HPA with static connections"
	if withSora {
		name = "HPA + Sora connection adaptation"
	}
	fmt.Printf("\n=== %s ===\n", name)

	k := sim.NewKernel(11)
	cfg := topology.DefaultSocialNetwork()
	cfg.PostStorageConns = 50 // static allocation of the baseline
	cfg.PostStorageCores = 2
	app := topology.SocialNetwork(cfg)
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		return 0, 0, err
	}
	if err := c.SetMix(topology.HomeTimelineOnlyMix(false)); err != nil {
		return 0, 0, err
	}
	// Drift: light -> heavy reads at half time.
	driftAt := duration / 2
	k.At(sim.Time(driftAt), func() {
		if err := c.SetMix(topology.HomeTimelineOnlyMix(true)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%-5v *** request type drifts light -> heavy ***\n", k.Now())
	})

	ref := cluster.ResourceRef{
		Service: topology.HomeTimeline,
		Kind:    cluster.PoolClientConns,
		Target:  topology.PostStorage,
	}
	mon, err := core.NewMonitor(c, 0, []cluster.ResourceRef{ref}, c.ServiceNames())
	if err != nil {
		return 0, 0, err
	}
	mon.Start()

	hpa, err := autoscaler.NewHPA(c, autoscaler.HPAConfig{
		Service:     topology.PostStorage,
		MaxReplicas: 6,
	})
	if err != nil {
		return 0, 0, err
	}

	var ctl *core.Controller
	var hwTicker *sim.Ticker
	if withSora {
		scg, err := core.NewSCG(c, mon, core.SCGConfig{SLA: slo, Window: 45 * time.Second})
		if err != nil {
			return 0, 0, err
		}
		ctl, err = core.NewController(c, core.ControllerConfig{
			Model:   scg,
			Scaler:  hpa,
			Managed: []core.ManagedResource{{Ref: ref, Min: 4, Max: 300}},
			Warmup:  30 * time.Second,
		})
		if err != nil {
			return 0, 0, err
		}
		ctl.Start()
	} else {
		hwTicker = k.Every(core.DefaultControlPeriod, func() { hpa.Step(k.Now()) })
	}

	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: workload.TraceUsers(workload.LargeVariationTrace(), duration, peakUsers),
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		return 0, 0, err
	}
	loop.Start()

	ps, err := c.Service(topology.PostStorage)
	if err != nil {
		return 0, 0, err
	}
	for elapsed := time.Minute; elapsed <= duration; elapsed += time.Minute {
		k.RunUntil(sim.Time(elapsed))
		now := k.Now()
		p99, err := c.Completions().Percentile(99, now-sim.Time(time.Minute), now)
		if err != nil {
			p99 = 0
		}
		conns, err := c.PoolSize(ref)
		if err != nil {
			return 0, 0, err
		}
		inUse, err := c.PoolInUse(ref)
		if err != nil {
			return 0, 0, err
		}
		fmt.Printf("t=%-5v users=%-5d replicas=%d conns=%d(in use %d) p99=%v\n",
			now, loop.Users(), ps.Replicas(), conns, inUse, p99.Round(time.Millisecond))
	}
	if ctl != nil {
		ctl.Stop()
		for _, e := range ctl.Events() {
			fmt.Println("  adaptation:", e)
		}
	}
	if hwTicker != nil {
		hwTicker.Stop()
	}
	loop.Stop()
	mon.Stop()
	k.Run()

	warm := sim.Time(10 * time.Second)
	end := sim.Time(duration)
	p99, err := c.Completions().Percentile(99, warm, end)
	if err != nil {
		return 0, 0, err
	}
	return p99, c.Completions().GoodputRate(warm, end, slo), nil
}
