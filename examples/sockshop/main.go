// Sock Shop example: reproduce the paper's headline scenario end to end.
//
// The Sock Shop application runs under the bursty "Steep Tri Phase"
// workload twice: first with the FIRM-style hardware-only autoscaler,
// then with the same autoscaler wrapped by Sora (SCG model adapting the
// Cart thread pool). The example prints a per-phase report and the final
// tail-latency/goodput comparison — a miniature of the paper's Figure 10
// and Table 2. Run with:
//
//	go run ./examples/sockshop
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
	peakUsers = 1500
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	firmP99, firmGP, err := runOnce(false)
	if err != nil {
		return fmt.Errorf("FIRM run: %w", err)
	}
	soraP99, soraGP, err := runOnce(true)
	if err != nil {
		return fmt.Errorf("Sora run: %w", err)
	}
	fmt.Printf("\n%-12s %12s %16s\n", "strategy", "p99 [ms]", "goodput [req/s]")
	fmt.Printf("%-12s %12.0f %16.0f\n", "FIRM", firmP99.Seconds()*1000, firmGP)
	fmt.Printf("%-12s %12.0f %16.0f\n", "FIRM+Sora", soraP99.Seconds()*1000, soraGP)
	if soraP99 > 0 {
		fmt.Printf("\nSora reduced p99 latency %.1fx and raised goodput %.1fx\n",
			float64(firmP99)/float64(soraP99), soraGP/firmGP)
	}
	return nil
}

func runOnce(withSora bool) (time.Duration, float64, error) {
	name := "FIRM"
	if withSora {
		name = "FIRM+Sora"
	}
	fmt.Printf("\n=== %s under Steep Tri Phase (%v, peak %d users) ===\n", name, duration, peakUsers)

	k := sim.NewKernel(7)
	cfg := topology.DefaultSockShop()
	cfg.CartCores = 2
	cfg.CartThreads = 5 // pre-profiled for the 2-core limit
	app := topology.SockShop(cfg)
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		return 0, 0, err
	}
	if err := c.SetMix(topology.CartOnlyMix(app)); err != nil {
		return 0, 0, err
	}

	ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
	mon, err := core.NewMonitor(c, 0, []cluster.ResourceRef{ref}, c.ServiceNames())
	if err != nil {
		return 0, 0, err
	}
	mon.Start()

	firm, err := autoscaler.NewFIRM(c, autoscaler.FIRMConfig{
		Service: topology.Cart,
		SLO:     slo,
		Ladder:  []float64{2, 4},
	})
	if err != nil {
		return 0, 0, err
	}

	var ctl *core.Controller
	var hwTicker *sim.Ticker
	if withSora {
		scg, err := core.NewSCG(c, mon, core.SCGConfig{SLA: slo})
		if err != nil {
			return 0, 0, err
		}
		ctl, err = core.NewController(c, core.ControllerConfig{
			Model:   scg,
			Scaler:  firm,
			Managed: []core.ManagedResource{{Ref: ref, Min: 2, Max: 200}},
			Warmup:  30 * time.Second,
		})
		if err != nil {
			return 0, 0, err
		}
		ctl.Start()
	} else {
		hwTicker = k.Every(core.DefaultControlPeriod, func() { firm.Step(k.Now()) })
	}

	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: workload.TraceUsers(workload.SteepTriPhaseTrace(), duration, peakUsers),
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		return 0, 0, err
	}
	loop.Start()

	cart, err := c.Service(topology.Cart)
	if err != nil {
		return 0, 0, err
	}
	// Report once per simulated minute.
	for elapsed := time.Minute; elapsed <= duration; elapsed += time.Minute {
		k.RunUntil(sim.Time(elapsed))
		now := k.Now()
		p99, err := c.Completions().Percentile(99, now-sim.Time(time.Minute), now)
		if err != nil {
			p99 = 0
		}
		threads, err := c.PoolSize(ref)
		if err != nil {
			return 0, 0, err
		}
		fmt.Printf("t=%-5v users=%-5d cores=%g threads=%-3d p99=%v\n",
			now, loop.Users(), cart.Cores(), threads, p99.Round(time.Millisecond))
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
