package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/autoscaler"
	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/sim"
	"sora/internal/topology"
)

// Figure 1 is the paper's motivating example: Kubernetes Horizontal Pod
// Autoscaling scales out the bottlenecked Catalogue service under a load
// step, but every new replica carries the statically configured database
// connection pool, over-allocating connections to catalogue-db and
// leaving large response-time fluctuations. Sora attached to the same
// HPA re-adapts the pool and stabilizes latency.
func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: K8s HPA vs Sora — Catalogue DB connection over-allocation on scale-out",
		Run:   runFig1,
	})
}

func runFig1(p Params, w io.Writer) error {
	dur := p.scale(3 * time.Minute)
	stepAt := dur / 4

	type outcome struct {
		runSummary
		label    string
		tl       *timeline
		events   []core.AdaptationEvent
		replicas float64
	}
	run := func(p Params, model modelKind) (*outcome, error) {
		cfg := topology.DefaultSockShop()
		cfg.CatalogueConns = 30 // liberal static pool: fine at 1 replica, excessive at 3
		app := topology.SockShop(cfg)
		// Smaller catalogue pods so horizontal scale-out is the right
		// hardware response, with catalogue-db the shared tier that a
		// replicated-and-over-allocated connection pool can thrash.
		for i := range app.Services {
			if app.Services[i].Name == topology.Catalogue {
				app.Services[i].Cores = 2
			}
		}
		ref := cluster.ResourceRef{Service: topology.Catalogue, Kind: cluster.PoolDBConns}
		// Load step: light browsing, then a flash crowd.
		target := func(t sim.Time) int {
			if t < stepAt {
				return 1100
			}
			return 2400
		}
		r, err := newRig(p, rigConfig{
			seed:   p.Seed,
			app:    app,
			mix:    topology.BrowseOnlyMix(app),
			refs:   []cluster.ResourceRef{ref},
			target: target,
		})
		if err != nil {
			return nil, err
		}
		hpa, err := autoscaler.NewHPA(r.c, autoscaler.HPAConfig{
			Service:     topology.Catalogue,
			MaxReplicas: 4,
		})
		if err != nil {
			return nil, err
		}
		managed := core.ManagedResource{Ref: ref, Min: 2, Max: 100}
		if err := r.manage(hpa, model, core.SCGConfig{SLA: goodputRTT, Window: 30 * time.Second}, managed, 20*time.Second); err != nil {
			return nil, err
		}

		catalogue, err := r.c.Service(topology.Catalogue)
		if err != nil {
			return nil, err
		}
		tl := newTimeline(time.Second)
		tl.column("rt_ms", r.meanRTColumn())
		tl.column("catalogue_cpu_util_pct", cpuUtilColumn(catalogue))
		tl.column("established_db_conns", r.poolInUseColumn(ref))
		poolSize := r.poolSizeColumn(ref)
		tl.column("db_conn_pool_total", func() float64 { return poolSize() * float64(catalogue.Replicas()) })
		tl.column("replicas", replicasColumn(catalogue))
		r.timeline = tl
		r.run(dur)

		o := &outcome{
			runSummary: r.summarize(sim.Time(5*time.Second), sim.Time(dur), goodputRTT),
			tl:         tl,
			replicas:   float64(catalogue.Replicas()),
		}
		if r.ctl != nil {
			o.events = r.ctl.Events()
		}
		return o, nil
	}

	// The baseline and Sora cases are independent simulations; run both
	// on the worker pool.
	grp := p.Telemetry.Group("cases")
	outcomes, err := parMap(p, 2, func(i int) (*outcome, error) {
		name := []string{"HPA", "Sora"}[i]
		o, err := run(p.unitParams(grp.Unit(i, name)), []modelKind{modelNone, modelSCG}[i])
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", name, err)
		}
		o.label = "fig1_" + name
		return o, nil
	})
	if err != nil {
		return err
	}
	hpaOnly, sora := outcomes[0], outcomes[1]

	for _, o := range []*outcome{hpaOnly, sora} {
		if !p.Quiet {
			plotASCII(w, o.label+" — end-to-end latency [ms]", 96, 8,
				namedSeries{name: "rt_ms", values: o.tl.series("rt_ms"), mark: '*'})
			plotASCII(w, o.label+" — catalogue CPU util [%] & replicas", 96, 7,
				namedSeries{name: "util%", values: o.tl.series("catalogue_cpu_util_pct"), mark: '*'},
				namedSeries{name: "replicas", values: o.tl.series("replicas"), mark: '-'})
			plotASCII(w, o.label+" — established DB connections vs pool total", 96, 7,
				namedSeries{name: "established", values: o.tl.series("established_db_conns"), mark: '*'},
				namedSeries{name: "pool", values: o.tl.series("db_conn_pool_total"), mark: '-'})
		}
		for _, e := range o.events {
			fmt.Fprintf(w, "%s adaptation: %s\n", o.label, e)
		}
		if err := writeCSV(p, "timeline_"+o.label, o.tl.header(), o.tl.rows); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "\nscale-out step at t=%v; both cases end at %v catalogue replicas\n", stepAt, hpaOnly.replicas)
	fmt.Fprintf(w, "%-10s %12s %16s\n", "case", "p99[ms]", "goodput[req/s]")
	fmt.Fprintf(w, "%-10s %12.0f %16.0f\n", "HPA", hpaOnly.p99.Seconds()*1000, hpaOnly.goodput)
	fmt.Fprintf(w, "%-10s %12.0f %16.0f\n", "Sora", sora.p99.Seconds()*1000, sora.goodput)
	fmt.Fprintf(w, "(paper: HPA's response-time spikes persist after scale-out because the per-replica\n")
	fmt.Fprintf(w, " DB connection pool over-allocates; Sora re-adapts the pool and flattens the spikes)\n")
	return nil
}
