package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/autoscaler"
	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/fault"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/workload"
)

// The chaos experiment runs an identical deterministic fault schedule
// (crash, slow node, lossy edge, pool clamp — see internal/fault)
// against both benchmark applications under three management
// strategies, and reports how each rides out every fault window:
// P99, goodput, and the degraded/violated outcome fractions before,
// during, and after each fault.
func init() {
	register(Experiment{
		ID:    "chaos",
		Title: "Chaos: fault injection — static vs autoscaler vs Sora on identical fault schedules",
		Run:   func(p Params, w io.Writer) error { return RunChaos(p, w, "combo") },
	})
}

// chaosStrategy is the management configuration of one chaos run.
type chaosStrategy int

const (
	// chaosStatic fixes the deployment exactly as configured: no
	// hardware scaler, no soft-resource adaptation.
	chaosStatic chaosStrategy = iota + 1
	// chaosAuto drives the scenario's hardware autoscaler (FIRM on Sock
	// Shop, HPA on Social Network) with static soft resources.
	chaosAuto
	// chaosSora adds the SCG latency model adapting the scenario's
	// bottleneck pool on top of the same hardware autoscaler.
	chaosSora
)

func (s chaosStrategy) String() string {
	switch s {
	case chaosStatic:
		return "static"
	case chaosAuto:
		return "autoscaler"
	case chaosSora:
		return "Sora"
	default:
		return fmt.Sprintf("chaosStrategy(%d)", int(s))
	}
}

// chaosPhase labels one reporting interval around a fault window.
type chaosPhase string

const (
	phaseBefore chaosPhase = "before"
	phaseDuring chaosPhase = "during"
	phaseAfter  chaosPhase = "after"
)

// chaosWindowRow is one (fault window, phase) measurement.
type chaosWindowRow struct {
	fault, target string
	phase         chaosPhase
	from, to      sim.Time
	p99           time.Duration
	goodput       float64 // req/s within SLA
	goodFrac      float64 // fractions of completions in the interval
	degradedFrac  float64
	violatedFrac  float64
}

// chaosResult carries one run's windows and whole-run counters.
type chaosResult struct {
	app      string
	strategy chaosStrategy
	rows     []chaosWindowRow

	p99          time.Duration
	goodput      float64
	goodFrac     float64 // whole-run outcome fractions past warmup
	degradedFrac float64
	violatedFrac float64
	completed    uint64
	failed       uint64
	dropped      uint64
	refused      uint64
	lost         uint64
	timedOut     uint64
	retries      uint64
	rejected     uint64
	degraded     uint64
}

// chaosApps lists the benchmark scenarios in run order.
var chaosApps = []string{"sockshop", "socialnet"}

// runChaosUnit executes one (app, strategy) run under the named plan
// and collects per-window outcome statistics.
func runChaosUnit(p Params, appName string, strat chaosStrategy, planName string, dur time.Duration) (*chaosResult, error) {
	// Self-identification record: the unit's timeline (and event log)
	// leads with the config that produced it, so soradiff can align two
	// runs without out-of-band context.
	if tel := p.Telemetry; tel != nil {
		tel.Publish(0, "run.manifest",
			telemetry.String("tool", "chaos"),
			telemetry.String("app", appName),
			telemetry.String("strategy", strat.String()),
			telemetry.String("plan", planName),
			telemetry.Int64("seed", int64(p.Seed)),
			telemetry.Float("dur_s", dur.Seconds()),
		)
	}
	var (
		r        *rig
		targets  fault.Targets
		policies []topology.EdgePolicy
		hw       core.HardwareScaler
		managed  []core.ManagedResource
		err      error
	)

	switch appName {
	case "sockshop":
		// The Cart scenario of Figures 10-11: 2-core Cart with the
		// pre-profiled ~10-thread pool, closed-loop cart-only load.
		cfg := topology.DefaultSockShop()
		cfg.CartCores = 2
		cfg.CartThreads = 10
		app := topology.SockShop(cfg)
		ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
		r, err = newRig(rigConfig{
			seed:         p.Seed,
			app:          app,
			mix:          topology.CartOnlyMix(app),
			refs:         []cluster.ResourceRef{ref},
			target:       workload.ConstantUsers(900),
			tel:          p.Telemetry,
			flightWindow: p.Timeline,
			prof:         p.Profile,
		})
		if err != nil {
			return nil, err
		}
		policies = topology.SockShopResilience()
		targets = fault.Targets{
			CrashService: topology.Cart,
			SlowService:  topology.CartDB,
			EdgeCaller:   topology.FrontEnd,
			EdgeCallee:   topology.Cart,
			ClampRef:     ref,
			ClampSize:    4,
		}
		if strat != chaosStatic {
			firm, ferr := autoscaler.NewFIRM(r.c, autoscaler.FIRMConfig{
				Service: topology.Cart,
				SLO:     goodputRTT,
				Ladder:  []float64{2, 4},
			})
			if ferr != nil {
				return nil, ferr
			}
			hw = firm
		}
		managed = []core.ManagedResource{{Ref: ref, Min: 2, Max: 200}}

	case "socialnet":
		// The Figure-12 read path: Home Timeline fanning out to Post
		// Storage over a statically sized connection pool.
		cfg := topology.DefaultSocialNetwork()
		cfg.PostStorageConns = 15
		cfg.PostStorageCores = 2
		app := topology.SocialNetwork(cfg)
		ref := cluster.ResourceRef{
			Service: topology.HomeTimeline,
			Kind:    cluster.PoolClientConns,
			Target:  topology.PostStorage,
		}
		r, err = newRig(rigConfig{
			seed:         p.Seed,
			app:          app,
			mix:          topology.HomeTimelineOnlyMix(false),
			refs:         []cluster.ResourceRef{ref},
			target:       workload.ConstantUsers(1500),
			tel:          p.Telemetry,
			flightWindow: p.Timeline,
			prof:         p.Profile,
		})
		if err != nil {
			return nil, err
		}
		policies = topology.SocialNetworkResilience()
		targets = fault.Targets{
			CrashService: topology.SocialGraph, // optional edge: degrades, not fails
			SlowService:  topology.PostStorage,
			EdgeCaller:   topology.HomeTimeline,
			EdgeCallee:   topology.PostStorage,
			ClampRef:     ref,
			ClampSize:    4,
		}
		if strat != chaosStatic {
			hpa, herr := autoscaler.NewHPA(r.c, autoscaler.HPAConfig{
				Service:     topology.PostStorage,
				MaxReplicas: 6,
			})
			if herr != nil {
				return nil, herr
			}
			hw = hpa
		}
		managed = []core.ManagedResource{{Ref: ref, Min: 4, Max: 300}}

	default:
		return nil, fmt.Errorf("chaos: unknown app %q", appName)
	}

	if err := topology.ApplyResilience(r.c, policies); err != nil {
		return nil, err
	}

	switch strat {
	case chaosStatic:
		// Nothing to drive.
	case chaosAuto:
		r.every(core.DefaultControlPeriod, func() { hw.Step(r.k.Now()) })
	case chaosSora:
		scg, serr := core.NewSCG(r.c, r.mon, core.SCGConfig{SLA: goodputRTT, Window: 45 * time.Second})
		if serr != nil {
			return nil, serr
		}
		if err := r.attachController(core.ControllerConfig{
			Model:   scg,
			Scaler:  hw,
			Managed: managed,
			Warmup:  30 * time.Second,
		}); err != nil {
			return nil, err
		}
	}

	plan, err := fault.NamedPlan(planName, targets, dur)
	if err != nil {
		return nil, err
	}
	eng, err := fault.New(r.c, plan)
	if err != nil {
		return nil, err
	}
	eng.Start()
	r.run(dur)

	warm := sim.Time(10 * time.Second)
	end := sim.Time(dur)
	res := &chaosResult{
		app:       appName,
		strategy:  strat,
		goodput:   r.c.Completions().GoodputRate(warm, end, goodputRTT),
		completed: r.c.Completed(),
		failed:    r.c.Failed(),
		dropped:   r.c.Dropped(),
		refused:   r.c.Refused(),
		lost:      r.c.LostCalls(),
		timedOut:  r.c.TimedOut(),
		retries:   r.c.Retries(),
		rejected:  r.c.BreakerRejections(),
		degraded:  r.c.Degraded(),
	}
	if p99, err := r.c.Completions().Percentile(99, warm, end); err == nil {
		res.p99 = p99
	}
	if good, degraded, violated := r.c.Completions().CountsByOutcome(warm, end, goodputRTT); good+degraded+violated > 0 {
		total := float64(good + degraded + violated)
		res.goodFrac = float64(good) / total
		res.degradedFrac = float64(degraded) / total
		res.violatedFrac = float64(violated) / total
	}
	for _, win := range eng.Windows() {
		res.rows = append(res.rows, chaosWindows(r, win, end)...)
	}
	return res, nil
}

// chaosWindows slices one fault window into before/during/after rows.
// The flanking intervals are as long as the window itself, clamped to
// the measured run.
func chaosWindows(r *rig, win fault.Window, end sim.Time) []chaosWindowRow {
	winEnd := win.End
	if winEnd == 0 || winEnd > end {
		winEnd = end // permanent fault: "during" runs to the end
	}
	length := winEnd - win.Start
	intervals := []struct {
		phase    chaosPhase
		from, to sim.Time
	}{
		{phaseBefore, max(0, win.Start-length), win.Start},
		{phaseDuring, win.Start, winEnd},
		{phaseAfter, winEnd, min(end, winEnd+length)},
	}
	var rows []chaosWindowRow
	for _, iv := range intervals {
		if iv.to <= iv.from {
			continue
		}
		row := chaosWindowRow{
			fault:   win.Fault.Kind.String(),
			target:  win.Target,
			phase:   iv.phase,
			from:    iv.from,
			to:      iv.to,
			goodput: r.c.Completions().GoodputRate(iv.from, iv.to, goodputRTT),
		}
		if p99, err := r.c.Completions().Percentile(99, iv.from, iv.to); err == nil {
			row.p99 = p99
		}
		good, degraded, violated := r.c.Completions().CountsByOutcome(iv.from, iv.to, goodputRTT)
		if total := good + degraded + violated; total > 0 {
			row.goodFrac = float64(good) / float64(total)
			row.degradedFrac = float64(degraded) / float64(total)
			row.violatedFrac = float64(violated) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows
}

// RunChaos executes the named fault plan over both applications and all
// three strategies (six independent deterministic runs) and prints the
// per-window comparison. It backs both the registered "chaos"
// experiment (plan "combo") and the sorabench/simrun -chaos flags.
func RunChaos(p Params, w io.Writer, planName string) error {
	dur := p.scale(3 * time.Minute)
	strategies := []chaosStrategy{chaosStatic, chaosAuto, chaosSora}
	type unit struct {
		app   string
		strat chaosStrategy
	}
	var units []unit
	for _, app := range chaosApps {
		for _, s := range strategies {
			units = append(units, unit{app, s})
		}
	}

	grp := p.Telemetry.Group("runs")
	results, err := parMap(p, len(units), func(i int) (*chaosResult, error) {
		u := units[i]
		label := u.app + "_" + sanitize(u.strat.String())
		res, rerr := runChaosUnit(p.unitParams(grp.Unit(i, label)), u.app, u.strat, planName, dur)
		if rerr != nil {
			return nil, fmt.Errorf("chaos %s/%v: %w", u.app, u.strat, rerr)
		}
		return res, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "fault plan %q over %v, goodput SLA %v\n", planName, dur, goodputRTT)
	var csv [][]string
	for _, res := range results {
		fmt.Fprintf(w, "\n=== %s / %s — p99 %.0f ms, goodput %.0f req/s, completed %d, failed %d, degraded %d\n",
			res.app, res.strategy, res.p99.Seconds()*1000, res.goodput, res.completed, res.failed, res.degraded)
		fmt.Fprintf(w, "    refused %d, lost %d, timed out %d, retries %d, breaker-rejected %d, dropped %d\n",
			res.refused, res.lost, res.timedOut, res.retries, res.rejected, res.dropped)
		fmt.Fprintf(w, "%-12s %-24s %-8s %10s %10s %8s %8s %8s %8s\n",
			"fault", "target", "phase", "t[s]", "p99[ms]", "gput", "good%", "degr%", "viol%")
		for _, row := range res.rows {
			fmt.Fprintf(w, "%-12s %-24s %-8s %4.0f-%-5.0f %10.0f %8.0f %7.1f%% %7.1f%% %7.1f%%\n",
				row.fault, row.target, row.phase,
				row.from.Seconds(), row.to.Seconds(),
				row.p99.Seconds()*1000, row.goodput,
				row.goodFrac*100, row.degradedFrac*100, row.violatedFrac*100)
			csv = append(csv, []string{
				res.app, sanitize(res.strategy.String()), row.fault, sanitize(row.target), string(row.phase),
				fmt.Sprintf("%g", row.from.Seconds()),
				fmt.Sprintf("%g", row.to.Seconds()),
				fmt.Sprintf("%g", row.p99.Seconds()*1000),
				fmt.Sprintf("%g", row.goodput),
				fmt.Sprintf("%.4f", row.goodFrac),
				fmt.Sprintf("%.4f", row.degradedFrac),
				fmt.Sprintf("%.4f", row.violatedFrac),
			})
		}
	}
	fmt.Fprintf(w, "\n(during a fault window Sora should hold the highest good fraction: the\n")
	fmt.Fprintf(w, " resilience layer converts outages into degraded or fast-failed requests\n")
	fmt.Fprintf(w, " and SCG re-tunes the bottleneck pool once the fault clears)\n")

	return writeCSVStrings(p, "chaos_"+sanitize(planName),
		[]string{"app", "strategy", "fault", "target", "phase",
			"from_s", "to_s", "p99_ms", "goodput_rps", "good_frac", "degraded_frac", "violated_frac"}, csv)
}
