package experiment

import (
	"fmt"
	"io"
	"time"

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

// chaosStrategySpecs is the chaos strategy table: each strategy's
// output name, whether the scenario's hardware autoscaler runs, and the
// concurrency model on top of it.
var chaosStrategySpecs = [...]struct {
	name      string
	autoscale bool
	model     modelKind
}{
	chaosStatic: {"static", false, modelNone},
	chaosAuto:   {"autoscaler", true, modelNone},
	chaosSora:   {"Sora", true, modelSCG},
}

func (s chaosStrategy) String() string {
	if s < chaosStatic || int(s) >= len(chaosStrategySpecs) {
		return fmt.Sprintf("chaosStrategy(%d)", int(s))
	}
	return chaosStrategySpecs[s].name
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
	runSummary
	fault, target string
	phase         chaosPhase
	from, to      sim.Time
}

// chaosResult carries one run's windows, its summary past warmup and
// whole-run counters.
type chaosResult struct {
	runSummary
	app      string // app, or control-plane profile
	strategy chaosStrategy
	rows     []chaosWindowRow

	completed uint64
	failed    uint64
	dropped   uint64
	refused   uint64
	lost      uint64
	timedOut  uint64
	retries   uint64
	rejected  uint64
	degraded  uint64
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
	sc := chaosScenario{plan: planName, warm: sim.Time(10 * time.Second)}
	var policies []topology.EdgePolicy
	var err error
	switch appName {
	case "sockshop":
		// The Cart scenario of Figures 10-11 with the pre-profiled
		// ~10-thread pool.
		sc.r, sc.managed, err = newCartRig(p, 10, workload.ConstantUsers(900))
		sc.autoscaler = func(r *rig) (core.HardwareScaler, error) { return cartFIRM(r, goodputRTT) }
		policies, sc.targets = topology.SockShopResilience(), topology.SockShopFaultTargets()
	case "socialnet":
		// The Figure-12 read path with its static 15-connection pool.
		cfg := topology.DefaultSocialNetwork()
		cfg.PostStorageConns = 15
		cfg.PostStorageCores = 2
		sc.r, sc.managed, err = newReadPathRig(p, cfg, workload.ConstantUsers(1500), nil)
		sc.autoscaler = readPathHPA
		policies, sc.targets = topology.SocialNetworkResilience(), topology.SocialNetworkFaultTargets()
	default:
		return nil, fmt.Errorf("chaos: unknown app %q", appName)
	}
	if err != nil {
		return nil, err
	}
	if err := topology.ApplyResilience(sc.r.c, policies); err != nil {
		return nil, err
	}
	return sc.run(appName, strat, dur)
}

// chaosScenario is one built chaos scenario awaiting its strategy: the
// rig, the hardware autoscaler the strategies run, the pool Sora
// adapts, the named fault plan with its targets, and the warmup the
// whole-run summary skips.
type chaosScenario struct {
	r          *rig
	autoscaler func(*rig) (core.HardwareScaler, error)
	managed    core.ManagedResource
	plan       string
	targets    fault.Targets
	warm       sim.Time
}

// run wires the strategy, runs the scenario under the fault plan and
// collects the result under the given run name.
func (sc chaosScenario) run(name string, strat chaosStrategy, dur time.Duration) (*chaosResult, error) {
	r, spec := sc.r, chaosStrategySpecs[strat]
	var hw core.HardwareScaler
	if spec.autoscale {
		var err error
		if hw, err = sc.autoscaler(r); err != nil {
			return nil, err
		}
	}
	if err := r.manage(hw, spec.model, core.SCGConfig{SLA: goodputRTT, Window: 45 * time.Second}, sc.managed, 30*time.Second); err != nil {
		return nil, err
	}
	plan, err := fault.NamedPlan(sc.plan, sc.targets, dur)
	if err != nil {
		return nil, err
	}
	eng, err := fault.New(r.c, plan)
	if err != nil {
		return nil, err
	}
	eng.Start()
	r.run(dur)

	end := sim.Time(dur)
	res := &chaosResult{
		runSummary: r.summarize(sc.warm, end, goodputRTT),
		app:        name,
		strategy:   strat,
		completed:  r.c.Completed(),
		failed:     r.c.Failed(),
		dropped:    r.c.Dropped(),
		refused:    r.c.Refused(),
		lost:       r.c.LostCalls(),
		timedOut:   r.c.TimedOut(),
		retries:    r.c.Retries(),
		rejected:   r.c.BreakerRejections(),
		degraded:   r.c.Degraded(),
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
			runSummary: r.summarize(iv.from, iv.to, goodputRTT),
			fault:      win.Fault.Kind.String(),
			target:     win.Target,
			phase:      iv.phase,
			from:       iv.from,
			to:         iv.to,
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
	results, err := runChaosGrid(p, "chaos", chaosApps, func(p Params, app int, strat chaosStrategy) (*chaosResult, error) {
		return runChaosUnit(p, chaosApps[app], strat, planName, dur)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fault plan %q over %v, goodput SLA %v\n", planName, dur, goodputRTT)
	return chaosReport{
		faultWidth:  12,
		targetWidth: 24,
		nameColumn:  "app",
		csvName:     "chaos_" + sanitize(planName),
		note: "(during a fault window Sora should hold the highest good fraction: the\n" +
			" resilience layer converts outages into degraded or fast-failed requests\n" +
			" and SCG re-tunes the bottleneck pool once the fault clears)\n",
	}.write(p, w, results)
}

// runChaosGrid runs one unit per (name, strategy) pair — static,
// autoscaler, Sora for each name — on the worker pool, each under its
// own "<name>_<strategy>" telemetry unit. Results are in grid order.
func runChaosGrid(p Params, tool string, names []string, unit func(p Params, name int, strat chaosStrategy) (*chaosResult, error)) ([]*chaosResult, error) {
	strategies := []chaosStrategy{chaosStatic, chaosAuto, chaosSora}
	grp := p.Telemetry.Group("runs")
	return parMap(p, len(names)*len(strategies), func(i int) (*chaosResult, error) {
		name, strat := names[i/len(strategies)], strategies[i%len(strategies)]
		res, err := unit(p.unitParams(grp.Unit(i, name+"_"+sanitize(strat.String()))), i/len(strategies), strat)
		if err != nil {
			return nil, fmt.Errorf("%s %s/%v: %w", tool, name, strat, err)
		}
		return res, nil
	})
}

// chaosReport lays out the per-run window tables of a chaos-style
// experiment and their CSV.
type chaosReport struct {
	runSuffix               string // follows the run name in each heading
	faultWidth, targetWidth int    // table column widths
	nameColumn, csvName     string // the CSV's run-name header and file name
	note                    string // printed after the tables
}

// write prints every run's counters and window rows, then the note, and
// writes all rows as one CSV.
func (rep chaosReport) write(p Params, w io.Writer, results []*chaosResult) error {
	var csv [][]string
	for _, res := range results {
		fmt.Fprintf(w, "\n=== %s%s / %s — p99 %.0f ms, goodput %.0f req/s, completed %d, failed %d, degraded %d\n",
			res.app, rep.runSuffix, res.strategy, res.p99.Seconds()*1000, res.goodput, res.completed, res.failed, res.degraded)
		fmt.Fprintf(w, "    refused %d, lost %d, timed out %d, retries %d, breaker-rejected %d, dropped %d\n",
			res.refused, res.lost, res.timedOut, res.retries, res.rejected, res.dropped)
		fmt.Fprintf(w, "%-*s %-*s %-8s %10s %10s %8s %8s %8s %8s\n",
			rep.faultWidth, "fault", rep.targetWidth, "target", "phase", "t[s]", "p99[ms]", "gput", "good%", "degr%", "viol%")
		for _, row := range res.rows {
			fmt.Fprintf(w, "%-*s %-*s %-8s %4.0f-%-5.0f %10.0f %8.0f %7.1f%% %7.1f%% %7.1f%%\n",
				rep.faultWidth, row.fault, rep.targetWidth, row.target, row.phase,
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
	fmt.Fprint(w, "\n"+rep.note)
	return writeCSVStrings(p, rep.csvName,
		[]string{rep.nameColumn, "strategy", "fault", "target", "phase",
			"from_s", "to_s", "p99_ms", "goodput_rps", "good_frac", "degraded_frac", "violated_frac"}, csv)
}
