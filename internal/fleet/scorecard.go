package fleet

import (
	"fmt"
	"io"
	"strings"

	"odyssey/internal/textplot"
)

// The fleet scorecard: a deterministic text report over the merged
// aggregate. Everything printed here derives from the aggregate and the
// run geometry — no wall-clock, no worker count — so the determinism gate
// can compare scorecards byte for byte across -parallel widths.

// dashboardQs are the percentile sample points of the dashboard curves.
var dashboardQs = []float64{0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}

// Scorecard renders the fleet report to w. withDashboard adds the
// textplot percentile dashboards under the summary tables.
func (r *Result) Scorecard(w io.Writer, withDashboard bool) {
	_, _ = io.WriteString(w, r.ScorecardString(withDashboard))
}

// ScorecardString renders the scorecard. Builder writes cannot fail, so
// the renderer is infallible; Scorecard adapts it to an io.Writer.
func (r *Result) ScorecardString(withDashboard bool) string {
	var b strings.Builder
	r.render(&b, withDashboard)
	return b.String()
}

func (r *Result) render(w *strings.Builder, withDashboard bool) {
	a := r.Agg
	fmt.Fprintf(w, "fleet scorecard: population=%s seed=%d devices=%d shards=%d\n",
		r.Opts.Population.Name, r.Opts.Seed, r.Opts.Devices, r.shards())
	if r.Interrupted {
		fmt.Fprintf(w, "PARTIAL: %d of %d shards reduced (%d skipped after interrupt)\n",
			r.RanShards+r.ReplayedShards, r.shards(), r.SkippedShards)
	}
	if a.Sessions == 0 {
		fmt.Fprintln(w, "no sessions")
		return
	}
	fmt.Fprintf(w, "sessions=%d goal-met=%d (%.2f%%) goal-miss-rate=%.4f\n",
		a.Sessions, a.GoalMet, 100*float64(a.GoalMet)/float64(a.Sessions), a.GoalMissRate())
	fmt.Fprintf(w, "quarantines=%d (rate %.4f/session) restarts=%d adaptations=%d fault-events=%d\n",
		a.Quarantines, a.QuarantineRate(), a.Restarts, a.Adaptations, a.FaultEvents)
	if a.ContainedPanics+a.ContainedStalls > 0 {
		fmt.Fprintf(w, "contained: panics=%d stalls=%d (counted as goal misses; partial metrics not folded)\n",
			a.ContainedPanics, a.ContainedStalls)
	}
	fmt.Fprintf(w, "session length: p50=%.1fm p95=%.1fm  start stagger: p50=%.1fm p95=%.1fm  avg concurrency=%.1f\n",
		a.SessionMin.Quantile(0.50), a.SessionMin.Quantile(0.95),
		a.StartMin.Quantile(0.50), a.StartMin.Quantile(0.95),
		a.avgConcurrency(r.Opts.Population))
	fmt.Fprintf(w, "residual J: p50=%.0f p95=%.0f p99=%.0f max-err=±%.1f%%\n",
		a.Residual.Quantile(0.50), a.Residual.Quantile(0.95), a.Residual.Quantile(0.99),
		100*a.Residual.RelErrBound())
	fmt.Fprintf(w, "energy/session J: mean=%.0f min=%.0f max=%.0f  retry J: mean=%.1f max=%.0f\n",
		a.Energy.Mean(), a.Energy.Min, a.Energy.Max, a.RetryJ.Mean(), a.RetryJ.Max)

	fmt.Fprintln(w, "\nper-principal energy (J/session):")
	for _, k := range sortedKeys(a.ByPrincipal) {
		p := a.ByPrincipal[k]
		fmt.Fprintf(w, "  %-14s mean=%9.1f max=%9.1f (%d sessions)\n", k, p.Mean(), p.Max, p.Count)
	}

	for _, grp := range []struct {
		label string
		names []string
		m     map[string]*GroupAgg
	}{
		{"device class", r.classOrder(), a.ByClass},
		{"behavior", r.behaviorOrder(), a.ByBehavior},
	} {
		fmt.Fprintf(w, "\nby %s:\n", grp.label)
		fmt.Fprintf(w, "  %-12s %9s %8s %10s %10s %10s\n", grp.label, "sessions", "met%", "resid-p50", "resid-p95", "energy")
		for _, name := range grp.names {
			g := grp.m[name]
			if g == nil {
				continue
			}
			met := 0.0
			if g.Sessions > 0 {
				met = 100 * float64(g.GoalMet) / float64(g.Sessions)
			}
			fmt.Fprintf(w, "  %-12s %9d %7.2f%% %10.0f %10.0f %10.0f\n",
				name, g.Sessions, met, g.Residual.Quantile(0.50), g.Residual.Quantile(0.95), g.Energy.Mean())
		}
	}

	if withDashboard {
		fmt.Fprintln(w)
		r.dashboard(w)
	}
}

// shards reports the effective shard count of the run geometry.
func (r *Result) shards() int {
	s := r.Opts.Shards
	if s <= 0 {
		s = DefaultShards
	}
	if r.Opts.Devices > 0 && s > r.Opts.Devices {
		s = r.Opts.Devices
	}
	return s
}

// classOrder lists device-class names in population declaration order —
// the scorecard's stable row order.
func (r *Result) classOrder() []string {
	names := make([]string, len(r.Opts.Population.Classes))
	for i := range r.Opts.Population.Classes {
		names[i] = r.Opts.Population.Classes[i].Name
	}
	return names
}

func (r *Result) behaviorOrder() []string {
	names := make([]string, len(r.Opts.Population.Behaviors))
	for i := range r.Opts.Population.Behaviors {
		names[i] = r.Opts.Population.Behaviors[i].Name
	}
	return names
}

// avgConcurrency estimates the mean number of concurrently live sessions
// across the churn horizon: total session-minutes over horizon minutes.
// It is exact for the aggregate (sums are mergeable) even though no two
// rigs ever actually share a clock.
func (a *Aggregate) avgConcurrency(p Population) float64 {
	if p.Horizon <= 0 {
		return float64(a.Sessions)
	}
	return a.SessionMin.ApproxSum() / p.Horizon.Minutes()
}

// dashboard renders the percentile dashboards: residual energy per device
// class and session length fleet-wide, each as quantile curves.
func (r *Result) dashboard(w *strings.Builder) {
	a := r.Agg
	resid := textplot.New("residual energy by percentile (J)", 64, 12)
	resid.XLabel = "percentile"
	resid.YLabel = "J"
	fleetX, fleetY := quantileCurve(a.Residual)
	resid.Add(textplot.Series{Name: "fleet", X: fleetX, Y: fleetY})
	for _, name := range r.classOrder() {
		g := a.ByClass[name]
		if g == nil || g.Residual.Count() == 0 {
			continue
		}
		x, y := quantileCurve(g.Residual)
		resid.Add(textplot.Series{Name: name, X: x, Y: y})
	}
	w.WriteString(resid.String())

	length := textplot.New("session length by percentile (min)", 64, 10)
	length.XLabel = "percentile"
	length.YLabel = "min"
	lx, ly := quantileCurve(a.SessionMin)
	length.Add(textplot.Series{Name: "fleet", X: lx, Y: ly})
	sx, sy := quantileCurve(a.StartMin)
	length.Add(textplot.Series{Name: "start-offset", X: sx, Y: sy})
	w.WriteString(length.String())
}

// quantileCurve samples a sketch at the dashboard percentiles.
func quantileCurve(s *Sketch) (x, y []float64) {
	x = make([]float64, len(dashboardQs))
	y = make([]float64, len(dashboardQs))
	for i, q := range dashboardQs {
		x[i] = 100 * q
		y[i] = s.Quantile(q)
	}
	return x, y
}
