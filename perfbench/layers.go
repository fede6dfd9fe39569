package main

import (
	"sort"
	"time"

	"elevprivacy/internal/obs"
)

// unitSpan names the root span of one unit of work in a traced run; the
// spans directly below it are the top-level layers.
const unitSpan = "unit"

// shareTolerance is how far the top-level layers' wall shares may fall
// short of the traced units' wall time. The gap is benchmark glue between
// layer calls (label bookkeeping, comparisons) that no span covers.
const shareTolerance = 0.05

// layerRow summarizes every span of one name.
type layerRow struct {
	name  string
	spans int
	busy  time.Duration // sum of span durations
	wall  time.Duration // union of span intervals
	self  time.Duration // sum over spans of duration minus covered children
	// top is the union of the spans that are direct children of a unit
	// span: the layer's wall share at the top level.
	top time.Duration
}

// layerTable groups spans by name. unitWall is the summed duration of the
// unit spans; topWall sums the top-level wall shares. Top-level calls run
// one after another inside a unit, so topWall accounts for unitWall up to
// the glue between them.
func layerTable(spans []obs.SpanRecord) (rows []layerRow, unitWall, topWall time.Duration) {
	units := map[uint64]bool{}
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.Name == unitSpan {
			units[s.ID] = true
			unitWall += s.Duration()
		}
		children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
	}
	byName := map[string]*layerRow{}
	ivs, topIvs := map[string][]interval{}, map[string][]interval{}
	for _, s := range spans {
		if s.Name == unitSpan {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			byName[s.Name] = r
		}
		r.spans++
		r.busy += s.Duration()
		r.self += selfTime(interval{s.Start, s.End}, children[s.ID])
		ivs[s.Name] = append(ivs[s.Name], interval{s.Start, s.End})
		if units[s.Parent] {
			topIvs[s.Name] = append(topIvs[s.Name], interval{s.Start, s.End})
		}
	}
	for name, r := range byName {
		r.wall = unionDuration(ivs[name])
		r.top = unionDuration(topIvs[name])
		topWall += r.top
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if (rows[i].top > 0) != (rows[j].top > 0) {
			return rows[i].top > 0
		}
		return rows[i].name < rows[j].name
	})
	return rows, unitWall, topWall
}

// traceSummary turns the tracer's spans into the layer table, notes it in
// the report and returns the rows by name. It also checks that the
// top-level layers account for the units' wall time within
// shareTolerance. untracedWall is the same units' wall time measured
// without tracing, for the overhead figure.
// checkShares is false for open-loop phases, where the system idles
// between arrivals and no set of layers covers the wall.
func (e *runEnv) traceSummary(units int, untracedWall time.Duration, checkShares bool) map[string]layerRow {
	rows, unitWall, topWall := layerTable(e.tracer.Snapshot())
	r := e.rep
	r.note("layer table (%d traced units; busy = sum of spans, wall = their union, share = union of top-level spans / unit wall):", units)
	r.note("  %-34s %6s %10s %10s %7s %10s", "layer", "spans", "busy_s", "wall_s", "share", "self_s")
	out := map[string]layerRow{}
	for _, row := range rows {
		out[row.name] = row
		mark := "  "
		if row.top > 0 {
			mark = "* "
		}
		share := 0.0
		if unitWall > 0 {
			share = row.top.Seconds() / unitWall.Seconds()
		}
		r.note("%s%-34s %6d %10.4f %10.4f %6.1f%% %10.4f", mark, row.name, row.spans,
			row.busy.Seconds(), row.wall.Seconds(), 100*share, row.self.Seconds())
	}
	gap := 1.0
	if unitWall > 0 {
		gap = 1 - topWall.Seconds()/unitWall.Seconds()
	}
	r.note("top-level (*) wall shares sum to %.4f s of %.4f s traced unit wall (gap %.2f%%, tolerance %.0f%%)",
		topWall.Seconds(), unitWall.Seconds(), 100*gap, 100*shareTolerance)
	if checkShares {
		r.check(gap >= -0.001 && gap <= shareTolerance,
			"top-level wall shares cover %.2f%% of unit wall, outside the %.0f%% tolerance", 100*(1-gap), 100*shareTolerance)
	}
	perUnit := func(d time.Duration) float64 { return d.Seconds() / float64(units) }
	r.set("trace.wall_s", perUnit(unitWall))
	r.set("trace.untraced_wall_s", perUnit(untracedWall))
	r.set("trace.overhead_s", perUnit(unitWall-untracedWall))
	r.set("trace.share_gap_frac", gap)
	r.note("tracing overhead: traced minus untraced wall = %.4f s per unit (%.4f vs %.4f)",
		perUnit(unitWall-untracedWall), perUnit(unitWall), perUnit(untracedWall))
	return out
}

// layerSeconds is a layer's busy time per traced unit.
func layerSeconds(rows map[string]layerRow, name string, units int) float64 {
	return rows[name].busy.Seconds() / float64(units)
}
