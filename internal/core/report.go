package core

import (
	"fmt"
	"io"
	"math"
	"sort"

	"powder/internal/obs"
)

// reportTopMoves bounds the per-move rows of the attribution table; the
// remaining moves are folded into one aggregate row so the columns still
// sum to the run totals.
const reportTopMoves = 10

// WriteReport renders a human-readable markdown explanation of one run:
// the headline numbers, the attribution table of the best moves, the
// predicted-vs-realized calibration of the gain estimator, the
// reject-reason breakdown, and the permissibility-proof effort.
func WriteReport(w io.Writer, name string, res *Result) {
	fmt.Fprintf(w, "# POWDER run report — %s\n\n", name)
	fmt.Fprintf(w, "Power %.6g -> %.6g (**-%.2f%%**), area %.0f -> %.0f, delay %.3g -> %.3g.\n",
		res.Initial.Power, res.Final.Power, res.PowerReductionPct(),
		res.Initial.Area, res.Final.Area, res.InitialDelay, res.FinalDelay)
	fmt.Fprintf(w, "%d substitutions over %d harvests (%d candidates examined), stopped: %s, runtime %.3gs.\n\n",
		res.Applied, res.Harvests, res.Candidates, res.Stopped, res.Runtime.Seconds())

	led := res.Ledger
	if led != nil && led.Activity != "" {
		fmt.Fprintf(w, "Activity model: %s — all gains above are under this workload, not the uniform assumption.\n\n",
			led.Activity)
	}
	if led != nil {
		writeMoveTable(w, led)
		writeCalibration(w, led)
		writeNodeTable(w, led)
	}
	writeRejects(w, res, led)
	writeRegionTable(w, res, led)
	writeConflictHeatmap(w, res)
	writeProofLatency(w, res)
}

// writeRegionTable renders the parallel engine's per-region breakdown:
// how each fanout region contributed moves and gain (from the ledger's
// Region attribution) plus the run's scheduler summary — utilization,
// commit share, and barrier skew. Sequential runs skip the section.
func writeRegionTable(w io.Writer, res *Result, led *obs.LedgerSummary) {
	par := res.Parallel
	if par == nil {
		return
	}
	fmt.Fprintf(w, "## Parallel regions\n\n")
	fmt.Fprintf(w, "- workers: %d, rounds: %d, regions: %d, proposals: %d\n",
		par.Workers, par.Rounds, par.Regions, par.Proposals)
	fmt.Fprintf(w, "- conflicts: %d (%d serial re-proofs)\n",
		par.Conflicts, par.Replays)
	fmt.Fprintf(w, "- worker utilization: %.1f%% of %d×%.3gs capacity, commit share %.1f%%, max barrier skew %.3gs\n",
		100*par.BusyFrac(), par.Workers, par.ParallelSeconds,
		100*par.CommitShare(), par.MaxBarrierSkewSeconds)
	if led == nil {
		fmt.Fprintf(w, "\n")
		return
	}
	// Region attribution over the retained ledger entries (1-based
	// regions; 0 = sequential/master). The gains are exact for retained
	// moves; entries beyond the retention cap are uncounted here but the
	// scheduler totals above remain exact.
	type regionRow struct {
		applied, rejected   int
		predicted, realized float64
	}
	rows := map[int]*regionRow{}
	get := func(region int) *regionRow {
		r := rows[region]
		if r == nil {
			r = &regionRow{}
			rows[region] = r
		}
		return r
	}
	for _, m := range led.Moves {
		r := get(m.Region)
		r.applied++
		r.predicted += m.PredictedGain
		r.realized += m.RealizedGain
	}
	for _, m := range led.Rejects {
		get(m.Region).rejected++
	}
	if len(rows) == 0 {
		fmt.Fprintf(w, "\n")
		return
	}
	regions := make([]int, 0, len(rows))
	for r := range rows {
		regions = append(regions, r)
	}
	sort.Ints(regions)
	fmt.Fprintf(w, "\n| region | applied | rejected | predicted | realized |\n")
	fmt.Fprintf(w, "|-------:|--------:|---------:|----------:|---------:|\n")
	for _, region := range regions {
		r := rows[region]
		label := fmt.Sprintf("r%d", region)
		if region == 0 {
			label = "master"
		}
		fmt.Fprintf(w, "| %s | %d | %d | %.6g | %.6g |\n",
			label, r.applied, r.rejected, r.predicted, r.realized)
	}
	fmt.Fprintf(w, "\n")
}

// writeConflictHeatmap renders the parallel engine's conflict
// attribution: which region pairs collided, over which nodes, and how
// (the bounded conflict ledger carried on ParallelStats). Runs without
// conflicts skip the section.
func writeConflictHeatmap(w io.Writer, res *Result) {
	if res.Parallel == nil || res.Parallel.ConflictLedger == nil {
		return
	}
	cl := res.Parallel.ConflictLedger
	fmt.Fprintf(w, "## Conflict heatmap\n\n")
	kinds := make([]string, 0, len(cl.ByKind))
	for k := range cl.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "%d conflicts", cl.Total)
	for i, k := range kinds {
		if i == 0 {
			fmt.Fprintf(w, " (")
		} else {
			fmt.Fprintf(w, ", ")
		}
		fmt.Fprintf(w, "%s %d", k, cl.ByKind[k])
	}
	if len(kinds) > 0 {
		fmt.Fprintf(w, ")")
	}
	fmt.Fprintf(w, ".\n\n")
	fmt.Fprintf(w, "| regions | node | conflicts | kinds |\n")
	fmt.Fprintf(w, "|---------|------|----------:|-------|\n")
	top := len(cl.Cells)
	if top > reportTopMoves {
		top = reportTopMoves
	}
	for _, c := range cl.Cells[:top] {
		pair := fmt.Sprintf("r%d-r%d", c.RegionA, c.RegionB)
		if c.RegionA == 0 {
			pair = fmt.Sprintf("r%d", c.RegionB)
		}
		ck := make([]string, 0, len(c.Kinds))
		for k := range c.Kinds {
			ck = append(ck, k)
		}
		sort.Strings(ck)
		kindCol := ""
		for i, k := range ck {
			if i > 0 {
				kindCol += ", "
			}
			kindCol += fmt.Sprintf("%s %d", k, c.Kinds[k])
		}
		fmt.Fprintf(w, "| %s | %s | %d | %s |\n", pair, c.Node, c.Count, kindCol)
	}
	if rest := len(cl.Cells) - top; rest > 0 {
		fmt.Fprintf(w, "| | (%d more cells) | | |\n", rest)
	}
	if cl.DroppedCells > 0 {
		fmt.Fprintf(w, "\n(%d conflicts fell in cells beyond the ledger bound.)\n", cl.DroppedCells)
	}
	fmt.Fprintf(w, "\n")
}

// writeMoveTable renders the top moves by realized gain plus an exact
// remainder row: the realized column sums to the headline power drop.
func writeMoveTable(w io.Writer, led *obs.LedgerSummary) {
	fmt.Fprintf(w, "## Top moves by realized gain\n\n")
	if len(led.Moves) == 0 {
		fmt.Fprintf(w, "No substitutions were applied.\n\n")
		return
	}
	moves := append([]obs.LedgerAttempt(nil), led.Moves...)
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].RealizedGain != moves[j].RealizedGain {
			return moves[i].RealizedGain > moves[j].RealizedGain
		}
		return moves[i].Seq < moves[j].Seq
	})
	fmt.Fprintf(w, "| # | kind | target <- source | predicted | realized | proof conflicts |\n")
	fmt.Fprintf(w, "|--:|------|------------------|----------:|---------:|----------------:|\n")
	top := len(moves)
	if top > reportTopMoves {
		top = reportTopMoves
	}
	var shownPred, shownReal float64
	for _, m := range moves[:top] {
		conflicts := int64(0)
		if m.Proof != nil {
			conflicts = m.Proof.Conflicts
		}
		fmt.Fprintf(w, "| %d | %s | %s <- %s | %.6g | %.6g | %d |\n",
			m.Seq, m.Kind, m.Target, m.Source, m.PredictedGain, m.RealizedGain, conflicts)
		shownPred += m.PredictedGain
		shownReal += m.RealizedGain
	}
	rest := led.Applied - top
	if rest > 0 {
		// The dropped-moves remainder uses the exact ledger totals, so the
		// table stays a complete decomposition even past the retention cap.
		fmt.Fprintf(w, "| | | (%d more moves) | %.6g | %.6g | |\n",
			rest, led.PredictedGain-shownPred, led.RealizedGain-shownReal)
	}
	fmt.Fprintf(w, "| | | **total (%d moves)** | **%.6g** | **%.6g** | |\n\n",
		led.Applied, led.PredictedGain, led.RealizedGain)
}

// writeCalibration compares the gain estimator against the measured
// per-move power drops over the retained moves.
func writeCalibration(w io.Writer, led *obs.LedgerSummary) {
	fmt.Fprintf(w, "## Predicted vs realized\n\n")
	if len(led.Moves) == 0 {
		fmt.Fprintf(w, "No applied moves to calibrate against.\n\n")
		return
	}
	n := float64(len(led.Moves))
	var sumErr, sumAbs, maxAbs float64
	var sp, sr, spp, srr, spr float64
	for _, m := range led.Moves {
		e := m.PredictedGain - m.RealizedGain
		sumErr += e
		a := math.Abs(e)
		sumAbs += a
		if a > maxAbs {
			maxAbs = a
		}
		sp += m.PredictedGain
		sr += m.RealizedGain
		spp += m.PredictedGain * m.PredictedGain
		srr += m.RealizedGain * m.RealizedGain
		spr += m.PredictedGain * m.RealizedGain
	}
	fmt.Fprintf(w, "- moves: %d (of %d applied; %d beyond the retention cap)\n",
		len(led.Moves), led.Applied, led.DroppedMoves)
	fmt.Fprintf(w, "- mean error (predicted - realized): %.6g\n", sumErr/n)
	fmt.Fprintf(w, "- mean |error|: %.6g, max |error|: %.6g\n", sumAbs/n, maxAbs)
	if sr != 0 {
		fmt.Fprintf(w, "- aggregate ratio predicted/realized: %.4g\n", sp/sr)
	}
	// Pearson correlation over the retained moves; meaningless for a
	// single move or a degenerate (constant) column.
	den := math.Sqrt((spp - sp*sp/n) * (srr - sr*sr/n))
	if n > 1 && den > 0 {
		fmt.Fprintf(w, "- correlation: %.4g\n", (spr-sp*sr/n)/den)
	}
	fmt.Fprintf(w, "\n")
}

// writeNodeTable renders where the realized gain landed structurally.
func writeNodeTable(w io.Writer, led *obs.LedgerSummary) {
	if len(led.ByNode) == 0 {
		return
	}
	fmt.Fprintf(w, "## Top nodes by attributed gain\n\n")
	fmt.Fprintf(w, "| node | moves | realized gain |\n")
	fmt.Fprintf(w, "|------|------:|--------------:|\n")
	top := len(led.ByNode)
	if top > reportTopMoves {
		top = reportTopMoves
	}
	for _, a := range led.ByNode[:top] {
		fmt.Fprintf(w, "| %s | %d | %.6g |\n", a.Node, a.Moves, a.Realized)
	}
	fmt.Fprintf(w, "\n")
}

// writeRejects renders the reject-reason breakdown from the exact
// counts, which include the stale drops the ledger keeps no entry for.
func writeRejects(w io.Writer, res *Result, led *obs.LedgerSummary) {
	if len(res.Rejects) == 0 {
		return
	}
	fmt.Fprintf(w, "## Rejected candidates\n\n")
	fmt.Fprintf(w, "| reason | count |\n")
	fmt.Fprintf(w, "|--------|------:|\n")
	reasons := make([]string, 0, len(res.Rejects))
	for r := range res.Rejects {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	total := 0
	for _, r := range reasons {
		fmt.Fprintf(w, "| %s | %d |\n", r, res.Rejects[r])
		total += res.Rejects[r]
	}
	fmt.Fprintf(w, "| **total** | **%d** |\n\n", total)
	if led != nil && led.DroppedRejects > 0 {
		fmt.Fprintf(w, "(%d rejected entries beyond the ledger retention cap; the counts above remain exact.)\n\n",
			led.DroppedRejects)
	}
}

// writeProofLatency renders the permissibility-proof effort: the check
// counts from Result and the latency quantiles of the proof records the
// ledger retained (one per proved candidate, escalations included).
func writeProofLatency(w io.Writer, res *Result) {
	if res.CheckStats.Checks == 0 {
		return
	}
	fmt.Fprintf(w, "## Permissibility proofs\n\n")
	fmt.Fprintf(w, "- checks: %d (permissible %d, refuted %d, aborted %d)\n",
		res.CheckStats.Checks, res.CheckStats.Permissible,
		res.CheckStats.Refuted, res.CheckStats.Aborted)
	fmt.Fprintf(w, "- SAT effort: %d conflicts, %d decisions\n",
		res.CheckStats.Conflicts, res.CheckStats.Decisions)
	if res.Escalation.Retries > 0 {
		fmt.Fprintf(w, "- budget escalations: %d retries (recovered %d, refuted %d, exhausted %d)\n",
			res.Escalation.Retries, res.Escalation.Permissible,
			res.Escalation.Refuted, res.Escalation.Exhausted)
	}
	h := obs.NewHistogram()
	if led := res.Ledger; led != nil {
		for _, entries := range [][]obs.LedgerAttempt{led.Moves, led.Rejects} {
			for _, a := range entries {
				if a.Proof != nil {
					h.Observe(a.Proof.Seconds)
				}
			}
		}
	}
	if h.Count() > 0 {
		fmt.Fprintf(w, "- proof latency: p50 %.3gs, p90 %.3gs, p99 %.3gs, max %.3gs over %d proofs\n",
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max(), h.Count())
	}
	fmt.Fprintf(w, "\n")
}
