//! Scheduler work counters, mirroring the measurements of §6.

use std::ops::AddAssign;
use std::time::Duration;

/// Counters describing one scheduling run (one loop, possibly several II
/// attempts). §6 reports these aggregated over the 1,525-loop corpus:
/// central-loop iterations, Step 3 (ejection) invocations, operations
/// ejected, and Step 6 (II increment) restarts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Iterations of the scheduler's central loop (§4.2), i.e. operations
    /// placed, counting re-placements after ejection.
    pub central_iterations: u64,
    /// Times Step 3 ran: no conflict-free issue cycle existed and room had
    /// to be made by ejection.
    pub step3_invocations: u64,
    /// Operations ejected from the partial schedule.
    pub ejected_ops: u64,
    /// Times Step 6 ran: the attempt was abandoned and II incremented.
    pub step6_restarts: u64,
    /// Number of II values attempted (at least 1).
    pub attempts: u32,
    /// Entries of the 32-bit `MinDist` mirrors read by bounds maintenance:
    /// `n` per placed node folded by each from-scratch Estart or Lstart
    /// refresh (plus the `n` of the `Stop` column seeding each Lstart
    /// refresh), two per ready node in each post-placement tightening,
    /// and `2n` per forcing sweep for dependence violations (`n` nodes
    /// including `Start`/`Stop`). Deterministic for a given schedule run.
    pub bounds_cells_touched: u64,
    /// Sum over central-loop iterations of the ready-set length scanned by
    /// `choose` — the selection cost the indexed ready set bounds.
    pub choose_scan_len: u64,
    /// Wall-clock time spent scheduling.
    pub elapsed: Duration,
}

impl SchedStats {
    /// True if the loop scheduled without any backtracking — §6: "for 889
    /// of the loops ... no backtracking was required".
    pub fn backtrack_free(&self) -> bool {
        self.step3_invocations == 0 && self.step6_restarts == 0
    }

    /// Total backtracking work: Step 3 (ejection) invocations plus Step 6
    /// (II increment) restarts — the quality observatory's per-loop
    /// backtrack count.
    pub fn backtracks(&self) -> u64 {
        self.step3_invocations + self.step6_restarts
    }
}

impl AddAssign<&SchedStats> for SchedStats {
    fn add_assign(&mut self, rhs: &SchedStats) {
        self.central_iterations += rhs.central_iterations;
        self.step3_invocations += rhs.step3_invocations;
        self.ejected_ops += rhs.ejected_ops;
        self.step6_restarts += rhs.step6_restarts;
        self.attempts += rhs.attempts;
        self.bounds_cells_touched += rhs.bounds_cells_touched;
        self.choose_scan_len += rhs.choose_scan_len;
        self.elapsed += rhs.elapsed;
    }
}

/// Tallies of the §5.2 bidirectional-heuristic decisions and the §4.3
/// dynamic-priority tie statistics, aggregated over candidate selections.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Candidate had zero slack, so no direction choice arose (§5.2 reports
    /// 46%).
    pub zero_slack: u64,
    /// Placed early: no stretchable inputs or outputs at all.
    pub isolated_early: u64,
    /// Placed early: more stretchable inputs than outputs (paper: 30%).
    pub early_more_inputs: u64,
    /// Placed late: fewer stretchable inputs than outputs (paper: 4%).
    pub late_more_outputs: u64,
    /// Stretchability tie broken toward the better-placed neighbour group
    /// (paper: 20% ties), split by the resulting direction.
    pub tie_early: u64,
    /// See [`tie_early`](Self::tie_early).
    pub tie_late: u64,
    /// The minimum dynamic priority identified a unique operation (§4.3
    /// reports 48%).
    pub unique_min_priority: u64,
    /// Total candidate selections.
    pub selections: u64,
}

impl DecisionStats {
    /// Total direction decisions that actually had slack to spend.
    pub fn with_slack(&self) -> u64 {
        self.isolated_early
            + self.early_more_inputs
            + self.late_more_outputs
            + self.tie_early
            + self.tie_late
    }

    /// Early placements among decisions with slack (the paper observes the
    /// heuristics "favor an early placement twice as often as a late
    /// placement").
    pub fn early(&self) -> u64 {
        self.isolated_early + self.early_more_inputs + self.tie_early
    }

    /// Late placements among decisions with slack.
    pub fn late(&self) -> u64 {
        self.late_more_outputs + self.tie_late
    }
}

impl AddAssign<&DecisionStats> for DecisionStats {
    fn add_assign(&mut self, rhs: &DecisionStats) {
        self.zero_slack += rhs.zero_slack;
        self.isolated_early += rhs.isolated_early;
        self.early_more_inputs += rhs.early_more_inputs;
        self.late_more_outputs += rhs.late_more_outputs;
        self.tie_early += rhs.tie_early;
        self.tie_late += rhs.tie_late;
        self.unique_min_priority += rhs.unique_min_priority;
        self.selections += rhs.selections;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backtrack_free_requires_no_step3_and_no_step6() {
        let mut s = SchedStats::default();
        assert!(s.backtrack_free());
        s.step3_invocations = 1;
        assert!(!s.backtrack_free());
        s.step3_invocations = 0;
        s.step6_restarts = 1;
        assert!(!s.backtrack_free());
    }

    #[test]
    fn stats_accumulate() {
        let mut total = SchedStats::default();
        let one = SchedStats {
            central_iterations: 10,
            step3_invocations: 2,
            ejected_ops: 3,
            step6_restarts: 1,
            attempts: 2,
            bounds_cells_touched: 40,
            choose_scan_len: 30,
            elapsed: Duration::from_millis(5),
        };
        total += &one;
        total += &one;
        assert_eq!(total.central_iterations, 20);
        assert_eq!(total.attempts, 4);
        assert_eq!(total.bounds_cells_touched, 80);
        assert_eq!(total.choose_scan_len, 60);
        assert_eq!(total.elapsed, Duration::from_millis(10));
    }

    #[test]
    fn decision_splits_sum() {
        let d = DecisionStats {
            zero_slack: 5,
            isolated_early: 1,
            early_more_inputs: 3,
            late_more_outputs: 2,
            tie_early: 4,
            tie_late: 1,
            unique_min_priority: 9,
            selections: 16,
        };
        assert_eq!(d.with_slack(), 11);
        assert_eq!(d.early(), 8);
        assert_eq!(d.late(), 3);
        assert_eq!(d.with_slack() + d.zero_slack, d.selections);
    }
}
