//! The operation-driven scheduling framework with limited backtracking
//! (§4.2–§4.4), shared by the slack scheduler and the Cydrome baseline.
//!
//! The framework owns the six-step central loop:
//!
//! 1. choose an operation (delegated to a [`Heuristic`]);
//! 2. search for an issue cycle within its Estart/Lstart bounds, scanning
//!    in the direction the heuristic picks;
//! 3. if no conflict-free cycle exists, force the operation in and eject
//!    whatever conflicts (never `brtop`);
//! 4. place it and update the modulo resource table;
//! 5. update the Estart/Lstart bounds of the unplaced operations;
//! 6. if the iteration budget is exhausted, restart at a larger II.
//!
//! Bounds maintenance (steps 3 and 5) reads the 32-bit MinDist mirrors
//! ([`MinDist::row32`], [`MinDist::col32`]): the from-scratch refreshes
//! fold whole rows of the placed nodes with branchless max/min kernels that
//! vectorize, and the per-placement update and the forcing sweep read one
//! row and one column. In this crate's own test builds every bounds
//! routine also runs a dense reference — probing the `i64` matrix through
//! [`MinDist::get`] — on a shadow copy of the bounds and asserts the two
//! agree entry for entry.

use lsms_ir::OpId;
use lsms_machine::{critical_classes, Mrt, UnitAssignment};

use std::sync::Arc;

use crate::mindist::MIRROR_RANGE;
#[cfg(test)]
use crate::mindist::NO_PATH;
use crate::{DecisionStats, MinDist, MinDistCache, SchedProblem, SchedStats, Schedule};

/// Which end of the `[Estart, Lstart]` window to scan from (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Scan from Estart upward: place as early as possible.
    Early,
    /// Scan from Lstart downward: place as late as possible.
    Late,
}

/// A scheduler personality plugged into the framework: how to pick the
/// next operation and which direction to scan.
pub(crate) trait Heuristic {
    /// Called at the start of each II attempt, before any placement.
    fn begin_attempt(&mut self, st: &EngineState<'_, '_>);

    /// Picks an unplaced node (a real operation or `Stop`).
    fn choose(&mut self, st: &EngineState<'_, '_>, decisions: &mut DecisionStats) -> usize;

    /// Picks the scan direction for the chosen node. The state is mutable
    /// only for its [`scratch`](EngineState::scratch) buffer.
    fn direction(
        &mut self,
        st: &mut EngineState<'_, '_>,
        node: usize,
        decisions: &mut DecisionStats,
    ) -> Direction;
}

/// Recycled allocations carried across II attempts of one escalation run
/// (the warm start): every `Vec` and the modulo resource table survive a
/// failed attempt and are re-initialized in place for the next II.
///
/// Reuse is *allocation-only* by design. All contents — bounds, unit
/// assignments, placement history — are recomputed from scratch each
/// attempt, so a warm-started run produces schedules byte-identical to a
/// cold-started one; what escalation no longer pays is the dozen fresh
/// allocations per attempt (the MinDist matrix itself is the
/// [`MinDistCache`]'s job).
///
/// The workspace is public (with opaque contents) so that callers outside
/// this crate — notably [`ModuloScheduler`](crate::ModuloScheduler)
/// implementations and the pipeline's backend registry — can own one and
/// thread it through repeated scheduler runs.
#[derive(Debug, Default)]
pub struct EngineWorkspace {
    time: Vec<Option<i64>>,
    estart: Vec<i64>,
    lstart: Vec<i64>,
    last_place: Vec<Option<i64>>,
    critical: Vec<bool>,
    minlt: Vec<Option<i64>>,
    assignments: Vec<UnitAssignment>,
    /// The indexed ready set: the unplaced nodes, dense.
    ready: Vec<u32>,
    /// Position of each node in `ready`, or [`PLACED`].
    ready_pos: Vec<u32>,
    conflict_buf: Vec<OpId>,
    /// Scratch for the forcing path's dependence-violation sweep.
    eject_buf: Vec<usize>,
    /// Accumulator of the bounds refresh kernels.
    fold: Vec<i32>,
    /// Heuristic scratch (see [`EngineState::scratch`]).
    scratch: Vec<usize>,
    /// Shadow bound buffers for the test-build dense cross-check.
    #[cfg(test)]
    check_estart: Vec<i64>,
    #[cfg(test)]
    check_lstart: Vec<i64>,
    /// Scratch for the per-attempt unit-assignment ordering.
    order: Vec<usize>,
    /// Scratch for the per-class round-robin cursors.
    next_instance: Vec<u32>,
    mrt: Option<Mrt>,
}

impl EngineWorkspace {
    /// An empty workspace; allocations grow on first use and are recycled
    /// by every subsequent run that borrows it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `ready_pos` sentinel for a node not in the ready set.
const PLACED: u32 = u32::MAX;

/// Mutable scheduling state for one II attempt, visible to heuristics.
pub(crate) struct EngineState<'p, 'a> {
    pub problem: &'p SchedProblem<'a>,
    pub ii: u32,
    pub md: Arc<MinDist>,
    /// Issue time per node (`None` = unplaced). `Start` is fixed at 0.
    pub time: Vec<Option<i64>>,
    /// Earliest start bound per node; meaningful only while unplaced.
    pub estart: Vec<i64>,
    /// Latest start bound per node; meaningful only while unplaced.
    pub lstart: Vec<i64>,
    /// The controlled `Lstart(Stop)` (§4.2).
    pub lstart_stop: i64,
    /// Last cycle each node was placed at, for the §4.4 forcing rule.
    pub last_place: Vec<Option<i64>>,
    /// Per-node: assigned to a critical resource class at this II (§4.3)?
    pub critical: Vec<bool>,
    /// `MinLT(v)` per value id at this II (§5.1); `None` when the value
    /// has no register flow uses.
    pub minlt: Vec<Option<i64>>,
    /// True when `ResMII > 1` — enables the extra-slack provision and the
    /// critical-op slack halving.
    pub contended: bool,
    /// Scheduling a basic block rather than a pipelined loop (§8).
    straight_line: bool,
    /// Per-attempt functional-unit instance binding: round-robin within
    /// each class in (Estart mod II, Estart) order, so operations likely
    /// to contend for the same kernel cycle land on different instances.
    assignments: Vec<UnitAssignment>,
    mrt: Mrt,
    unplaced_count: usize,
    /// The indexed ready set: exactly the unplaced nodes, in arbitrary
    /// order (swap-remove on place, push on eject). `choose` iterates this
    /// instead of filtering an `n`-bool scan; heuristic selection keys are
    /// total (node index as the final component), so the permuted order
    /// cannot change which node wins.
    ready: Vec<u32>,
    /// Position of each node in `ready`, or [`PLACED`].
    ready_pos: Vec<u32>,
    /// MinDist mirror entries read while maintaining bounds and sweeping
    /// for dependence violations this attempt (flushed into
    /// [`SchedStats::bounds_cells_touched`]).
    cells_touched: u64,
    /// Scratch list reused by the forcing path's conflict queries so the
    /// central loop stays allocation-free after setup.
    conflict_buf: Vec<OpId>,
    /// Scratch for the forcing path's dependence-violation sweep.
    eject_buf: Vec<usize>,
    /// Accumulator of the bounds refresh kernels, one lane per node.
    fold: Vec<i32>,
    /// Scratch a heuristic may use while deciding, so its decisions stay
    /// allocation-free; its contents are unspecified between calls.
    pub scratch: Vec<usize>,
    /// Shadow bound buffers for the test-build dense cross-check.
    #[cfg(test)]
    check_estart: Vec<i64>,
    #[cfg(test)]
    check_lstart: Vec<i64>,
}

impl<'p, 'a> EngineState<'p, 'a> {
    /// Cold-start construction (used by unit tests): a throwaway
    /// workspace, so every vector is freshly allocated.
    #[cfg(test)]
    fn new(
        problem: &'p SchedProblem<'a>,
        ii: u32,
        straight_line: bool,
        cache: &MinDistCache,
    ) -> Option<Self> {
        Self::new_in(
            problem,
            ii,
            straight_line,
            cache,
            &mut EngineWorkspace::default(),
        )
    }

    /// Builds the state for one II attempt, drawing every allocation from
    /// `ws` (see [`EngineWorkspace`]: contents are recomputed, only the
    /// capacity is reused).
    fn new_in(
        problem: &'p SchedProblem<'a>,
        ii: u32,
        straight_line: bool,
        cache: &MinDistCache,
        ws: &mut EngineWorkspace,
    ) -> Option<Self> {
        let md = cache.get(problem, ii);
        if !md.is_feasible() {
            return None;
        }
        let n = problem.num_nodes();
        let start = problem.start();
        let stop = problem.stop();
        let body = problem.body();
        let machine = problem.machine();
        let contended = problem.res_mii() > 1;

        let mut time = std::mem::take(&mut ws.time);
        time.clear();
        time.resize(n, None);
        time[start] = Some(0);

        let mut estart = std::mem::take(&mut ws.estart);
        estart.clear();
        estart.extend((0..n).map(|x| md.get(start, x).max(0)));
        // §4.2: with no resource contention the loop can always meet its
        // critical path; otherwise provide extra slack by rounding
        // Lstart(Stop) up to a multiple of II. In straight-line mode the
        // "II" is a never-wrapping horizon, so the deadline is instead the
        // larger of the critical path and the resource bound on makespan,
        // plus a little slack.
        let lstart_stop = if straight_line {
            let floor = estart[stop].max(i64::from(problem.res_mii()));
            floor + floor / 8 + 2
        } else if contended {
            round_up(estart[stop], i64::from(ii))
        } else {
            estart[stop]
        };
        // The deadline bounds every Lstart, so the mirror kernels' range
        // invariant starts here (see `time32`).
        time32(lstart_stop);
        let mut lstart = std::mem::take(&mut ws.lstart);
        lstart.clear();
        lstart.extend((0..n).map(|x| lstart_stop - md.get(x, stop)));

        let class_critical = critical_classes(machine, body, ii);
        let mut critical = std::mem::take(&mut ws.critical);
        critical.clear();
        critical.extend((0..n).map(|x| {
            x < problem.num_real_ops()
                && class_critical[machine.desc(body.ops()[x].kind).class.index()]
        }));

        // MinLT(v) = max over flow deps (d -> u, omega) of omega*II +
        // MinDist(d, u) (§5.1).
        let mut minlt = std::mem::take(&mut ws.minlt);
        crate::pressure::min_lifetimes_into(problem, &md, &mut minlt);

        // Bind operations to unit instances for this attempt. Estart mod
        // II approximates the kernel cycle an operation will want, so
        // spreading congruent operations across instances avoids
        // avoidable modulo collisions on tight recurrence circuits.
        let n_real = problem.num_real_ops();
        let mut order = std::mem::take(&mut ws.order);
        order.clear();
        order.extend(0..n_real);
        order.sort_by_key(|&x| (estart[x].rem_euclid(i64::from(ii)), estart[x], x));
        let mut next = std::mem::take(&mut ws.next_instance);
        next.clear();
        next.resize(machine.classes().len(), 0);
        let mut assignments = std::mem::take(&mut ws.assignments);
        assignments.clear();
        assignments.resize(n_real, UnitAssignment::default());
        for &x in &order {
            let class = machine.desc(body.ops()[x].kind).class;
            let count = machine.classes()[class.index()].count;
            assignments[x] = UnitAssignment {
                class,
                instance: next[class.index()] % count,
            };
            next[class.index()] += 1;
        }
        ws.order = order;
        ws.next_instance = next;

        let mrt = match ws.mrt.take() {
            Some(mut mrt) => {
                mrt.reset(machine, ii);
                mrt
            }
            None => Mrt::new(machine, ii),
        };

        let mut last_place = std::mem::take(&mut ws.last_place);
        last_place.clear();
        last_place.resize(n, None);
        let unplaced_count = n - 1;
        // The ready set starts in ascending node order (matching the old
        // bool-scan); later swap-removes permute it freely.
        let mut ready = std::mem::take(&mut ws.ready);
        ready.clear();
        let mut ready_pos = std::mem::take(&mut ws.ready_pos);
        ready_pos.clear();
        ready_pos.resize(n, PLACED);
        for (x, pos) in ready_pos.iter_mut().enumerate() {
            if x != start {
                *pos = ready.len() as u32;
                ready.push(x as u32);
            }
        }
        let mut conflict_buf = std::mem::take(&mut ws.conflict_buf);
        conflict_buf.clear();
        let mut eject_buf = std::mem::take(&mut ws.eject_buf);
        eject_buf.clear();
        Some(Self {
            problem,
            ii,
            md,
            time,
            estart,
            lstart,
            lstart_stop,
            last_place,
            critical,
            minlt,
            contended,
            straight_line,
            assignments,
            mrt,
            unplaced_count,
            ready,
            ready_pos,
            cells_touched: 0,
            conflict_buf,
            eject_buf,
            fold: std::mem::take(&mut ws.fold),
            scratch: std::mem::take(&mut ws.scratch),
            #[cfg(test)]
            check_estart: std::mem::take(&mut ws.check_estart),
            #[cfg(test)]
            check_lstart: std::mem::take(&mut ws.check_lstart),
        })
    }

    /// Returns every allocation to `ws` for the next attempt to reuse.
    fn recycle(self, ws: &mut EngineWorkspace) {
        ws.time = self.time;
        ws.estart = self.estart;
        ws.lstart = self.lstart;
        ws.last_place = self.last_place;
        ws.critical = self.critical;
        ws.minlt = self.minlt;
        ws.assignments = self.assignments;
        ws.ready = self.ready;
        ws.ready_pos = self.ready_pos;
        ws.conflict_buf = self.conflict_buf;
        ws.eject_buf = self.eject_buf;
        ws.fold = self.fold;
        ws.scratch = self.scratch;
        #[cfg(test)]
        {
            ws.check_estart = self.check_estart;
            ws.check_lstart = self.check_lstart;
        }
        ws.mrt = Some(self.mrt);
    }

    /// Iterates over the indices of unplaced nodes, driven by the indexed
    /// ready set — O(unplaced), not O(n).
    ///
    /// The order is *arbitrary* (swap-removes permute the set), which is
    /// safe because every heuristic selection key is total: the node index
    /// is its final tie-break component, so the minimum is order-invariant.
    pub fn unplaced(&self) -> impl Iterator<Item = usize> + '_ {
        self.ready.iter().map(|&x| x as usize)
    }

    /// True if the node is currently placed (Start always is).
    pub fn is_placed(&self, node: usize) -> bool {
        self.time[node].is_some()
    }

    /// The current slack of an unplaced node: `Lstart − Estart`, possibly
    /// negative when constraints have crossed.
    pub fn slack(&self, node: usize) -> i64 {
        self.lstart[node] - self.estart[node]
    }

    /// The §4.3 dynamic priority: slack, halved for critical operations
    /// (only under resource contention), halved again for divider users.
    pub fn dynamic_priority(&self, node: usize) -> i64 {
        let slack = self.slack(node);
        if slack <= 0 {
            return slack;
        }
        let mut priority = slack;
        if self.contended && self.critical[node] {
            priority /= 2;
        }
        if node < self.problem.num_real_ops() && self.problem.body().ops()[node].kind.uses_divider()
        {
            priority /= 2;
        }
        priority
    }

    /// Effective earliest start: placement time if placed, else the bound.
    pub fn effective_estart(&self, node: usize) -> i64 {
        self.time[node].unwrap_or(self.estart[node])
    }

    fn fits(&self, node: usize, t: i64) -> bool {
        if self.problem.is_pseudo(node) {
            return true;
        }
        self.mrt.fits(
            OpId::new(node),
            self.problem.desc(node),
            self.assignments[node].instance,
            t,
        )
    }

    fn place(&mut self, node: usize, t: i64) {
        debug_assert!(!self.is_placed(node));
        if !self.problem.is_pseudo(node) {
            self.mrt.place(
                OpId::new(node),
                self.problem.desc(node),
                self.assignments[node].instance,
                t,
            );
        }
        self.time[node] = Some(t);
        self.last_place[node] = Some(t);
        self.unplaced_count -= 1;
        // Swap-remove from the ready set, patching the moved node's index.
        let pos = self.ready_pos[node] as usize;
        self.ready.swap_remove(pos);
        if let Some(&moved) = self.ready.get(pos) {
            self.ready_pos[moved as usize] = pos as u32;
        }
        self.ready_pos[node] = PLACED;
    }

    fn eject(&mut self, node: usize) {
        let t = self.time[node].expect("ejecting an unplaced node");
        if !self.problem.is_pseudo(node) {
            self.mrt.remove(
                OpId::new(node),
                self.problem.desc(node),
                self.assignments[node].instance,
                t,
            );
        }
        self.time[node] = None;
        self.unplaced_count += 1;
        self.ready_pos[node] = self.ready.len() as u32;
        self.ready.push(node as u32);
    }

    /// §4.1 incremental update after placing `node` at `t`: tighten the
    /// bounds of every unplaced node.
    ///
    /// Reads row and column `node` of the mirrors at the ready nodes only.
    /// No branch on reachability: a [`NO_PATH32`](crate::mindist::NO_PATH32)
    /// or saturated cell yields a candidate that cannot bind (see
    /// [`MIRROR_RANGE`](crate::mindist::MIRROR_RANGE)).
    fn tighten_bounds_after(&mut self, node: usize, t: i64) {
        #[cfg(test)]
        let dense = self.dense_reference(|st, estart, lstart| {
            st.dense_tighten_after(node, t, estart, lstart);
        });
        let md = Arc::clone(&self.md);
        let (row, col) = (md.row32(node), md.col32(node));
        for &u in &self.ready {
            let u = u as usize;
            self.estart[u] = self.estart[u].max(t + i64::from(row[u]));
            self.lstart[u] = self.lstart[u].min(t - i64::from(col[u]));
        }
        self.cells_touched += 2 * self.ready.len() as u64;
        #[cfg(test)]
        self.assert_matches_dense("tighten_bounds_after", dense);
        self.maybe_grow_lstart_stop();
    }

    /// Dense §4.1 tightening (the test-build reference): probe both cells
    /// of every unplaced node.
    #[cfg(test)]
    fn dense_tighten_after(&self, node: usize, t: i64, estart: &mut [i64], lstart: &mut [i64]) {
        for u in 0..self.problem.num_nodes() {
            if self.is_placed(u) {
                continue;
            }
            let fwd = self.md.get(node, u);
            if fwd != NO_PATH {
                estart[u] = estart[u].max(t + fwd);
            }
            let back = self.md.get(u, node);
            if back != NO_PATH {
                lstart[u] = lstart[u].min(t - back);
            }
        }
    }

    /// Full recomputation of the bounds of all unplaced nodes from the
    /// placed set, used after ejections (§4.4): the from-scratch Estart
    /// refresh, the shared Lstart refresh, then the §4.2 deadline check.
    fn recompute_bounds(&mut self) {
        self.refresh_estarts();
        self.refresh_lstarts();
        self.maybe_grow_lstart_stop();
    }

    /// From-scratch Estart for every unplaced node: `MinDist(Start, u)`
    /// floored at 0, raised by every placed node that reaches `u`.
    ///
    /// `Start` is placed at 0, so the fold `acc = max(acc, t_z + row_z)`
    /// over the placed `z` from `acc = 0` covers the initial term too. The
    /// kernel runs over whole rows into the workspace accumulator; only the
    /// ready nodes' entries are copied out.
    fn refresh_estarts(&mut self) {
        #[cfg(test)]
        let dense = self.dense_reference(|st, estart, _| st.dense_refresh_estarts(estart));
        let md = Arc::clone(&self.md);
        let n = self.problem.num_nodes();
        let mut acc = std::mem::take(&mut self.fold);
        acc.clear();
        acc.resize(n, 0);
        for (z, &tz) in self.time.iter().enumerate() {
            let Some(t) = tz else { continue };
            fold_max(&mut acc, md.row32(z), time32(t));
            self.cells_touched += n as u64;
        }
        for &u in &self.ready {
            self.estart[u as usize] = i64::from(acc[u as usize]);
        }
        self.fold = acc;
        #[cfg(test)]
        self.assert_matches_dense("refresh_estarts", dense);
    }

    /// Dense from-scratch Estart refresh (test-build reference).
    #[cfg(test)]
    fn dense_refresh_estarts(&self, estart: &mut [i64]) {
        let n = self.problem.num_nodes();
        let start = self.problem.start();
        for (u, slot) in estart.iter_mut().enumerate() {
            if self.is_placed(u) {
                continue;
            }
            let mut e = self.md.get(start, u).max(0);
            for z in 0..n {
                let Some(t) = self.time[z] else { continue };
                let fwd = self.md.get(z, u);
                if fwd != NO_PATH {
                    e = e.max(t + fwd);
                }
            }
            *slot = e;
        }
    }

    /// From-scratch Lstart refresh for every unplaced node — the single
    /// definition shared by [`recompute_bounds`](Self::recompute_bounds)
    /// and [`maybe_grow_lstart_stop`](Self::maybe_grow_lstart_stop):
    /// `Lstart(u) = min(Lstart(Stop) − MinDist(u, Stop),
    /// min over placed z of t_z − MinDist(u, z))`, folded over whole
    /// mirror columns like [`refresh_estarts`](Self::refresh_estarts).
    fn refresh_lstarts(&mut self) {
        #[cfg(test)]
        let dense = self.dense_reference(|st, _, lstart| st.dense_refresh_lstarts(lstart));
        let md = Arc::clone(&self.md);
        let n = self.problem.num_nodes();
        let lstart_stop = time32(self.lstart_stop);
        let mut acc = std::mem::take(&mut self.fold);
        acc.clear();
        acc.extend(
            md.col32(self.problem.stop())
                .iter()
                .map(|&w| lstart_stop - w),
        );
        self.cells_touched += n as u64;
        for (z, &tz) in self.time.iter().enumerate() {
            let Some(t) = tz else { continue };
            fold_min_sub(&mut acc, md.col32(z), time32(t));
            self.cells_touched += n as u64;
        }
        for &u in &self.ready {
            self.lstart[u as usize] = i64::from(acc[u as usize]);
        }
        self.fold = acc;
        #[cfg(test)]
        self.assert_matches_dense("refresh_lstarts", dense);
    }

    /// Dense from-scratch Lstart refresh (test-build reference).
    #[cfg(test)]
    fn dense_refresh_lstarts(&self, lstart: &mut [i64]) {
        let n = self.problem.num_nodes();
        let stop = self.problem.stop();
        for (u, slot) in lstart.iter_mut().enumerate() {
            if self.is_placed(u) {
                continue;
            }
            let mut l = self.lstart_stop - self.md.get(u, stop);
            for z in 0..n {
                let Some(t) = self.time[z] else { continue };
                let back = self.md.get(u, z);
                if back != NO_PATH {
                    l = l.min(t - back);
                }
            }
            *slot = l;
        }
    }

    /// §4.2: `Lstart(Stop)` is reset only when `Estart(Stop)` is pushed out
    /// beyond it (being pushed beyond Stop's *placement* is handled by
    /// ejecting Stop during forcing). Loosening `Lstart(Stop)` can only
    /// loosen other Lstarts; refresh them all through the shared helper.
    fn maybe_grow_lstart_stop(&mut self) {
        let stop = self.problem.stop();
        if !self.is_placed(stop) && self.estart[stop] > self.lstart_stop {
            self.lstart_stop = if self.straight_line {
                // Keep the same proportional slack the attempt started
                // with; a bare critical-path deadline leaves zero slack
                // after every ejection and the attempt thrashes.
                let floor = self.estart[stop].max(i64::from(self.problem.res_mii()));
                floor + floor / 8 + 2
            } else if !self.contended {
                self.estart[stop]
            } else {
                round_up(self.estart[stop], i64::from(self.ii))
            };
            self.refresh_lstarts();
        }
    }

    /// Runs a dense reference routine on a shadow copy of the bounds taken
    /// before the sparse routine updates the live ones. The dense routines
    /// read only the placement state, which the bounds routines never
    /// change, so running first sees the same inputs.
    #[cfg(test)]
    fn dense_reference(
        &mut self,
        dense: impl FnOnce(&Self, &mut [i64], &mut [i64]),
    ) -> (Vec<i64>, Vec<i64>) {
        let mut estart = std::mem::take(&mut self.check_estart);
        estart.clear();
        estart.extend_from_slice(&self.estart);
        let mut lstart = std::mem::take(&mut self.check_lstart);
        lstart.clear();
        lstart.extend_from_slice(&self.lstart);
        dense(self, &mut estart, &mut lstart);
        (estart, lstart)
    }

    /// Cross-check assertion: after a bounds routine, the sparse result on
    /// the live state must equal the dense result on the shadow copy,
    /// entry for entry.
    #[cfg(test)]
    fn assert_matches_dense(&mut self, routine: &str, (estart, lstart): (Vec<i64>, Vec<i64>)) {
        assert_eq!(self.estart, estart, "{routine}: Estart diverged");
        assert_eq!(self.lstart, lstart, "{routine}: Lstart diverged");
        self.check_estart = estart;
        self.check_lstart = lstart;
    }

    /// Collects (into `self.eject_buf`, ascending and deduplicated) every
    /// placed node whose dependence constraints a forced placement of `x`
    /// at `t` violates. `MinDist` reflects the transitive closure, so this
    /// reaches beyond immediate successors (§4.4). The sweep reads row and
    /// column `x` in node order, so victims come out ascending and each
    /// once; in test builds the dense reference must produce the same list.
    fn collect_dependence_victims(&mut self, x: usize, t: i64) {
        let mut victims = std::mem::take(&mut self.eject_buf);
        victims.clear();
        let md = Arc::clone(&self.md);
        let start = self.problem.start();
        let (row, col) = (md.row32(x), md.col32(x));
        for (z, &tz) in self.time.iter().enumerate() {
            let Some(tz) = tz else { continue };
            // `x` itself sits at `t` with MinDist(x, x) = 0: never a victim.
            let violated = t + i64::from(row[z]) > tz || tz + i64::from(col[z]) > t;
            if violated && z != start {
                victims.push(z);
            }
        }
        self.cells_touched += 2 * row.len() as u64;
        #[cfg(test)]
        assert_eq!(
            victims,
            self.dense_victims(x, t),
            "dependence-violation sweep diverged"
        );
        self.eject_buf = victims;
    }

    /// Dense violation sweep (test-build reference): every placed node in
    /// ascending order.
    #[cfg(test)]
    fn dense_victims(&self, x: usize, t: i64) -> Vec<usize> {
        let start = self.problem.start();
        (0..self.problem.num_nodes())
            .filter(|&z| z != x && z != start)
            .filter(|&z| {
                self.time[z].is_some_and(|tz| {
                    let fwd = self.md.get(x, z);
                    let back = self.md.get(z, x);
                    (fwd != NO_PATH && t + fwd > tz) || (back != NO_PATH && tz + back > t)
                })
            })
            .collect()
    }
}

/// Narrows an issue time or `Lstart(Stop)` for the mirror kernels, checking
/// the [`MIRROR_RANGE`] invariant their exactness rests on.
fn time32(t: i64) -> i32 {
    assert!(
        (0..i64::from(MIRROR_RANGE)).contains(&t),
        "schedule time {t} is outside the i32 mirror range"
    );
    t as i32
}

/// Estart kernel: `acc[u] = max(acc[u], t + row[u])`, branchless over the
/// whole row. `NO_PATH32` cells give candidates below 0, under every
/// Estart, so they need no test.
fn fold_max(acc: &mut [i32], row: &[i32], t: i32) {
    for (a, &w) in acc.iter_mut().zip(row) {
        *a = (*a).max(t + w);
    }
}

/// Lstart kernel: `acc[u] = min(acc[u], t − col[u])`, branchless over the
/// whole column. `NO_PATH32` cells give candidates above `Lstart(Stop)`,
/// over every Lstart, so they need no test.
fn fold_min_sub(acc: &mut [i32], col: &[i32], t: i32) {
    for (a, &w) in acc.iter_mut().zip(col) {
        *a = (*a).min(t - w);
    }
}

fn round_up(x: i64, m: i64) -> i64 {
    x.div_euclid(m) * m + if x.rem_euclid(m) == 0 { 0 } else { m }
}

/// Outcome of one II attempt.
enum Attempt {
    Success(Vec<i64>, Vec<UnitAssignment>),
    BudgetExhausted,
    InfeasibleIi,
}

/// Runs one II attempt: the §4.2 central loop under an iteration budget.
/// Failed attempts return their allocations to `ws` for the next II.
#[allow(clippy::too_many_arguments)]
fn attempt(
    problem: &SchedProblem<'_>,
    ii: u32,
    heuristic: &mut dyn Heuristic,
    budget: u64,
    straight_line: bool,
    cache: &MinDistCache,
    ws: &mut EngineWorkspace,
    stats: &mut SchedStats,
    decisions: &mut DecisionStats,
) -> Attempt {
    let Some(mut st) = EngineState::new_in(problem, ii, straight_line, cache, ws) else {
        return Attempt::InfeasibleIi;
    };
    let _attempt_span = lsms_trace::span_with("sched.attempt", &[("ii", i64::from(ii))]);
    heuristic.begin_attempt(&st);
    let brtop = problem.brtop();
    let mut iterations = 0u64;

    while st.unplaced_count > 0 {
        iterations += 1;
        stats.central_iterations += 1;
        if iterations > budget {
            stats.bounds_cells_touched += st.cells_touched;
            st.recycle(ws);
            return Attempt::BudgetExhausted;
        }
        // Step 1: choose an operation. The ready set holds exactly the
        // unplaced nodes, so this is what the heuristic will scan.
        stats.choose_scan_len += st.ready.len() as u64;
        let x = heuristic.choose(&st, decisions);
        debug_assert!(!st.is_placed(x));
        // Step 2: search for an issue cycle within the bounds.
        let direction = heuristic.direction(&mut st, x, decisions);
        lsms_trace::add(
            "sched",
            match direction {
                Direction::Early => "dir_early",
                Direction::Late => "dir_late",
            },
            1,
        );
        let e = st.estart[x];
        let l = st.lstart[x];
        let mut found = None;
        if l >= e {
            // At most II consecutive cycles need scanning (§5.2).
            let window = i64::from(ii) - 1;
            match direction {
                Direction::Early => {
                    let hi = l.min(e + window);
                    for t in e..=hi {
                        if st.fits(x, t) {
                            found = Some(t);
                            break;
                        }
                    }
                }
                Direction::Late => {
                    let lo = e.max(l - window);
                    for t in (lo..=l).rev() {
                        if st.fits(x, t) {
                            found = Some(t);
                            break;
                        }
                    }
                }
            }
        }
        match found {
            Some(t) => {
                // Step 4 & 5: place and tighten bounds.
                lsms_trace::instant(
                    "sched.place",
                    &[
                        ("op", x as i64),
                        ("cycle", t),
                        ("late", i64::from(direction == Direction::Late)),
                        ("slack", l - e),
                    ],
                );
                lsms_trace::add("sched", "placements", 1);
                st.place(x, t);
                st.tighten_bounds_after(x, t);
            }
            None => {
                // Step 3: force the operation in, ejecting conflicts.
                stats.step3_invocations += 1;
                lsms_trace::instant("sched.mrt_conflict", &[("op", x as i64), ("estart", e)]);
                lsms_trace::add("sched", "mrt_conflicts", 1);
                let mut t = st.last_place[x].map_or(e, |last| e.max(last + 1));
                // brtop cannot be ejected; search successive cycles to
                // avoid resource conflicts with it (§4.4 footnote).
                if !st.problem.is_pseudo(x) {
                    if let Some(br) = brtop {
                        while st.mrt.conflicts_contain(
                            OpId::new(x),
                            st.problem.desc(x),
                            st.assignments[x].instance,
                            t,
                            OpId::new(br),
                        ) {
                            t += 1;
                        }
                    }
                    // Eject the resource conflicts (into the reused scratch
                    // list — no allocation per forcing step).
                    let mut conflicts = std::mem::take(&mut st.conflict_buf);
                    st.mrt.conflicts_into(
                        OpId::new(x),
                        st.problem.desc(x),
                        st.assignments[x].instance,
                        t,
                        &mut conflicts,
                    );
                    for &z in &conflicts {
                        lsms_trace::instant(
                            "sched.eject",
                            &[("op", z.index() as i64), ("by", x as i64), ("cycle", t)],
                        );
                        lsms_trace::add("sched", "ejections", 1);
                        st.eject(z.index());
                        stats.ejected_ops += 1;
                    }
                    st.conflict_buf = conflicts;
                }
                lsms_trace::instant(
                    "sched.place",
                    &[("op", x as i64), ("cycle", t), ("forced", 1)],
                );
                lsms_trace::add_all("sched", &[("placements", 1), ("forced_placements", 1)]);
                st.place(x, t);
                // Eject every placed operation whose dependence constraints
                // the forced placement violates. `MinDist` reflects the
                // transitive closure, so this reaches beyond immediate
                // successors, which "tends to reduce the overall amount of
                // backtracking and improve the final schedule" (§4.4).
                st.collect_dependence_victims(x, t);
                let victims = std::mem::take(&mut st.eject_buf);
                for &z in &victims {
                    debug_assert!(
                        Some(z) != brtop,
                        "dependence conflict with brtop cannot be repaired"
                    );
                    lsms_trace::instant(
                        "sched.eject",
                        &[("op", z as i64), ("by", x as i64), ("cycle", t)],
                    );
                    lsms_trace::add("sched", "ejections", 1);
                    st.eject(z);
                    stats.ejected_ops += 1;
                }
                st.eject_buf = victims;
                st.recompute_bounds();
            }
        }
    }
    stats.bounds_cells_touched += st.cells_touched;
    let times: Vec<i64> = (0..problem.num_real_ops())
        .map(|op| st.time[op].expect("all real ops placed"))
        .collect();
    Attempt::Success(times, st.assignments)
}

/// The II escalation loop shared by both schedulers: start at `MII` and on
/// failure increment per the policy (§4.2 and its footnote 6) up to
/// `max_ii`. An optional wall-clock `deadline` caps escalation: once it
/// has passed, a failed attempt fails the run with
/// [`deadline_capped`](crate::SchedFailure::deadline_capped) set instead
/// of trying larger IIs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_framework(
    problem: &SchedProblem<'_>,
    heuristic: &mut dyn Heuristic,
    budget_factor: u64,
    max_ii: u32,
    increment: crate::IiIncrement,
    deadline: Option<std::time::Instant>,
    cache: &MinDistCache,
    decisions: &mut DecisionStats,
    ws: &mut EngineWorkspace,
) -> Result<Schedule, crate::SchedFailure> {
    run_framework_from(
        problem,
        heuristic,
        budget_factor,
        problem.mii().max(1),
        max_ii,
        increment,
        false,
        deadline,
        cache,
        decisions,
        ws,
    )
}

/// As [`run_framework`], but starting the II search at `start_ii` — used
/// by the straight-line mode, whose "II" is just a horizon too large to
/// wrap.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_framework_from(
    problem: &SchedProblem<'_>,
    heuristic: &mut dyn Heuristic,
    budget_factor: u64,
    start_ii: u32,
    max_ii: u32,
    increment: crate::IiIncrement,
    straight_line: bool,
    deadline: Option<std::time::Instant>,
    cache: &MinDistCache,
    decisions: &mut DecisionStats,
    // The warm-start workspace: allocations survive failed attempts (and,
    // when the caller keeps the workspace, whole runs).
    ws: &mut EngineWorkspace,
) -> Result<Schedule, crate::SchedFailure> {
    let started = std::time::Instant::now();
    let mut stats = SchedStats::default();
    let budget = budget_factor * (problem.num_real_ops() as u64 + 1);
    let mut ii = start_ii.max(1);
    loop {
        stats.attempts += 1;
        match attempt(
            problem,
            ii,
            heuristic,
            budget,
            straight_line,
            cache,
            ws,
            &mut stats,
            decisions,
        ) {
            Attempt::Success(times, assignments) => {
                stats.elapsed = started.elapsed();
                let schedule = Schedule {
                    ii,
                    times,
                    assignments,
                    stats,
                };
                debug_assert_eq!(crate::validate(problem, &schedule), Ok(()));
                return Ok(schedule);
            }
            Attempt::BudgetExhausted | Attempt::InfeasibleIi => {
                stats.step6_restarts += 1;
                if ii >= max_ii {
                    stats.elapsed = started.elapsed();
                    lsms_trace::instant("sched.fail", &[("last_ii", i64::from(ii))]);
                    lsms_trace::add("sched", "pipeline_failures", 1);
                    return Err(crate::SchedFailure {
                        last_ii: ii,
                        stats,
                        deadline_capped: false,
                    });
                }
                if let Some(d) = deadline {
                    if std::time::Instant::now() >= d {
                        stats.elapsed = started.elapsed();
                        lsms_trace::instant("sched.budget_capped", &[("last_ii", i64::from(ii))]);
                        lsms_trace::add("sched", "budget_capped", 1);
                        return Err(crate::SchedFailure {
                            last_ii: ii,
                            stats,
                            deadline_capped: true,
                        });
                    }
                }
                let step = match increment {
                    crate::IiIncrement::FourPercent => (ii * 4 / 100).max(1),
                    crate::IiIncrement::ByOne => 1,
                };
                let next_ii = (ii + step).min(max_ii);
                // `warm` reports whether the next attempt reuses this
                // one's allocations. Gated so the untraced hot path does
                // not build arguments.
                if lsms_trace::enabled() {
                    lsms_trace::instant(
                        "sched.ii_escalate",
                        &[
                            ("from", i64::from(ii)),
                            ("to", i64::from(next_ii)),
                            ("warm", i64::from(ws.mrt.is_some())),
                        ],
                    );
                    lsms_trace::add("sched", "ii_escalations", 1);
                }
                ii = next_ii;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    #[test]
    fn round_up_to_multiples() {
        assert_eq!(round_up(0, 4), 0);
        assert_eq!(round_up(1, 4), 4);
        assert_eq!(round_up(4, 4), 4);
        assert_eq!(round_up(5, 4), 8);
        assert_eq!(round_up(17, 5), 20);
    }

    /// load -> fadd -> store with a spare independent fadd.
    fn chain_body() -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("chain");
        let a = b.invariant(ValueType::Addr, "a");
        let f = b.invariant(ValueType::Float, "f");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let spare = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let add = b.op(OpKind::FAdd, &[x, x], Some(y));
        let st = b.op(OpKind::Store, &[a, y], None);
        b.op(OpKind::FAdd, &[f, f], Some(spare));
        b.flow_dep(ld, add, 0);
        b.flow_dep(add, st, 0);
        b.finish()
    }

    #[test]
    fn initial_bounds_follow_the_critical_path() {
        let body = chain_body();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let st = EngineState::new(&problem, problem.mii(), false, &MinDistCache::new()).unwrap();
        // Estart: load 0, fadd 13, store 14; Stop at 15.
        assert_eq!(st.estart[0], 0);
        assert_eq!(st.estart[1], 13);
        assert_eq!(st.estart[2], 14);
        assert_eq!(st.estart[problem.stop()], 15);
        // ResMII = 2 > 1: Lstart(Stop) rounds 15 up to a multiple of II.
        assert_eq!(st.lstart_stop, round_up(15, i64::from(problem.mii())));
        // The chain ops have slack equal to the rounding provision; the
        // spare fadd has nearly the whole window.
        assert!(st.slack(0) >= 0 && st.slack(0) <= i64::from(problem.mii()));
        assert!(st.slack(3) >= st.slack(1));
    }

    #[test]
    fn dynamic_priority_halves_for_divider_ops() {
        let mut b = LoopBuilder::new("div");
        let f = b.invariant(ValueType::Float, "f");
        let q = b.new_value(ValueType::Float);
        let r = b.new_value(ValueType::Float);
        b.op(OpKind::FDiv, &[f, f], Some(q));
        b.op(OpKind::FAdd, &[f, f], Some(r));
        let body = b.finish();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let st = EngineState::new(&problem, problem.mii(), false, &MinDistCache::new()).unwrap();
        // Same slack shape, but the divider op's priority is at most half
        // the raw slack (possibly quartered if the divider is critical).
        let slack_div = st.slack(0);
        if slack_div > 0 {
            assert!(st.dynamic_priority(0) <= slack_div / 2);
        }
        assert!(st.dynamic_priority(1) <= st.slack(1));
    }

    #[test]
    fn per_attempt_assignment_spreads_congruent_ops() {
        // Four independent loads, II = 2: the two ops wanting cycle 0
        // (estart 0 mod 2) must land on different ports.
        let mut b = LoopBuilder::new("mem");
        let a = b.invariant(ValueType::Addr, "a");
        for _ in 0..4 {
            let x = b.new_value(ValueType::Float);
            b.op(OpKind::Load, &[a], Some(x));
        }
        let body = b.finish();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let st = EngineState::new(&problem, 2, false, &MinDistCache::new()).unwrap();
        // All four are congruent (estart 0); round-robin alternates
        // instances 0,1,0,1 in order.
        let instances: Vec<u32> = (0..4).map(|i| st.assignments[i].instance).collect();
        assert_eq!(instances.iter().filter(|&&i| i == 0).count(), 2);
        assert_eq!(instances.iter().filter(|&&i| i == 1).count(), 2);
    }

    #[test]
    fn infeasible_ii_yields_no_state() {
        let mut b = LoopBuilder::new("rec");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FMul, &[y, y], Some(x));
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 1);
        let body = b.finish();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        assert_eq!(problem.rec_mii(), 4);
        assert!(EngineState::new(&problem, 3, false, &MinDistCache::new()).is_none());
        assert!(EngineState::new(&problem, 4, false, &MinDistCache::new()).is_some());
    }

    #[test]
    fn ready_set_mirrors_unplaced_through_place_and_eject() {
        let body = chain_body();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let cache = MinDistCache::new();
        let mut st = EngineState::new(&problem, problem.mii(), false, &cache).unwrap();
        let check = |st: &EngineState<'_, '_>| {
            let n = st.problem.num_nodes();
            assert_eq!(st.ready.len(), st.unplaced_count);
            for (pos, &node) in st.ready.iter().enumerate() {
                assert!(!st.is_placed(node as usize));
                assert_eq!(st.ready_pos[node as usize], pos as u32);
            }
            for node in 0..n {
                if st.is_placed(node) {
                    assert_eq!(st.ready_pos[node], PLACED);
                }
            }
        };
        check(&st);
        // Start is pre-placed and never in the ready set.
        assert!(!st.ready.contains(&(problem.start() as u32)));
        st.place(0, 0);
        st.tighten_bounds_after(0, 0);
        check(&st);
        assert!(!st.ready.contains(&0));
        st.place(1, 13);
        check(&st);
        st.eject(0);
        st.recompute_bounds();
        check(&st);
        assert!(st.ready.contains(&0));
        assert!(st.unplaced().any(|x| x == 0));
    }

    /// Drives a placement/ejection sequence through one state: every
    /// bounds routine asserts its sparse walk against the dense reference.
    #[test]
    fn sparse_bounds_match_the_dense_reference() {
        let body = chain_body();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let cache = MinDistCache::new();
        let mut st = EngineState::new(&problem, problem.mii(), false, &cache).unwrap();
        st.place(0, 0);
        st.tighten_bounds_after(0, 0);
        st.place(3, 1);
        st.tighten_bounds_after(3, 1);
        st.eject(0);
        st.recompute_bounds();
        st.place(2, 0);
        st.collect_dependence_victims(1, 20);
        // The fadd forced at 20 must push the store (placed at 0) out.
        assert_eq!(st.eject_buf, vec![2]);
        assert!(st.cells_touched > 0);
    }

    /// A back arc whose ω·II discount lies below the mirror range: every
    /// routine that reads the saturated cell must still agree with the
    /// dense i64 reference.
    #[test]
    fn saturated_mirror_cells_match_the_dense_reference() {
        let mut b = LoopBuilder::new("far");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FMul, &[y, y], Some(x));
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 3_000_000_000);
        let body = b.finish();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let cache = MinDistCache::new();
        let mut st = EngineState::new(&problem, problem.mii(), false, &cache).unwrap();
        assert!(st.md.get(1, 0) < i64::from(i32::MIN));
        assert_eq!(st.md.row32(1)[0], -MIRROR_RANGE);
        // o2 placed first: tightening reads the saturated row 1 / column 1
        // cells for o1, and the refreshes fold them.
        st.place(1, 4);
        st.tighten_bounds_after(1, 4);
        st.recompute_bounds();
        // Forcing o1 at 3 sweeps row 0 / column 0, where MinDist(o2, o1) is
        // the saturated cell: o2 at 4 is a victim only through the
        // forward arc o1 -> o2 (3 + 2 > 4).
        st.place(0, 3);
        st.collect_dependence_victims(0, 3);
        assert_eq!(st.eject_buf, vec![1]);
        st.eject(1);
        st.recompute_bounds();
        assert_eq!(st.estart[1], 5);
    }

    #[test]
    fn straight_line_deadline_is_near_the_serial_floor() {
        let body = chain_body();
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let st = EngineState::new(&problem, 1000, true, &MinDistCache::new()).unwrap();
        let floor = st.estart[problem.stop()].max(i64::from(problem.res_mii()));
        assert_eq!(st.lstart_stop, floor + floor / 8 + 2);
        // Far below the huge horizon: late placements cannot drift to the
        // end of the window.
        assert!(st.lstart_stop < 100);
    }
}
