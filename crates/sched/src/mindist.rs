//! The `MinDist` relation (§4.1): all-pairs longest paths at a given II.
//!
//! [`MinDist::compute`] runs Floyd–Warshall at one fixed II and builds the
//! matrix's 32-bit mirrors for the engine's bounds kernels;
//! [`MinDistCache`] shares each `(problem, II)` matrix across a scheduling
//! run so it is computed once.

use crate::SchedProblem;
use std::sync::{Arc, Mutex};

/// Sentinel for "no path in the dependence graph" (the paper's −∞).
///
/// Chosen far from `i64::MIN` so sums of path weights cannot overflow.
pub const NO_PATH: i64 = i64::MIN / 4;

/// The [`NO_PATH`] sentinel of the 32-bit mirrors ([`MinDist::row32`],
/// [`MinDist::col32`]).
pub const NO_PATH32: i32 = i32::MIN / 2;

/// Range bound of the 32-bit mirrors: a finite `MinDist` is stored exactly
/// when it lies in `[-MIRROR_RANGE, MIRROR_RANGE]`.
///
/// A distance below `-MIRROR_RANGE` (a large `ω·II` discount) is stored as
/// `-MIRROR_RANGE`, which is exact for every bound the engine derives: its
/// issue times and bounds lie in `[0, MIRROR_RANGE)` (checked where it
/// narrows them), so `t + d` is negative and never raises an Estart (which
/// is at least 0) or violates a placement, and `t − d` exceeds every
/// Lstart (at most `Lstart(Stop) < MIRROR_RANGE`). The same argument
/// covers [`NO_PATH32`], which lies below the floor. A distance above
/// `MIRROR_RANGE` is a real constraint that cannot be narrowed, so building
/// the mirrors panics. With every operand in these ranges, the sums the
/// engine's kernels form stay within `±(2^30 + 2^29)` and never wrap.
pub const MIRROR_RANGE: i32 = 1 << 29;

/// For each pair of operations `x` and `y`, `MinDist(x, y)` is the minimum
/// number of cycles (possibly negative) by which `x` must precede `y` in
/// any feasible schedule, or [`NO_PATH`] if the dependence graph has no
/// path from `x` to `y`.
///
/// Computing MinDist is an all-pairs *longest*-paths problem over arcs of
/// weight `latency − ω·II`; because `II ≥ RecMII` makes every cycle weight
/// non-positive, the computation is well defined (§4.1). The matrix depends
/// only on `(problem, II)`, so within one scheduling run it is computed at
/// most once per candidate II — see [`MinDistCache`].
///
/// Besides the `i64` matrix that [`get`](Self::get) reads, every `MinDist`
/// carries two contiguous 32-bit mirrors for the scheduling engine's bounds
/// kernels: the rows `MinDist(x, ·)` ([`row32`](Self::row32)) and the
/// transposed columns `MinDist(·, y)` ([`col32`](Self::col32)), narrowed
/// under the [`MIRROR_RANGE`] invariant. Half-width lanes let the engine's
/// branchless max/min folds vectorize on baseline x86-64, which has no
/// SIMD 64-bit compare.
#[derive(Clone, Debug)]
pub struct MinDist {
    n: usize,
    ii: u32,
    feasible: bool,
    d: Vec<i64>,
    /// `rows[x * n + y] = MinDist(x, y)`, narrowed.
    rows: Vec<i32>,
    /// `cols[y * n + x] = MinDist(x, y)`, narrowed.
    cols: Vec<i32>,
}

/// The checked `i64 → i32` narrowing of one matrix cell (see
/// [`MIRROR_RANGE`]).
fn narrow(x: usize, y: usize, w: i64) -> i32 {
    if w == NO_PATH {
        return NO_PATH32;
    }
    let range = i64::from(MIRROR_RANGE);
    assert!(
        w <= range,
        "MinDist({x}, {y}) = {w} exceeds the i32 mirror range (at most {range})"
    );
    // In range after the clamp, so the cast is exact.
    w.max(-range) as i32
}

impl MinDist {
    /// Computes the relation for `problem` at candidate initiation interval
    /// `ii` with Floyd–Warshall over all nodes including `Start`/`Stop`.
    ///
    /// `MinDist(x, x)` is fixed at 0 for every operation, as in the paper;
    /// if `ii < RecMII` some diagonal entry would want to be positive, which
    /// [`is_feasible`](Self::is_feasible) reports.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is 0, or if a finite distance exceeds
    /// [`MIRROR_RANGE`] (a critical path of more than 2^29 cycles).
    pub fn compute(problem: &SchedProblem<'_>, ii: u32) -> Self {
        Self::compute_into(problem, ii, Vec::new())
    }

    /// Like [`compute`](Self::compute) but recycles `buf` as the matrix
    /// storage, avoiding a fresh allocation when a same-size buffer from an
    /// earlier II attempt is available.
    pub fn compute_into(problem: &SchedProblem<'_>, ii: u32, buf: Vec<i64>) -> Self {
        Self::compute_in(
            problem,
            ii,
            Buffers {
                d: buf,
                ..Buffers::default()
            },
        )
    }

    /// Like [`compute_into`](Self::compute_into), recycling the mirror
    /// buffers too.
    fn compute_in(problem: &SchedProblem<'_>, ii: u32, bufs: Buffers) -> Self {
        assert!(ii > 0, "II must be positive");
        let n = problem.num_nodes();
        let Buffers {
            d: mut buf,
            mut rows,
            mut cols,
        } = bufs;
        buf.clear();
        buf.resize(n * n, NO_PATH);
        let mut d = buf;
        for arc in problem.arcs() {
            let idx = arc.from * n + arc.to;
            d[idx] = d[idx].max(arc.weight(ii));
        }
        let mut feasible = true;
        for i in 0..n {
            // A positive self-arc weight means even II is too small for a
            // trivial circuit; record infeasibility but pin the diagonal.
            if d[i * n + i] > 0 {
                feasible = false;
            }
            d[i * n + i] = d[i * n + i].max(0);
        }
        for k in 0..n {
            // Row k contributes through via = d[i][k] + d[k][j]; if its only
            // finite entry is the zero diagonal, every candidate collapses to
            // d[i][k] + 0 <= d[i][k] and the whole pass is a no-op. Dependence
            // graphs are sparse, so many rows (e.g. Stop, stores) skip here.
            let row = &d[k * n..k * n + n];
            let useful = row
                .iter()
                .enumerate()
                .any(|(j, &w)| w != NO_PATH && (j != k || w != 0));
            if !useful {
                continue;
            }
            for i in 0..n {
                let dik = d[i * n + k];
                if dik == NO_PATH {
                    continue;
                }
                let (row_k, row_i) = if i < k {
                    let (a, b) = d.split_at_mut(k * n);
                    (&b[..n], &mut a[i * n..i * n + n])
                } else if i > k {
                    let (a, b) = d.split_at_mut(i * n);
                    (&a[k * n..k * n + n], &mut b[..n])
                } else {
                    continue; // i == k: d[i][k] + d[k][j] = d[i][j] already
                };
                for j in 0..n {
                    if row_k[j] != NO_PATH {
                        let via = dik + row_k[j];
                        if via > row_i[j] {
                            row_i[j] = via;
                        }
                    }
                }
            }
        }
        for i in 0..n {
            if d[i * n + i] > 0 {
                feasible = false;
                d[i * n + i] = 0;
            }
        }
        rows.clear();
        rows.reserve(n * n);
        cols.clear();
        cols.resize(n * n, NO_PATH32);
        for (x, row) in d.chunks_exact(n).enumerate() {
            for (y, &w) in row.iter().enumerate() {
                let w = narrow(x, y, w);
                rows.push(w);
                cols[y * n + x] = w;
            }
        }
        Self {
            n,
            ii,
            feasible,
            d,
            rows,
            cols,
        }
    }

    /// The II this matrix was computed for.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// False when some recurrence circuit is longer than `ω·II` at this II —
    /// i.e. `ii < RecMII` — so no feasible schedule exists.
    pub fn is_feasible(&self) -> bool {
        self.feasible
    }

    /// `MinDist(x, y)`, or [`NO_PATH`] when the graph has no `x → y` path.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> i64 {
        debug_assert!(x < self.n && y < self.n);
        self.d[x * self.n + y]
    }

    /// Row `x` of the 32-bit mirror: `row32(x)[y]` is `MinDist(x, y)`
    /// narrowed under [`MIRROR_RANGE`], [`NO_PATH32`] where there is no path.
    #[inline]
    pub fn row32(&self, x: usize) -> &[i32] {
        &self.rows[x * self.n..(x + 1) * self.n]
    }

    /// Column `y` of the 32-bit mirror, stored contiguously: `col32(y)[x]`
    /// is `MinDist(x, y)` narrowed under [`MIRROR_RANGE`], [`NO_PATH32`]
    /// where there is no path.
    #[inline]
    pub fn col32(&self, y: usize) -> &[i32] {
        &self.cols[y * self.n..(y + 1) * self.n]
    }

    /// Recovers the matrix storage, for recycling through
    /// [`compute_into`](Self::compute_into).
    pub fn into_buf(self) -> Vec<i64> {
        self.d
    }
}

/// The allocations of one [`MinDist`] (matrix and both mirrors), pooled by
/// [`MinDistCache`] for the next compute.
#[derive(Debug, Default)]
struct Buffers {
    d: Vec<i64>,
    rows: Vec<i32>,
    cols: Vec<i32>,
}

/// Counters describing how a [`MinDistCache`] served its requests.
///
/// `misses == fw_computes` always: every miss runs one Floyd–Warshall.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinDistCacheStats {
    /// Requests answered from an already-built matrix.
    pub hits: u64,
    /// Requests that had to produce a new matrix.
    pub misses: u64,
    /// Misses served by a full fixed-II Floyd–Warshall.
    pub fw_computes: u64,
    /// Always 0: the parametric envelope tier was removed. Kept because
    /// the benchmark's traced replay still reads it.
    pub parametric_builds: u64,
    /// Always 0: the parametric envelope tier was removed. Kept because
    /// the benchmark's traced replay still reads it.
    pub materializations: u64,
}

#[derive(Default)]
struct CacheInner {
    /// Computed matrices for this problem, keyed by II. IIs are probed in a
    /// short monotone sequence per evaluation, so a small vector beats a map.
    entries: Vec<(u32, Arc<MinDist>)>,
    /// Retired matrix buffers available for reuse by the next compute.
    pool: Vec<Buffers>,
    stats: MinDistCacheStats,
}

/// Shares one [`MinDist`] per `(problem, II)` across everything that needs
/// it during a scheduling run: the scheduling engine's II search, pressure
/// measurement, the MinAvg bound, and diagnostic reports.
///
/// The cache is keyed by II only, so one cache must serve exactly one
/// [`SchedProblem`] — create a fresh cache per problem (they are cheap) or
/// call [`reset`](Self::reset) between problems to recycle the matrix
/// buffers. Interior mutability makes `get` usable through a shared
/// reference, and the lock is held across the compute so concurrent callers
/// asking for the same II still trigger exactly one build.
#[derive(Default)]
pub struct MinDistCache {
    inner: Mutex<CacheInner>,
}

impl MinDistCache {
    /// An empty cache with no retained buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The matrix for `(problem, ii)`, computing it on first request and
    /// returning the shared copy on every later one.
    pub fn get(&self, problem: &SchedProblem<'_>, ii: u32) -> Arc<MinDist> {
        let mut guard = self.inner.lock().expect("MinDist cache poisoned");
        let inner = &mut *guard;
        if let Some((_, md)) = inner.entries.iter().find(|(key, _)| *key == ii) {
            inner.stats.hits += 1;
            return Arc::clone(md);
        }
        inner.stats.misses += 1;
        inner.stats.fw_computes += 1;
        let bufs = inner.pool.pop().unwrap_or_default();
        let md = Arc::new(MinDist::compute_in(problem, ii, bufs));
        inner.entries.push((ii, Arc::clone(&md)));
        md
    }

    /// A snapshot of the request counters. The counters survive
    /// [`reset`](Self::reset), so they aggregate over every problem a
    /// recycled cache served.
    pub fn stats(&self) -> MinDistCacheStats {
        self.inner.lock().expect("MinDist cache poisoned").stats
    }

    /// Drops all entries so the cache can serve a different problem, moving
    /// each matrix buffer that is no longer shared into the reuse pool.
    /// The counters survive.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().expect("MinDist cache poisoned");
        let entries = std::mem::take(&mut inner.entries);
        for (_, md) in entries {
            if let Ok(md) = Arc::try_unwrap(md) {
                inner.pool.push(Buffers {
                    d: md.d,
                    rows: md.rows,
                    cols: md.cols,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    /// load -> fadd -> store chain.
    fn chain_body() -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("chain");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let add = b.op(OpKind::FAdd, &[x, x], Some(y));
        let st = b.op(OpKind::Store, &[a, y], None);
        b.flow_dep(ld, add, 0);
        b.flow_dep(add, st, 0);
        b.finish()
    }

    #[test]
    fn chain_distances_accumulate_latencies() {
        let body = chain_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let md = MinDist::compute(&p, 1);
        assert!(md.is_feasible());
        assert_eq!(md.get(0, 1), 13); // load latency
        assert_eq!(md.get(0, 2), 14); // + fadd latency
        assert_eq!(md.get(2, 0), NO_PATH);
        // Start -> store via the chain beats the direct 0-arc.
        assert_eq!(md.get(p.start(), 2), 14);
        // store -> Stop carries the store latency.
        assert_eq!(md.get(2, p.stop()), 1);
        assert_eq!(md.get(p.start(), p.stop()), 15);
    }

    #[test]
    fn omega_discounts_by_ii() {
        // fadd feeding itself two iterations later via a partner op.
        let mut b = LoopBuilder::new("rec");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FAdd, &[y, y], Some(x));
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0); // latency 1
        b.flow_dep(o2, o1, 2); // latency 2, omega 2
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        // Circuit length 3, omega 2: RecMII = ceil(3/2) = 2.
        assert_eq!(p.rec_mii(), 2);
        let md = MinDist::compute(&p, 2);
        assert!(md.is_feasible());
        assert_eq!(md.get(0, 1), 1);
        assert_eq!(md.get(1, 0), 2 - 2 * 2); // latency 2 − ω·II
        let md3 = MinDist::compute(&p, 3);
        assert_eq!(md3.get(1, 0), 2 - 2 * 3);
    }

    #[test]
    fn infeasible_ii_is_reported() {
        let mut b = LoopBuilder::new("rec");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FMul, &[y, y], Some(x)); // latency 2
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y)); // latency 2
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 1);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 4);
        assert!(!MinDist::compute(&p, 3).is_feasible());
        assert!(MinDist::compute(&p, 4).is_feasible());
    }

    #[test]
    fn diagonal_is_zero() {
        let body = chain_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let md = MinDist::compute(&p, 5);
        for i in 0..p.num_nodes() {
            assert_eq!(md.get(i, i), 0);
        }
    }

    #[test]
    fn estart_lstart_shape_on_sample() {
        // Estart(x) = MinDist(Start, x) is non-negative for every op.
        let body = chain_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let md = MinDist::compute(&p, 3);
        for i in 0..p.num_real_ops() {
            assert!(md.get(p.start(), i) >= 0);
            assert!(md.get(i, p.stop()) >= 0);
        }
    }

    #[test]
    fn cache_computes_each_ii_once_and_recycles_buffers() {
        let body = chain_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let cache = MinDistCache::new();
        let a = cache.get(&p, 3);
        let b = cache.get(&p, 3);
        let c = cache.get(&p, 4);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(a.get(0, 1), 13);
        // After dropping the outstanding handles, reset pools the buffers
        // and the next compute still answers correctly.
        drop((a, b, c));
        cache.reset();
        let d = cache.get(&p, 3);
        assert_eq!(d.get(0, 1), 13);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn cache_serves_every_miss_by_floyd_warshall() {
        // An escalation sweep across many IIs, with repeats: every distinct
        // II is one Floyd–Warshall, every repeat a hit, and the retired
        // envelope counters stay at zero.
        let body = chain_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let cache = MinDistCache::new();
        for ii in [3, 3, 5, 6, 7, 8, 5] {
            let md = cache.get(&p, ii);
            assert_eq!(md.ii(), ii);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.misses, stats.fw_computes);
        assert_eq!((stats.parametric_builds, stats.materializations), (0, 0));
        // Reset keeps the counters.
        cache.reset();
        assert_eq!(cache.stats().misses, 5);
    }

    /// Both 32-bit mirrors must equal the `i64` matrix cell for cell,
    /// with [`NO_PATH`] mapped to [`NO_PATH32`]. The bodies these tests
    /// use keep every distance well inside the mirror range.
    fn assert_mirrors_equal_the_matrix(md: &MinDist) {
        let n = md.n;
        for x in 0..n {
            assert_eq!(md.row32(x).len(), n);
            assert_eq!(md.col32(x).len(), n);
        }
        for x in 0..n {
            for y in 0..n {
                let w = md.get(x, y);
                let want = if w == NO_PATH {
                    NO_PATH32
                } else {
                    i32::try_from(w).expect("test distances fit i32")
                };
                assert_eq!(md.row32(x)[y], want, "row32({x})[{y}] vs get = {w}");
                assert_eq!(md.col32(y)[x], want, "col32({y})[{x}] vs get = {w}");
            }
        }
    }

    #[test]
    fn mirrors_equal_the_matrix_on_a_chain() {
        let body = chain_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let md = MinDist::compute(&p, 3);
        assert_mirrors_equal_the_matrix(&md);
        // The chain carries both finite distances and NO_PATH cells.
        assert_eq!(md.row32(0)[1], 13);
        assert_eq!(md.col32(1)[0], 13);
        assert_eq!(md.row32(2)[0], NO_PATH32);
        assert_eq!(md.col32(0)[2], NO_PATH32);
    }

    #[test]
    fn mirrors_equal_the_matrix_on_a_recurrence() {
        // A recurrence keeps some cells NO_PATH and some negative; the
        // mirrors must carry both exactly, at every feasible II.
        let mut b = LoopBuilder::new("rec");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FMul, &[y, y], Some(x));
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 1);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        for ii in p.rec_mii()..p.rec_mii() + 4 {
            let md = MinDist::compute(&p, ii);
            assert!(md.get(1, 0) < 0);
            assert_mirrors_equal_the_matrix(&md);
        }
    }

    /// Two fmuls in a recurrence whose back arc spans `omega` iterations.
    fn long_omega_body(omega: u32) -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("far");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FMul, &[y, y], Some(x));
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, omega);
        b.finish()
    }

    #[test]
    fn distances_below_the_mirror_range_saturate_and_keep_bounds_exact() {
        // ω = 3·10⁹ at II ≥ 1 puts MinDist(o2, o1) = 2 − ω·II below
        // i32::MIN: a bare `as i32` would wrap it to a large *positive*
        // distance, a constraint that does not exist.
        let body = long_omega_body(3_000_000_000);
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let md = MinDist::compute(&p, 1);
        let far = md.get(1, 0);
        assert!(far < i64::from(i32::MIN), "{far}");
        assert!(far as i32 > 0, "the naive narrowing must wrap positive");
        // The checked narrowing saturates at the mirror floor instead.
        assert_eq!(md.row32(1)[0], -MIRROR_RANGE);
        assert_eq!(md.col32(0)[1], -MIRROR_RANGE);
        // Every in-range cell is still exact.
        for x in 0..p.num_nodes() {
            for y in 0..p.num_nodes() {
                let w = md.get(x, y);
                if w != NO_PATH && w >= -i64::from(MIRROR_RANGE) {
                    assert_eq!(i64::from(md.row32(x)[y]), w);
                    assert_eq!(i64::from(md.col32(y)[x]), w);
                }
            }
        }
        // The engine's test builds compare every bounds update and victim
        // sweep against the dense i64 reference on `get()`, so these runs
        // show the saturated mirrors give the i64 bounds exactly: in the
        // pipelined escalation of all three heuristics and in
        // straight-line mode, whose huge II horizon discounts ω further.
        let cache = MinDistCache::new();
        let slack = crate::SlackScheduler::new();
        let early = crate::SlackScheduler::with_config(crate::SlackConfig {
            direction: crate::DirectionPolicy::AlwaysEarly,
            ..crate::SlackConfig::default()
        });
        for s in [
            slack.run_cached(&p, &cache),
            early.run_cached(&p, &cache),
            crate::CydromeScheduler::new().run_cached(&p, &cache),
            slack.run_straight_line(&p),
        ] {
            let s = s.expect("schedulable");
            assert_eq!(crate::validate(&p, &s), Ok(()));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the i32 mirror range")]
    fn distances_above_the_mirror_range_are_rejected() {
        // A latency past the mirror range is a real constraint that no
        // i32 can carry: building the mirrors must fail loudly.
        let mut mb = lsms_machine::MachineBuilder::new("slow");
        let alu = mb.class("ALU", 1);
        mb.pipelined(alu, 1 << 30, &[OpKind::FMul]);
        let m = mb.finish();
        let body = long_omega_body(1);
        let p = SchedProblem::new(&body, &m).unwrap();
        MinDist::compute(&p, p.mii());
    }

    #[test]
    fn recycled_buffers_rebuild_the_mirrors() {
        // A cache reset hands a larger problem's matrix and mirrors to the
        // next compute: nothing of them may leak into the new mirrors.
        let m = huff_machine();
        let (chain, pair) = (chain_body(), long_omega_body(2));
        let big = SchedProblem::new(&chain, &m).unwrap();
        let small = SchedProblem::new(&pair, &m).unwrap();
        assert!(big.num_nodes() > small.num_nodes());
        let cache = MinDistCache::new();
        drop(cache.get(&big, 3));
        cache.reset();
        let md = cache.get(&small, 3);
        assert_mirrors_equal_the_matrix(&md);
        let fresh = MinDist::compute(&small, 3);
        for x in 0..small.num_nodes() {
            assert_eq!(md.row32(x), fresh.row32(x));
            assert_eq!(md.col32(x), fresh.col32(x));
        }
    }

    #[test]
    fn compute_into_matches_compute() {
        let body = chain_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let fresh = MinDist::compute(&p, 2);
        // A dirty oversized buffer must not leak stale entries.
        let dirty = vec![42i64; 1000];
        let reused = MinDist::compute_into(&p, 2, dirty);
        assert_eq!(fresh.is_feasible(), reused.is_feasible());
        for x in 0..p.num_nodes() {
            for y in 0..p.num_nodes() {
                assert_eq!(fresh.get(x, y), reused.get(x, y));
            }
        }
    }
}
