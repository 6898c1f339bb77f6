//! The engine's 32-bit mirror kernels against the dense `i64` reference,
//! over seeded random dependence graphs and the paper corpus.
//!
//! Bounds maintenance on the narrowed MinDist mirrors must be a pure cost
//! optimisation: same bounds, same ejection sequences, same schedules as
//! the `i64` matrix gives. In this crate's test builds every bounds
//! routine of the engine also runs the dense reference on `MinDist::get`
//! and asserts equality, so each case here is checked at every update of
//! every attempt; the suites make sure the cases actually exercise the
//! ejection path (where the from-scratch refreshes run) and that recycled
//! workspaces leak nothing between runs.

use lsms_ir::{LoopBody, LoopBuilder, OpKind, ValueType};
use lsms_machine::huff_machine;
use lsms_prng::SmallRng;

use crate::{
    validate, CydromeScheduler, DirectionPolicy, EngineWorkspace, MinDistCache, SchedProblem,
    Schedule, SlackConfig, SlackScheduler,
};

/// A random DAG-with-back-arcs body (same construction as the MinDist
/// property suites).
fn body_from(arcs: &[(u8, u8, u8)], n: usize) -> LoopBody {
    let mut b = LoopBuilder::new("g");
    let fin = b.invariant(ValueType::Float, "fin");
    let ops: Vec<_> = (0..n)
        .map(|_| {
            let v = b.new_value(ValueType::Float);
            b.op(OpKind::FMul, &[fin, fin], Some(v))
        })
        .collect();
    for &(from, to, omega) in arcs {
        let (f, t) = (from as usize % n, to as usize % n);
        // Keep zero-omega arcs forward so no zero-omega cycle forms.
        let omega = if t <= f {
            u32::from(omega % 3) + 1
        } else {
            u32::from(omega % 3)
        };
        b.flow_dep(ops[f], ops[t], omega);
    }
    b.finish()
}

/// 1..`max_arcs` random arcs of (from, to, omega) with small endpoints.
fn random_arcs(rng: &mut SmallRng, ends: u8, max_arcs: usize) -> Vec<(u8, u8, u8)> {
    let count = rng.gen_range(1..=max_arcs);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..ends),
                rng.gen_range(0..ends),
                rng.gen_range(0..3u8),
            )
        })
        .collect()
}

/// Everything observable about a schedule that must not move between
/// runs: the result itself and the deterministic work counters
/// (`elapsed` is wall-clock by design).
type Fingerprint = (u32, Vec<i64>, Vec<(usize, u32)>, [u64; 6], u32);

fn fingerprint(s: &Schedule) -> Fingerprint {
    (
        s.ii,
        s.times.clone(),
        s.assignments
            .iter()
            .map(|a| (a.class.index(), a.instance))
            .collect(),
        [
            s.stats.central_iterations,
            s.stats.step3_invocations,
            s.stats.ejected_ops,
            s.stats.step6_restarts,
            s.stats.bounds_cells_touched,
            s.stats.choose_scan_len,
        ],
        s.stats.attempts,
    )
}

#[test]
fn slack_bounds_match_the_dense_reference() {
    let scheduler = SlackScheduler::new();
    let mut ejection_cases = 0u32;
    for case in 0u64..96 {
        let mut rng = SmallRng::seed_from_u64(0x5ba7 + case);
        let arcs = random_arcs(&mut rng, 12, 23);
        let body = body_from(&arcs, 12);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let (res, _) = scheduler.run_in(
            &problem,
            &MinDistCache::new(),
            None,
            &mut EngineWorkspace::new(),
        );
        let sched = res.unwrap_or_else(|e| panic!("case {case}: {e:?}"));
        assert_eq!(validate(&problem, &sched), Ok(()), "case {case}");
        assert!(sched.stats.bounds_cells_touched > 0, "case {case}");
        if sched.stats.ejected_ops > 0 {
            ejection_cases += 1;
        }
    }
    // The suite is only meaningful if the backtracking path (forced
    // placements + dependence ejections + recompute_bounds) runs.
    assert!(
        ejection_cases >= 8,
        "only {ejection_cases} ejection-heavy cases; the sweep no longer \
         exercises the §4.4 path"
    );
}

#[test]
fn cydrome_bounds_match_the_dense_reference() {
    let scheduler = CydromeScheduler::new();
    for case in 0u64..48 {
        let mut rng = SmallRng::seed_from_u64(0xcd40 + case);
        let arcs = random_arcs(&mut rng, 10, 19);
        let body = body_from(&arcs, 10);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let sched = scheduler
            .run_cached_in(&problem, &MinDistCache::new(), &mut EngineWorkspace::new())
            .unwrap_or_else(|e| panic!("case {case}: {e:?}"));
        assert_eq!(validate(&problem, &sched), Ok(()), "case {case}");
    }
}

/// Workspace recycling across problems must not leak ready-set or shadow
/// state between runs: one long-lived workspace over the whole sweep
/// produces the same schedules as a fresh workspace per problem.
#[test]
fn recycled_workspaces_preserve_schedules() {
    let scheduler = SlackScheduler::new();
    let mut recycled = EngineWorkspace::new();
    for case in 0u64..32 {
        let mut rng = SmallRng::seed_from_u64(0x2ec1 + case);
        let arcs = random_arcs(&mut rng, 12, 23);
        let body = body_from(&arcs, 12);
        let machine = huff_machine();
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        // Caches serve exactly one problem; only the workspace persists.
        let (a, _) = scheduler.run_in(
            &problem,
            &MinDistCache::new(),
            None,
            &mut EngineWorkspace::new(),
        );
        let (b, _) = scheduler.run_in(&problem, &MinDistCache::new(), None, &mut recycled);
        let a = a.expect("fresh-workspace run");
        let b = b.expect("recycled-workspace run");
        assert_eq!(fingerprint(&a), fingerprint(&b), "case {case}");
    }
}

/// Per-heuristic totals of a corpus sweep.
#[derive(Debug, Default)]
struct SweepTotals {
    scheduled: u32,
    ejections: u64,
}

/// The first `size` loops of the seed-1993 corpus through the three
/// heuristics (slack, always-early, cydrome), one workspace per heuristic
/// recycled across the loops: every bounds update of every attempt is
/// checked against the dense reference, and every schedule validated.
fn corpus_sweep(size: usize) -> [SweepTotals; 3] {
    let machine = huff_machine();
    let slack = SlackScheduler::new();
    let early = SlackScheduler::with_config(SlackConfig {
        direction: DirectionPolicy::AlwaysEarly,
        ..SlackConfig::default()
    });
    let cydrome = CydromeScheduler::new();
    let mut ws: [EngineWorkspace; 3] = Default::default();
    let mut totals: [SweepTotals; 3] = Default::default();
    for l in lsms_loops::corpus(size, 1993) {
        let Ok(problem) = SchedProblem::new(&l.body, &machine) else {
            continue;
        };
        let results = [
            slack
                .run_in(&problem, &MinDistCache::new(), None, &mut ws[0])
                .0,
            early
                .run_in(&problem, &MinDistCache::new(), None, &mut ws[1])
                .0,
            cydrome.run_cached_in(&problem, &MinDistCache::new(), &mut ws[2]),
        ];
        for (result, total) in results.into_iter().zip(&mut totals) {
            if let Ok(s) = result {
                assert_eq!(validate(&problem, &s), Ok(()), "{}", l.def.name);
                total.scheduled += 1;
                total.ejections += s.stats.ejected_ops;
            }
        }
    }
    totals
}

/// The first 120 loops of the corpus through all three heuristics.
#[test]
fn corpus_slice_bounds_match_the_dense_reference() {
    let totals = corpus_sweep(120);
    for (name, t) in ["slack", "early", "cydrome"].iter().zip(&totals) {
        assert!(
            t.scheduled >= 100,
            "{name}: only {} of 120 loops scheduled",
            t.scheduled
        );
        assert!(
            t.ejections > 0,
            "{name}: no corpus loop exercised the §4.4 path"
        );
    }
}

/// The whole 1,525-loop corpus through all three heuristics under the
/// dense cross-check. Slow in debug builds; run it with
/// `cargo test --release -p lsms-sched --lib -- --ignored`.
#[test]
#[ignore = "full corpus; run in release with --ignored"]
fn full_corpus_bounds_match_the_dense_reference() {
    let totals = corpus_sweep(1525);
    for (name, t) in ["slack", "early", "cydrome"].iter().zip(&totals) {
        assert!(
            t.scheduled >= 1500,
            "{name}: only {} of 1525 loops scheduled",
            t.scheduled
        );
        assert!(
            t.ejections > 0,
            "{name}: no corpus loop exercised the §4.4 path"
        );
    }
}
