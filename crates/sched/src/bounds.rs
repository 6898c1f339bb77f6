//! Absolute lower bounds on II (§3.1): `ResMII`, `RecMII`, and `MII`.
//!
//! `RecMII` is `max ⌈L / Ω⌉` over elementary recurrence circuits with total
//! latency `L` and total iteration distance `Ω`. The paper gives two ways
//! to compute it: enumerating the circuits (it cites Tiernan), or the
//! minimum cost-to-time ratio (Lawler). Enumeration is exponential in the
//! worst case, so the crate ships only the polynomial min-ratio method —
//! the smallest `II` for which no circuit has positive weight under arc
//! weights `latency − ω·II`, found by binary search with a Bellman–Ford
//! positive-cycle test; valid because circuit weights are non-increasing
//! in `II`. Johnson's enumeration survives as the oracle in the
//! property tests.

use lsms_ir::{tarjan_scc, LoopBody};
use lsms_machine::{critical_classes, Machine};

use crate::SchedProblem;

/// Re-export of the resource-contention bound (computed in `lsms-machine`).
pub use lsms_machine::res_mii;

/// `MII = max(ResMII, RecMII)`: the absolute lower bound on the initiation
/// interval. In practice almost all loops achieve it (§3.1).
pub fn mii(problem: &SchedProblem<'_>) -> u32 {
    problem.mii()
}

/// The recurrence-circuit bound on II by the minimum cost-to-time-ratio
/// method (§3.1, citing Lawler): binary search for the smallest II at which
/// Bellman–Ford finds no positive cycle under weights `latency − ω·II`.
///
/// Returns `None` when some circuit has `Ω = 0` but positive latency: its
/// weight stays positive at every II, so no initiation interval can
/// satisfy it (the loop body is malformed).
pub fn rec_mii(problem: &SchedProblem<'_>) -> Option<u32> {
    let n = problem.num_real_ops();
    if n == 0 {
        return Some(1);
    }
    // Only real arcs can be on circuits (Start has no in-arcs, Stop no
    // out-arcs).
    let arcs: Vec<_> = problem
        .arcs()
        .iter()
        .filter(|a| a.from < n && a.to < n)
        .collect();
    let has_positive_cycle = |ii: i64| -> bool {
        // Longest-path Bellman–Ford from a virtual source connected to all
        // nodes with weight 0: dist starts at 0 everywhere.
        let mut dist = vec![0i64; n];
        for round in 0..=n {
            let mut changed = false;
            for arc in &arcs {
                let w = arc.latency - i64::from(arc.omega) * ii;
                if dist[arc.from] + w > dist[arc.to] {
                    dist[arc.to] = dist[arc.from] + w;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
            if round == n {
                return true;
            }
        }
        false
    };
    let max_latency: i64 = arcs.iter().map(|a| a.latency.max(0)).sum::<i64>().max(1);
    if has_positive_cycle(max_latency) {
        return None; // a zero-ω circuit keeps its positive weight forever
    }
    let (mut lo, mut hi) = (1i64, max_latency); // hi is feasible
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo as u32)
}

/// Number of operations lying on non-trivial recurrence circuits (Table 2's
/// "# Ops on Recurrences"): members of dependence-graph SCCs of size ≥ 2.
pub fn ops_on_recurrences(body: &LoopBody) -> usize {
    tarjan_scc(body)
        .into_iter()
        .filter(|scc| scc.len() >= 2)
        .map(|scc| scc.len())
        .sum()
}

/// Number of operations using a critical resource at the given II
/// (Table 2's "# Critical Ops at MII"); see
/// [`critical_classes`] for the 0.90·II
/// rule.
pub fn critical_ops(machine: &Machine, body: &LoopBody, ii: u32) -> usize {
    let critical = critical_classes(machine, body, ii);
    body.ops()
        .iter()
        .filter(|op| critical[machine.desc(op.kind).class.index()])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    fn ring(k: usize, omega_back: u32) -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("ring");
        let mut vals = Vec::new();
        let mut ops = Vec::new();
        let seed = b.invariant(ValueType::Float, "seed");
        for i in 0..k {
            let v = b.new_value(ValueType::Float);
            let prev = *vals.last().unwrap_or(&seed);
            let o = b.op(OpKind::FAdd, &[prev, seed], Some(v));
            vals.push(v);
            if i > 0 {
                b.flow_dep(ops[i - 1], o, 0);
            }
            ops.push(o);
        }
        b.flow_dep(ops[k - 1], ops[0], omega_back);
        b.finish()
    }

    #[test]
    fn ring_rec_mii_is_ceiling_of_latency_over_omega() {
        let m = huff_machine();
        // 5 fadds, latency 1 each: L = 5, omega 2 -> ceil(5/2) = 3.
        let body = ring(5, 2);
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 3);
        // omega 1 -> 5.
        let body = ring(5, 1);
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 5);
    }

    #[test]
    fn self_arc_bounds_rec_mii() {
        let m = huff_machine();
        let mut b = LoopBuilder::new("acc");
        let f = b.invariant(ValueType::Float, "f");
        let s = b.new_value(ValueType::Float);
        let o = b.op(OpKind::FMul, &[s, f], Some(s)); // latency 2
        b.flow_dep(o, o, 1);
        let body = b.finish();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 2);
    }

    #[test]
    fn acyclic_rec_mii_is_one() {
        let m = huff_machine();
        let mut b = LoopBuilder::new("line");
        let f = b.invariant(ValueType::Float, "f");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FMul, &[f, f], Some(x));
        let o2 = b.op(OpKind::FAdd, &[x, f], Some(y));
        b.flow_dep(o1, o2, 0);
        let body = b.finish();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 1);
    }

    #[test]
    fn overlapping_circuits_take_the_max() {
        let m = huff_machine();
        // Two circuits sharing op0: (0,1) omega 1 lat 2+2=4 -> 4, and
        // (0,1,2) omega 3, lat 6 -> 2.
        let mut b = LoopBuilder::new("two");
        let v0 = b.new_value(ValueType::Float);
        let v1 = b.new_value(ValueType::Float);
        let v2 = b.new_value(ValueType::Float);
        let o0 = b.op(OpKind::FMul, &[v1, v1], Some(v0));
        let o1 = b.op(OpKind::FMul, &[v0, v2], Some(v1));
        let o2 = b.op(OpKind::FMul, &[v1, v1], Some(v2));
        b.flow_dep(o0, o1, 0);
        b.flow_dep(o1, o0, 1);
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 3); // hmm: circuit 0->1->0 and 1->2->1
        let body = b.finish();
        let p = SchedProblem::new(&body, &m).unwrap();
        // Circuit A: o0->o1 (lat 2, w 0) + o1->o0 (lat 2, w 1): 4/1 = 4.
        // Circuit B: o1->o2 (lat 2, w 0) + o2->o1 (lat 2, w 3): ceil(4/3)=2.
        assert_eq!(p.rec_mii(), 4);
    }

    #[test]
    fn parallel_arcs_yield_distinct_circuits() {
        let m = huff_machine();
        let mut b = LoopBuilder::new("par");
        let v0 = b.new_value(ValueType::Float);
        let v1 = b.new_value(ValueType::Float);
        let o0 = b.op(OpKind::FMul, &[v1, v1], Some(v0));
        let o1 = b.op(OpKind::FMul, &[v0, v0], Some(v1));
        b.flow_dep(o0, o1, 0);
        b.flow_dep(o1, o0, 4); // ratio (2+2)/4 = 1
        b.flow_dep(o1, o0, 1); // ratio (2+2)/1 = 4  <- tighter
        let body = b.finish();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.rec_mii(), 4);
    }

    #[test]
    fn complete_digraph_rec_mii_is_the_op_latency() {
        // Ten fmuls (latency 2), an ω = 1 arc between every ordered pair:
        // Σ C(10,k)·(k−1)! = 1 112 073 elementary circuits, each of k ops
        // with L = 2k and Ω = k, so RecMII = 2 by hand — the input class
        // circuit enumeration could not finish in reasonable time.
        let m = huff_machine();
        let mut b = LoopBuilder::new("complete");
        let f = b.invariant(ValueType::Float, "f");
        let ops: Vec<_> = (0..10)
            .map(|_| {
                let v = b.new_value(ValueType::Float);
                b.op(OpKind::FMul, &[f, f], Some(v))
            })
            .collect();
        for &from in &ops {
            for &to in &ops {
                if from != to {
                    b.flow_dep(from, to, 1);
                }
            }
        }
        let body = b.finish();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(rec_mii(&p), Some(2));
        assert_eq!(p.rec_mii(), 2);
    }

    #[test]
    fn ops_on_recurrences_counts_scc_members() {
        let body = ring(5, 2);
        assert_eq!(ops_on_recurrences(&body), 5);
        let mut b = LoopBuilder::new("none");
        let f = b.invariant(ValueType::Float, "f");
        let x = b.new_value(ValueType::Float);
        b.op(OpKind::FAdd, &[f, f], Some(x));
        assert_eq!(ops_on_recurrences(&b.finish()), 0);
    }

    #[test]
    fn critical_ops_at_mii() {
        let m = huff_machine();
        // Four loads on two ports: ResMII = 2, loads are critical
        // (4/2 = 2 >= 0.9*2); the lone fadd is not.
        let mut b = LoopBuilder::new("c");
        let a = b.invariant(ValueType::Addr, "a");
        for _ in 0..4 {
            let x = b.new_value(ValueType::Float);
            b.op(OpKind::Load, &[a], Some(x));
        }
        let f = b.new_value(ValueType::Float);
        let g = b.new_value(ValueType::Float);
        b.op(OpKind::FAdd, &[f, f], Some(g));
        let body = b.finish();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(p.mii(), 2);
        assert_eq!(critical_ops(&m, &body, 2), 4);
    }
}
