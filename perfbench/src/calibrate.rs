//! The machine-speed probe: a fixed piece of work that belongs to the
//! benchmark, not to the program under test, timed between the loops a
//! pass compiles.
//!
//! The benchmark runs on a machine shared with other tenants. There the
//! same code runs up to half slower for minutes at a time, and the thread's
//! CPU time slows with its wall time: the loss is in the shared core,
//! caches and memory, not in time the thread spends descheduled. No
//! repetition inside a run of 30 seconds removes a slowdown that lasts the
//! whole run. The probe measures how fast the machine is while the loops
//! compile, and the timed metrics are given at a fixed reference speed: a
//! time measured while the probe took `t` seconds is scaled by
//! `NOMINAL_PROBE_S / t`.
//!
//! The probe does the kind of work the compiler spends most of its time
//! on: it closes small dependence-like graphs with all-pairs shortest
//! paths, on a buffer it owns. Its code must never change: a change would
//! move every timed metric.

use std::time::Instant;

use crate::stats::median;

/// Seconds one probe round takes at the reference speed, about the fastest
/// median of a run seen on a two-thread x86-64 box (Xeon at 2.0 GHz).
/// Timed metrics are reported at this speed.
pub const NOMINAL_PROBE_S: f64 = 0.25e-3;

/// Probes on each side of a loop whose median gives the machine's speed
/// while the loop compiled.
const WINDOW: usize = 16;

/// Nodes of each of the probe's graphs.
const NODES: usize = 40;
/// Graphs closed per round.
const GRAPHS: usize = 3;
/// "No path" in the distance matrix.
const FAR: i64 = i64::MAX / 4;

/// The probe's state: its buffer, its generator and a sink that keeps the
/// work alive.
pub struct Probe {
    dist: Vec<i64>,
    state: u64,
    sink: u64,
}

impl Probe {
    /// A probe with its buffer allocated.
    pub fn new() -> Probe {
        Probe {
            dist: vec![FAR; NODES * NODES],
            state: 0x9e37_79b9_7f4a_7c15,
            sink: 0,
        }
    }

    /// Seconds one round of the probe's fixed work takes now.
    pub fn time(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..GRAPHS {
            self.close_graph();
        }
        started.elapsed().as_secs_f64()
    }

    /// Draws a sparse graph of [`NODES`] nodes with three arcs out of each
    /// and closes it with Floyd–Warshall. Every graph costs about the same;
    /// the graphs differ so that nothing can be computed once.
    fn close_graph(&mut self) {
        let s = &mut self.state;
        let d = &mut self.dist;
        d.fill(FAR);
        for i in 0..NODES {
            d[i * NODES + i] = 0;
            for _ in 0..3 {
                let r = next(s);
                let j = (r % NODES as u64) as usize;
                let w = (r >> 32) as i64 % 13 - 2;
                d[i * NODES + j] = d[i * NODES + j].min(w.max(0));
            }
        }
        for k in 0..NODES {
            for i in 0..NODES {
                let dik = d[i * NODES + k];
                if dik == FAR {
                    continue;
                }
                for j in 0..NODES {
                    let via = dik + d[k * NODES + j];
                    if via < d[i * NODES + j] {
                        d[i * NODES + j] = via;
                    }
                }
            }
        }
        let pick = (self.sink % (NODES * NODES) as u64) as usize;
        self.sink = self.sink.wrapping_mul(31).wrapping_add(d[pick] as u64 ^ *s);
        std::hint::black_box(self.sink);
    }
}

/// xorshift64: the probe's own generator, fixed with the probe.
fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The factor that takes a time measured at the speed the `probes` show to
/// the reference speed.
pub fn to_reference(probes: &[f64]) -> f64 {
    NOMINAL_PROBE_S / median(probes)
}

/// Per loop of a pass of `loops` loops, the factor that takes its latency
/// to the reference speed. `probes` holds, in order, the index of the loop
/// compiled after each probe and the probe's seconds; the first probe comes
/// before loop 0. A loop's factor comes from the median of the
/// [`WINDOW`] probes on each side of the last probe before it, so it
/// follows the machine's speed through the pass.
///
/// # Panics
///
/// Panics when there are loops but no probes.
pub fn loop_factors(probes: &[(usize, f64)], loops: usize) -> Vec<f64> {
    let times: Vec<f64> = probes.iter().map(|&(_, t)| t).collect();
    let mut last = 0;
    (0..loops)
        .map(|loop_index| {
            while last + 1 < probes.len() && probes[last + 1].0 <= loop_index {
                last += 1;
            }
            let window = last.saturating_sub(WINDOW)..(last + WINDOW + 1).min(times.len());
            to_reference(&times[window])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_takes_time() {
        let mut p = Probe::new();
        assert!(p.time() > 0.0);
    }

    #[test]
    fn a_machine_twice_as_slow_halves_the_factor() {
        let probes: Vec<(usize, f64)> = (0..10).map(|i| (i * 3, 2.0 * NOMINAL_PROBE_S)).collect();
        let factors = loop_factors(&probes, 30);
        assert_eq!(factors.len(), 30);
        assert!(factors.iter().all(|&f| (f - 0.5).abs() < 1e-12));
    }

    #[test]
    fn a_loop_takes_the_speed_of_the_probes_around_it() {
        // A pass that ran at reference speed for its first 100 loops and
        // at half speed for the next 100, probed before every loop.
        let probes: Vec<(usize, f64)> = (0..200)
            .map(|i| {
                let slow = if i < 100 { 1.0 } else { 2.0 };
                (i, slow * NOMINAL_PROBE_S)
            })
            .collect();
        let factors = loop_factors(&probes, 200);
        assert!((factors[10] - 1.0).abs() < 1e-12);
        assert!((factors[190] - 0.5).abs() < 1e-12);
        // Loops between probes take the last probe's window.
        let sparse: Vec<(usize, f64)> = vec![(0, NOMINAL_PROBE_S), (50, NOMINAL_PROBE_S)];
        assert_eq!(loop_factors(&sparse, 80).len(), 80);
    }
}
