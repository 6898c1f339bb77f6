//! The untraced timed phase: whole passes over a workload's sources, each
//! in a fresh `CompileSession`, one loop at a time from a single client
//! thread (a closed loop with one client).

use std::time::Instant;

use lsms_front::CompiledLoop;
use lsms_ir::OpKind;
use lsms_pipeline::{CompileSession, LoopArtifacts, LoopEvaluation, LsmsError, SchedOutcome};
use lsms_sched::SchedStats;

use crate::calibrate::Probe;
use crate::stats::RunTally;
use crate::workload::{Workload, TRIP};

/// What one scheduler run produced, as the replay must reproduce it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunRecord {
    /// Achieved II, `None` when the backend returned no schedule.
    pub ii: Option<u32>,
    /// RR-file MaxLive of the schedule, when there is one.
    pub max_live: Option<u32>,
}

/// Work counters summed over a pass's scheduler runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// II values attempted.
    pub attempts: u64,
    /// Central-loop iterations.
    pub central_iterations: u64,
    /// Operations ejected.
    pub ejected_ops: u64,
    /// MinDist cells read by bounds propagation.
    pub bounds_cells_touched: u64,
    /// Ready-set entries scanned by `choose`.
    pub choose_scan_len: u64,
    /// Runs that produced a schedule.
    pub schedules: u64,
}

impl EngineCounts {
    /// Adds one run's counters.
    pub fn add(&mut self, stats: &SchedStats, scheduled: bool) {
        self.attempts += u64::from(stats.attempts);
        self.central_iterations += stats.central_iterations;
        self.ejected_ops += stats.ejected_ops;
        self.bounds_cells_touched += stats.bounds_cells_touched;
        self.choose_scan_len += stats.choose_scan_len;
        self.schedules += u64::from(scheduled);
    }
}

/// MinDist cache counters, as the session's `mindist` entry reports them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinDistCounts {
    /// Requests answered from a built matrix.
    pub hits: u64,
    /// Requests that built a matrix.
    pub misses: u64,
    /// Misses served by Floyd–Warshall.
    pub fw_computes: u64,
    /// Misses served by the parametric envelope.
    pub materialized: u64,
    /// Parametric envelope builds.
    pub parametric_builds: u64,
}

/// Everything a pass computes that must repeat exactly for the same seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// ΣII of the bidirectional slack schedules (last II tried on failure).
    pub sum_ii: u64,
    /// ΣMaxLive (RR file) of the bidirectional slack schedules.
    pub sum_maxlive: u64,
    /// Cycles of the generated pipelined loops at [`TRIP`] iterations.
    pub sim_cycles: u64,
    /// Instructions of the generated code, prologue and epilogue included.
    pub code_insts: u64,
    /// Scheduler runs attempted and failed.
    pub runs: RunTally,
    /// Engine work counters.
    pub engine: EngineCounts,
    /// MinDist cache counters.
    pub mindist: MinDistCounts,
    /// Schedule-cache (memo) hits.
    pub sched_cache_hits: u64,
}

/// One untraced pass.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Seconds from the first loop submitted to the last one completed,
    /// less the time spent in machine-speed probes.
    pub wall_s: f64,
    /// Per-loop wall time around `compile_source` plus the evaluate or
    /// `run_loop` call, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Machine-speed probes taken between the loops: the index of the
    /// loop compiled next, and the probe's seconds.
    pub probes: Vec<(usize, f64)>,
    /// Per loop, the scheduler runs in backend order (`None` when the
    /// pipeline returned an error for the loop).
    pub records: Vec<Option<Vec<RunRecord>>>,
    /// The pass's exactly repeatable results.
    pub digest: Digest,
    /// Loops whose pipeline call returned an error or failed a check.
    pub checks: Checks,
}

/// Instructions `lsms_codegen::emit` produces for a loop: one per
/// operation except the loop-closing branch, which is implicit in the
/// kernel's loop control.
pub fn kernel_insts(compiled: &CompiledLoop) -> u64 {
    compiled
        .body
        .ops()
        .iter()
        .filter(|op| op.kind != OpKind::Brtop)
        .count() as u64
}

/// Instructions of a pipelined loop without modulo variable expansion: the
/// kernel plus a prologue and an epilogue of `stages − 1` copies each, as
/// `MveKernel::total_insts` counts them at unroll 1. It grows with the
/// stage count the scheduler picks.
pub fn ramped_insts(kernel_insts: u64, stages: u32) -> u64 {
    kernel_insts * (2 * u64::from(stages.max(1)) - 1)
}

/// Cycles a pipelined loop with `stages` stages at `ii` runs for
/// [`TRIP`] iterations: `(trip + stages − 1) · II`.
pub fn pipeline_cycles(ii: u32, stages: u32) -> u64 {
    (TRIP + u64::from(stages) - 1) * u64::from(ii)
}

/// The run's sources, pass by pass: the population generated and shuffled
/// by the seed. Input generation is the benchmark's own work, so no metric
/// times it.
pub fn sources(workload: Workload, seed: u64, seconds: u64) -> Vec<Vec<String>> {
    workload.draw(&workload.population(seconds), seed)
}

/// Sessions built back to back per [`setup_seconds`] sample: one set-up
/// takes microseconds, too little for a single clock reading.
const SETUP_BATCH: usize = 64;

/// Seconds one session set-up takes: `CompileSession::new`, which resolves
/// the backends from the registry, plus `validate`, averaged over
/// [`SETUP_BATCH`] set-ups. The configuration is built beforehand and the
/// sessions are dropped after the clock stops.
///
/// # Panics
///
/// Panics when the workload's session configuration does not validate,
/// which is a bug in the benchmark.
pub fn setup_seconds(workload: Workload) -> f64 {
    let configs = vec![workload.session_config(); SETUP_BATCH];
    let mut sessions = Vec::with_capacity(SETUP_BATCH);
    let started = Instant::now();
    for config in configs {
        let session = CompileSession::new(config);
        session
            .validate()
            .expect("the workload's backend configuration is valid");
        sessions.push(session);
    }
    let elapsed = started.elapsed().as_secs_f64();
    drop(sessions);
    elapsed / SETUP_BATCH as f64
}

/// Seconds of compiling between two machine-speed probes.
const PROBE_EVERY_S: f64 = 5e-3;

/// Runs one pass of `workload` over `sources` in a fresh session. With a
/// `probe`, times it before the first loop and after every
/// [`PROBE_EVERY_S`] of compiling.
pub fn run_pass(workload: Workload, sources: &[String], mut probe: Option<&mut Probe>) -> Pass {
    let session = CompileSession::new(workload.session_config());
    let mut pass = Pass {
        wall_s: 0.0,
        latencies_ms: Vec::with_capacity(sources.len()),
        probes: Vec::new(),
        records: Vec::with_capacity(sources.len()),
        digest: Digest::default(),
        checks: Checks::default(),
    };
    let timed = Instant::now();
    let mut since_probe = f64::INFINITY;
    for (index, source) in sources.iter().enumerate() {
        if let Some(probe) = probe
            .as_deref_mut()
            .filter(|_| since_probe >= PROBE_EVERY_S)
        {
            pass.probes.push((index, probe.time()));
            since_probe = 0.0;
        }
        let t0 = Instant::now();
        let result = session.compile_source(source).and_then(|unit| {
            let compiled = one_loop(unit.loops)?;
            let done = if workload.is_evaluation() {
                Done::Evaluated(Box::new(session.evaluate_variants(&compiled, false)?))
            } else {
                Done::Compiled(Box::new(session.run_loop(&compiled)))
            };
            Ok((compiled, done))
        });
        let latency = t0.elapsed().as_secs_f64();
        since_probe += latency;
        pass.latencies_ms.push(latency * 1e3);
        let record = match result {
            Ok((compiled, Done::Evaluated(eval))) => pass.add_evaluation(index, &compiled, &eval),
            Ok((_, Done::Compiled(art))) => pass.add_compiled(index, *art),
            Err(e) => pass.add_error(index, workload, &e),
        };
        pass.records.push(record);
    }
    pass.wall_s = timed.elapsed().as_secs_f64() - pass.probes.iter().map(|p| p.1).sum::<f64>();

    let report = session.report();
    let counter = |pass: &str, key: &str| {
        report
            .get(pass)
            .and_then(|r| r.counters.get(key).copied())
            .unwrap_or(0)
    };
    pass.digest.mindist = MinDistCounts {
        hits: counter("mindist", "hits"),
        misses: counter("mindist", "misses"),
        fw_computes: counter("mindist", "fw_computes"),
        materialized: counter("mindist", "materialized"),
        parametric_builds: counter("mindist", "parametric_builds"),
    };
    pass.digest.sched_cache_hits = counter("sched-cache", "hits");
    pass
}

/// What the pipeline returned for one loop.
enum Done {
    Evaluated(Box<LoopEvaluation>),
    Compiled(Box<Result<LoopArtifacts, LsmsError>>),
}

/// The single loop of a one-loop source.
pub fn one_loop(loops: Vec<CompiledLoop>) -> Result<CompiledLoop, LsmsError> {
    let count = loops.len();
    let mut loops = loops.into_iter();
    match (loops.next(), count) {
        (Some(compiled), 1) => Ok(compiled),
        _ => Err(LsmsError::usage(format!(
            "expected one loop per source, found {count}"
        ))),
    }
}

/// Failed output checks: how many, and the first twenty described.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks that failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub problems: Vec<String>,
}

impl Checks {
    /// Records a failed check of loop `index`.
    pub fn fail(&mut self, index: usize, what: String) {
        self.note(format!("loop {index}: {what}"));
    }

    /// Records a failed check of the pass as a whole.
    pub fn note(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Prints the failures to standard error; true when there were none.
    pub fn report(&self, what: &str) -> bool {
        for p in &self.problems {
            eprintln!("check failed ({what}): {p}");
        }
        self.failed == 0
    }
}

impl Pass {
    fn add_evaluation(
        &mut self,
        index: usize,
        compiled: &CompiledLoop,
        eval: &LoopEvaluation,
    ) -> Option<Vec<RunRecord>> {
        let d = &mut self.digest;
        let outcomes: [&SchedOutcome; 3] = [&eval.new, &eval.early, &eval.old];
        let new = &eval.new;
        d.sum_ii += new.counted_ii();
        if let (Some(ii), Some(p)) = (new.ii, &new.pressure) {
            d.sum_maxlive += u64::from(p.rr_max_live);
            d.sim_cycles += pipeline_cycles(ii, p.stages);
            d.code_insts += ramped_insts(kernel_insts(compiled), p.stages);
        }
        let mut below_mii = false;
        for outcome in outcomes {
            d.runs.add(outcome.ii.is_some());
            d.engine.add(&outcome.stats, outcome.ii.is_some());
            below_mii |= outcome.ii.is_some_and(|ii| ii < eval.mii);
        }
        if below_mii {
            self.checks
                .fail(index, format!("a schedule's II is below MII {}", eval.mii));
        }
        Some(
            outcomes
                .iter()
                .map(|o| RunRecord {
                    ii: o.ii,
                    max_live: o.pressure.as_ref().map(|p| p.rr_max_live),
                })
                .collect(),
        )
    }

    fn add_compiled(
        &mut self,
        index: usize,
        art: Result<LoopArtifacts, LsmsError>,
    ) -> Option<Vec<RunRecord>> {
        let art = match art {
            Ok(art) => art,
            Err(e) => return self.add_error(index, Workload::CompileVerify, &e),
        };
        let ii = art.schedule.ii;
        let stages = art.schedule.stages();
        let cycles = art.equiv.as_ref().map_or(0, |e| e.cycles);
        let insts = art.mve.as_ref().map_or(0, |m| m.total_insts() as u64);
        let expected = pipeline_cycles(ii, stages);
        // The simulator, codegen and the schedule must agree on the
        // generated code's cycles and shape; its size is left to codegen.
        let problem = if cycles != expected {
            Some(format!(
                "simulated {cycles} cycles, the schedule gives {expected}"
            ))
        } else if art.kernel.is_none() {
            Some("no rotating-register kernel".to_owned())
        } else if art
            .mve
            .as_ref()
            .is_none_or(|m| (m.ii, m.stages) != (ii, stages))
        {
            Some(format!(
                "MVE code missing or not at II {ii} with {stages} stages"
            ))
        } else {
            None
        };
        let d = &mut self.digest;
        d.runs.add(problem.is_none());
        d.engine.add(&art.schedule.stats, true);
        d.sum_ii += u64::from(ii);
        d.sum_maxlive += u64::from(art.quality.max_live);
        d.sim_cycles += cycles;
        d.code_insts += insts;
        if let Some(problem) = problem {
            self.checks.fail(index, problem);
        }
        Some(vec![RunRecord {
            ii: Some(ii),
            max_live: Some(art.quality.max_live),
        }])
    }

    fn add_error(
        &mut self,
        index: usize,
        workload: Workload,
        e: &LsmsError,
    ) -> Option<Vec<RunRecord>> {
        let backends = if workload.is_evaluation() { 3 } else { 1 };
        for _ in 0..backends {
            self.digest.runs.add(false);
        }
        self.checks.fail(index, e.to_string());
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_pass() -> Pass {
        Pass {
            wall_s: 0.0,
            latencies_ms: Vec::new(),
            probes: Vec::new(),
            records: Vec::new(),
            digest: Digest::default(),
            checks: Checks::default(),
        }
    }

    #[test]
    fn a_verification_mismatch_is_a_failed_run() {
        let mut pass = empty_pass();
        let mismatch = LsmsError::verification(
            "array 0 (a0) element 5: pipeline 1e0 (0x1) != reference 2e0 (0x2)",
        );
        assert_eq!(pass.add_compiled(0, Err(mismatch)), None);
        assert_eq!(pass.digest.runs.attempted, 1);
        assert_eq!(pass.digest.runs.failed, 1);
        assert_eq!(pass.digest.runs.fail_ratio(), 1.0);
        assert_eq!(pass.checks.failed, 1);
        assert!(pass.checks.problems[0].contains("pipeline 1e0"));
    }

    #[test]
    fn ramped_insts_match_mve_code_at_unroll_one() {
        assert_eq!(ramped_insts(7, 1), 7);
        assert_eq!(ramped_insts(7, 3), 35);
    }

    #[test]
    fn pipeline_cycles_match_the_simulator_formula() {
        assert_eq!(pipeline_cycles(2, 1), TRIP * 2);
        assert_eq!(pipeline_cycles(3, 4), (TRIP + 3) * 3);
    }
}
