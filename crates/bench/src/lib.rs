//! Experiment engine for reproducing the paper's evaluation (§6–§7).
//!
//! Every table and figure has a binary in `src/bin/` that prints the
//! paper-style rows; this library does the shared work: run the corpus
//! through the three schedulers (bidirectional slack, unidirectional
//! slack, Cydrome-style baseline), collect per-loop [`LoopRecord`]s, and
//! provide percentile/histogram formatting.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 (machine description) |
//! | `table2` | Table 2 (corpus complexity percentiles) |
//! | `table3` | Table 3 (slack-scheduler II performance by class) |
//! | `table4` | Table 4 (baseline II performance by class) |
//! | `fig5`   | Figure 5 (MaxLive − MinAvg distribution, all schedulers) |
//! | `fig6`   | Figure 6 (MaxLive distribution) |
//! | `fig7`   | Figure 7 (GPRs and GPRs + MaxLive) |
//! | `fig8`   | Figure 8 (ICR predicate usage) |
//! | `compile_time` | §6 (backtracking and work counters) |
//! | `heuristic_stats` | §4.3/§5.2 decision percentages |
//! | `robustness` | §7 (alternative machine latencies) |
//! | `allocation` | §3.2 footnote 4 (registers vs MaxLive) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lsms_front::CompiledLoop;
use lsms_ir::LoopClass;
use lsms_machine::Machine;
use lsms_pipeline::{CompileSession, LsmsError};
use lsms_sched::{bounds, DecisionStats};

pub use lsms_pipeline::SchedOutcome;

/// Everything the experiments need about one loop.
#[derive(Clone, Debug)]
pub struct LoopRecord {
    /// Loop name.
    pub name: String,
    /// Table 3/4 class.
    pub class: LoopClass,
    /// Operation count (including `brtop`).
    pub num_ops: usize,
    /// Basic blocks before if-conversion.
    pub basic_blocks: u32,
    /// Operations on critical resources at MII.
    pub critical_ops: usize,
    /// Operations on non-trivial recurrence circuits.
    pub ops_on_recurrences: usize,
    /// Divider operations (div/mod/sqrt).
    pub div_ops: usize,
    /// The §3.1 bounds.
    pub rec_mii: u32,
    /// Resource bound.
    pub res_mii: u32,
    /// `max(ResMII, RecMII)`.
    pub mii: u32,
    /// Schedule-independent `MinAvg` at MII.
    pub min_avg_at_mii: u32,
    /// GPR (loop-invariant) count.
    pub gprs: u32,
    /// Bidirectional slack scheduler ("New Scheduler").
    pub new: SchedOutcome,
    /// Unidirectional (always-early) slack ablation.
    pub early: SchedOutcome,
    /// Cydrome-style baseline ("Old Scheduler").
    pub old: SchedOutcome,
    /// §5.2 decision tallies from the bidirectional run.
    pub decisions: DecisionStats,
}

impl LoopRecord {
    /// Evaluates one compiled loop through a [`CompileSession`]: the
    /// session runs the three schedulers over one shared `MinDistCache`
    /// (each distinct II this loop visits costs exactly one
    /// Floyd–Warshall) and this crate adds the corpus bookkeeping.
    ///
    /// A malformed loop (invalid body, zero-ω circuit) comes back as an
    /// [`LsmsError`] instead of panicking, so one bad generated loop
    /// degrades to a recorded failure rather than aborting a corpus run.
    pub fn try_evaluate(
        session: &CompileSession,
        compiled: &CompiledLoop,
    ) -> Result<Self, LsmsError> {
        Self::try_evaluate_impl(session, compiled, false)
    }

    /// As [`try_evaluate`](Self::try_evaluate), but running the three
    /// scheduler fan-out (bidirectional, always-early, baseline) on
    /// scoped threads. Useful when evaluating few loops on many cores;
    /// the produced record is identical to the sequential one.
    pub fn try_evaluate_fanout(
        session: &CompileSession,
        compiled: &CompiledLoop,
    ) -> Result<Self, LsmsError> {
        Self::try_evaluate_impl(session, compiled, true)
    }

    /// Convenience wrapper over [`try_evaluate`](Self::try_evaluate) for
    /// known-good loops (panics on malformed input).
    pub fn evaluate(compiled: &CompiledLoop, machine: &Machine) -> Self {
        let session = CompileSession::with_machine(machine.clone());
        Self::try_evaluate(&session, compiled)
            .unwrap_or_else(|e| panic!("{}: {e}", compiled.def.name))
    }

    /// Convenience wrapper over
    /// [`try_evaluate_fanout`](Self::try_evaluate_fanout) for known-good
    /// loops (panics on malformed input).
    pub fn evaluate_fanout(compiled: &CompiledLoop, machine: &Machine) -> Self {
        let session = CompileSession::with_machine(machine.clone());
        Self::try_evaluate_fanout(&session, compiled)
            .unwrap_or_else(|e| panic!("{}: {e}", compiled.def.name))
    }

    /// The observatory's view of this loop: one
    /// [`ScheduleQuality`](lsms_obs::ScheduleQuality) record per
    /// scheduler in the evaluation trio, in the paper's new/early/old
    /// order. Wall time is the only nondeterministic field; everything
    /// else is a pure function of the (deterministic) evaluation.
    pub fn quality_records(&self) -> [lsms_obs::ScheduleQuality; 3] {
        let mk = |backend: &str, outcome: &SchedOutcome| {
            lsms_pipeline::quality_of(
                &self.name,
                backend,
                &format!("schedule:{backend}"),
                self.rec_mii,
                self.res_mii,
                self.mii,
                outcome,
            )
        };
        [
            mk("slack", &self.new),
            mk("early", &self.early),
            mk("cydrome", &self.old),
        ]
    }

    fn try_evaluate_impl(
        session: &CompileSession,
        compiled: &CompiledLoop,
        fan_out: bool,
    ) -> Result<Self, LsmsError> {
        let eval = session.evaluate_variants(compiled, fan_out)?;
        let machine = &session.config().machine;
        let body = &compiled.body;
        Ok(LoopRecord {
            name: compiled.def.name.clone(),
            class: body.class(),
            num_ops: body.num_ops(),
            basic_blocks: body.meta().basic_blocks,
            critical_ops: bounds::critical_ops(machine, body, eval.mii),
            ops_on_recurrences: bounds::ops_on_recurrences(body),
            div_ops: body.num_divider_ops(),
            rec_mii: eval.rec_mii,
            res_mii: eval.res_mii,
            mii: eval.mii,
            min_avg_at_mii: eval.min_avg_at_mii,
            gprs: eval.gprs,
            new: eval.new,
            early: eval.early,
            old: eval.old,
            decisions: eval.decisions,
        })
    }
}

/// One loop the corpus evaluation could not process (its diagnostic is
/// kept; the run continues).
#[derive(Clone, Debug)]
pub struct CorpusFailure {
    /// Position in the input loop list.
    pub index: usize,
    /// Loop name.
    pub name: String,
    /// What went wrong.
    pub error: LsmsError,
}

/// The outcome of evaluating a loop list: the successful records, in
/// input order, plus any per-loop failures.
#[derive(Clone, Debug, Default)]
pub struct CorpusReport {
    /// Successfully evaluated loops, in input order.
    pub records: Vec<LoopRecord>,
    /// Loops that failed a pipeline stage, in input order.
    pub failures: Vec<CorpusFailure>,
    /// Total worker idle time (µs) spent waiting for the slowest worker
    /// to finish — the parallel run's straggler tax. Always 0 on the
    /// sequential path. Purely informational: records are identical
    /// whatever this reports.
    pub straggler_idle_us: u64,
}

impl CorpusReport {
    /// Prints one stderr warning per failed loop (no-op when none failed).
    pub fn warn_failures(&self) {
        for f in &self.failures {
            eprintln!("warning: loop {} (#{}): {}", f.name, f.index, f.error);
        }
    }

    /// Flattens every record's trio into the observatory's corpus-wide
    /// record list, in corpus order (so the list is byte-stable across
    /// `--jobs` counts, like the records themselves).
    pub fn quality_records(&self) -> Vec<lsms_obs::ScheduleQuality> {
        self.records
            .iter()
            .flat_map(LoopRecord::quality_records)
            .collect()
    }
}

/// Evaluates the standard corpus (kernels + generated) through a
/// session, using [`default_jobs`] worker threads. Records come back in
/// corpus order regardless of thread count, so the output of every
/// experiment binary is byte-identical to a single-threaded run.
pub fn evaluate_corpus_session(
    session: &CompileSession,
    count: usize,
    seed: u64,
    jobs: usize,
) -> CorpusReport {
    let loops = lsms_loops::corpus(count, seed);
    evaluate_loops_session(session, &loops, jobs)
}

/// Evaluates an already-built loop list through a session on `jobs`
/// worker threads, preserving input order in the output.
///
/// The parallel path dispatches loops in descending expected-cost order
/// (longest-processing-time-first over [`CompileSession::corpus_cost_hint`]),
/// so the expensive tail of the corpus starts early instead of landing
/// on one straggling worker at the end of the run. Dispatch order only
/// affects wall clock: results are reassembled by input index, so every
/// downstream report is byte-identical to a sequential run.
pub fn evaluate_loops_session(
    session: &CompileSession,
    loops: &[CompiledLoop],
    jobs: usize,
) -> CorpusReport {
    let jobs = jobs.max(1).min(loops.len().max(1));
    // Each loop's evaluation gets a span so corpus traces show one B/E
    // pair per loop per worker thread; the index arg links it back to
    // the corpus order.
    let eval_one = |i: usize| {
        let _span = lsms_trace::span_with("corpus.loop", &[("index", i as i64)]);
        LoopRecord::try_evaluate(session, &loops[i])
    };
    let mut straggler_idle_us = 0u64;
    let results: Vec<Result<LoopRecord, LsmsError>> = if jobs == 1 {
        (0..loops.len()).map(eval_one).collect()
    } else {
        // Work-stealing by atomic counter over the cost-sorted order;
        // results are reassembled by index so the order (and thus every
        // downstream text report) is deterministic.
        let order = tail_aware_order(session, loops);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<LoopRecord, LsmsError>)>();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    let tx = tx.clone();
                    let next = &next;
                    let eval_one = &eval_one;
                    let order = &order;
                    s.spawn(move || {
                        loop {
                            let slot = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(&i) = order.get(slot) else { break };
                            let result = eval_one(i);
                            if tx.send((i, result)).is_err() {
                                break;
                            }
                        }
                        std::time::Instant::now()
                    })
                })
                .collect();
            drop(tx);
            let mut slots: Vec<Option<Result<LoopRecord, LsmsError>>> =
                (0..loops.len()).map(|_| None).collect();
            for (i, result) in rx {
                slots[i] = Some(result);
            }
            let finishes: Vec<std::time::Instant> = workers
                .into_iter()
                .map(|w| w.join().expect("corpus worker panicked"))
                .collect();
            if let Some(&last) = finishes.iter().max() {
                straggler_idle_us = finishes
                    .iter()
                    .map(|&f| last.duration_since(f).as_micros() as u64)
                    .sum();
            }
            slots
                .into_iter()
                .map(|r| r.expect("every corpus index evaluated"))
                .collect()
        })
    };
    let mut report = CorpusReport {
        straggler_idle_us,
        ..CorpusReport::default()
    };
    for (index, result) in results.into_iter().enumerate() {
        match result {
            Ok(record) => report.records.push(record),
            Err(error) => report.failures.push(CorpusFailure {
                index,
                name: loops[index].def.name.clone(),
                error,
            }),
        }
    }
    report
}

/// Largest-expected-cost-first dispatch order for a parallel corpus run.
/// Ties (and ledger-less runs over uniform loops) fall back to input
/// order, keeping dispatch deterministic.
fn tail_aware_order(session: &CompileSession, loops: &[CompiledLoop]) -> Vec<usize> {
    let costs: Vec<u64> = loops.iter().map(|l| session.corpus_cost_hint(l)).collect();
    let mut order: Vec<usize> = (0..loops.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    order
}

/// Evaluates the standard corpus on a machine with [`default_jobs`]
/// worker threads (an ephemeral-session convenience over
/// [`evaluate_corpus_session`]; failures are warned to stderr).
pub fn evaluate_corpus(count: usize, seed: u64, machine: &Machine) -> Vec<LoopRecord> {
    evaluate_corpus_jobs(count, seed, machine, default_jobs())
}

/// As [`evaluate_corpus`] with an explicit worker-thread count (1 forces
/// the sequential path).
pub fn evaluate_corpus_jobs(
    count: usize,
    seed: u64,
    machine: &Machine,
    jobs: usize,
) -> Vec<LoopRecord> {
    let session = CompileSession::with_machine(machine.clone());
    let report = evaluate_corpus_session(&session, count, seed, jobs);
    report.warn_failures();
    report.records
}

/// Evaluates an already-built loop list on `jobs` worker threads through
/// an ephemeral session, preserving input order in the output.
pub fn evaluate_loops(loops: &[CompiledLoop], machine: &Machine, jobs: usize) -> Vec<LoopRecord> {
    let session = CompileSession::with_machine(machine.clone());
    let report = evaluate_loops_session(&session, loops, jobs);
    report.warn_failures();
    report.records
}

/// The corpus size used by the experiment binaries: the paper's 1,525.
pub fn default_corpus_size() -> usize {
    std::env::var("LSMS_CORPUS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(lsms_loops::PAPER_CORPUS_SIZE)
}

/// Worker threads used by [`evaluate_corpus`]: the `LSMS_JOBS` environment
/// variable when set, else the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::env::var("LSMS_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&j| j >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// Common command-line options of the experiment binaries.
///
/// `--corpus-size N` (env `LSMS_CORPUS`) sets the number of loops;
/// `--jobs N` (env `LSMS_JOBS`) sets the worker-thread count. Flags win
/// over environment variables.
#[derive(Clone, Copy, Debug)]
pub struct BenchArgs {
    /// Number of corpus loops to evaluate.
    pub corpus_size: usize,
    /// Worker threads for corpus evaluation.
    pub jobs: usize,
}

impl BenchArgs {
    /// Parses `std::env::args`, printing the usage line and exiting with
    /// code 2 (the usage-error convention shared with `lsmsc`) on
    /// malformed input.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            eprintln!("usage: [--corpus-size N] [--jobs N]");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument list; malformed input comes back as a
    /// usage-error message instead of a panic.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self {
            corpus_size: default_corpus_size(),
            jobs: default_jobs(),
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value_for = |flag: &str| -> Result<usize, String> {
                it.next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("{flag} needs a positive integer"))
            };
            match arg.as_str() {
                "--corpus-size" => out.corpus_size = value_for("--corpus-size")?,
                "--jobs" => out.jobs = value_for("--jobs")?.max(1),
                other => {
                    return Err(format!(
                        "unknown option `{other}` (expected --corpus-size N / --jobs N)"
                    ))
                }
            }
        }
        Ok(out)
    }
}

/// The corpus seed used by the experiment binaries.
pub const CORPUS_SEED: u64 = 1993;

/// min / median / 90th percentile / max of a sample (Table 2/3/4 style).
pub fn percentiles(values: &mut [u64]) -> (u64, u64, u64, u64) {
    assert!(!values.is_empty(), "percentiles of an empty sample");
    values.sort_unstable();
    let n = values.len();
    (
        values[0],
        values[n / 2],
        values[(n * 9 / 10).min(n - 1)],
        values[n - 1],
    )
}

/// Formats one Table 2 row.
pub fn stat_row(label: &str, values: &mut [u64]) -> String {
    let (min, p50, p90, max) = percentiles(values);
    format!("{label:<24} {min:>6} {p50:>6} {p90:>6} {max:>6}")
}

/// A cumulative-percentage histogram over register counts, the textual
/// analogue of the paper's Figures 5–8.
pub fn cumulative_histogram(title: &str, series: &[(&str, Vec<i64>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let lo = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .min()
        .unwrap_or(0)
        .min(0);
    let hi = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .max()
        .unwrap_or(0);
    let _ = write!(out, "{:>10} ", "registers");
    for (name, _) in series {
        let _ = write!(out, "{name:>18}");
    }
    let _ = writeln!(out);
    // Bucket boundaries: fine near zero, coarser beyond.
    let mut edges: Vec<i64> = (lo..=8).collect();
    let mut e = 10;
    while e <= hi.max(8) + 2 {
        edges.push(e);
        e += if e < 32 {
            2
        } else if e < 64 {
            8
        } else {
            32
        };
    }
    for &edge in &edges {
        let _ = write!(out, "{edge:>10} ");
        for (_, values) in series {
            let within = values.iter().filter(|&&v| v <= edge).count();
            let pct = 100.0 * within as f64 / values.len().max(1) as f64;
            let _ = write!(out, "{pct:>17.1}%");
        }
        let _ = writeln!(out);
        if series.iter().all(|(_, v)| v.iter().all(|&x| x <= edge)) {
            break;
        }
    }
    out
}

/// Sums II over records using achieved-or-last-attempted (Table 4's
/// failure convention).
pub fn class_line(
    label: &str,
    records: &[&LoopRecord],
    pick: impl Fn(&LoopRecord) -> &SchedOutcome,
) -> String {
    let all = records.len();
    let optimal = records.iter().filter(|r| pick(r).ii == Some(r.mii)).count();
    let sum_ii: u64 = records.iter().map(|r| pick(r).counted_ii()).sum();
    let sum_mii: u64 = records.iter().map(|r| u64::from(r.mii)).sum();
    let pct = 100.0 * optimal as f64 / all.max(1) as f64;
    let ratio = sum_ii as f64 / sum_mii.max(1) as f64;
    format!("{label:<18} {optimal:>5} {all:>5} {pct:>5.1}% {sum_ii:>8} {sum_mii:>8} {ratio:>6.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_machine::huff_machine;

    #[test]
    fn percentile_math() {
        let mut v = vec![5, 1, 9, 3, 7];
        assert_eq!(percentiles(&mut v), (1, 5, 9, 9));
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentiles(&mut v), (1, 51, 91, 100));
    }

    #[test]
    fn record_evaluation_is_consistent() {
        let machine = huff_machine();
        let records = evaluate_corpus(30, 5, &machine);
        assert_eq!(records.len(), 30);
        for r in &records {
            assert!(r.mii >= 1);
            assert_eq!(r.mii, r.res_mii.max(r.rec_mii));
            if let Some(ii) = r.new.ii {
                assert!(ii >= r.mii, "{}: II {ii} < MII {}", r.name, r.mii);
            }
            if let (Some(a), Some(b)) = (r.new.ii, r.old.ii) {
                // The baseline never beats the bidirectional scheduler's
                // time on this corpus by construction of the heuristics —
                // but equality is common.
                assert!(b >= r.mii && a >= r.mii);
            }
        }
        // Most loops schedule optimally (the paper reports 96%).
        let optimal = records.iter().filter(|r| r.new.ii == Some(r.mii)).count();
        assert!(
            optimal * 10 >= records.len() * 8,
            "{optimal}/{}",
            records.len()
        );
    }

    /// Everything observable about an outcome except wall-clock time.
    fn outcome_key(o: &SchedOutcome) -> impl PartialEq + std::fmt::Debug {
        (
            o.ii,
            o.last_ii,
            o.pressure.clone(),
            o.stats.central_iterations,
            o.stats.ejected_ops,
            o.stats.attempts,
        )
    }

    fn assert_records_identical(a: &[LoopRecord], b: &[LoopRecord]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.mii, y.mii, "{}", x.name);
            assert_eq!(x.min_avg_at_mii, y.min_avg_at_mii, "{}", x.name);
            assert_eq!(x.decisions, y.decisions, "{}", x.name);
            for (xo, yo) in [(&x.new, &y.new), (&x.early, &y.early), (&x.old, &y.old)] {
                assert_eq!(outcome_key(xo), outcome_key(yo), "{}", x.name);
            }
        }
    }

    #[test]
    fn parallel_corpus_evaluation_matches_sequential() {
        let machine = huff_machine();
        let sequential = evaluate_corpus_jobs(24, CORPUS_SEED, &machine, 1);
        let parallel = evaluate_corpus_jobs(24, CORPUS_SEED, &machine, 4);
        assert_records_identical(&sequential, &parallel);
    }

    #[test]
    fn fanout_evaluation_matches_sequential() {
        let machine = huff_machine();
        let loops = lsms_loops::corpus(6, CORPUS_SEED);
        for l in &loops {
            let a = LoopRecord::evaluate(l, &machine);
            let b = LoopRecord::evaluate_fanout(l, &machine);
            assert_records_identical(std::slice::from_ref(&a), std::slice::from_ref(&b));
        }
    }

    #[test]
    fn bench_args_parse_flags() {
        let args = BenchArgs::from_args(["--corpus-size", "40", "--jobs", "3"].map(String::from))
            .expect("parses");
        assert_eq!(args.corpus_size, 40);
        assert_eq!(args.jobs, 3);
    }

    #[test]
    fn bench_args_reject_malformed_input_as_usage_errors() {
        let err = BenchArgs::from_args(["--frobnicate"].map(String::from)).unwrap_err();
        assert!(err.contains("unknown option `--frobnicate`"), "{err}");
        let err = BenchArgs::from_args(["--jobs"].map(String::from)).unwrap_err();
        assert!(err.contains("--jobs needs a positive integer"), "{err}");
        let err = BenchArgs::from_args(["--corpus-size", "many"].map(String::from)).unwrap_err();
        assert!(err.contains("--corpus-size"), "{err}");
    }

    /// The tail-aware dispatch order is a pure scheduling hint: a
    /// parallel run must stay byte-identical to a sequential one, and
    /// the order itself must be deterministic, largest-first.
    #[test]
    fn tail_aware_order_is_deterministic_and_cost_sorted() {
        let session = CompileSession::with_machine(huff_machine());
        let loops = lsms_loops::corpus(12, CORPUS_SEED);
        let order = tail_aware_order(&session, &loops);
        assert_eq!(order.len(), loops.len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..loops.len()).collect::<Vec<_>>());
        assert_eq!(order, tail_aware_order(&session, &loops));
        let costs: Vec<u64> = loops.iter().map(|l| session.corpus_cost_hint(l)).collect();
        for pair in order.windows(2) {
            assert!(costs[pair[0]] >= costs[pair[1]]);
        }
    }

    #[test]
    fn histograms_render() {
        let h = cumulative_histogram("test", &[("a", vec![0, 1, 5, 9]), ("b", vec![2, 2, 3, 40])]);
        assert!(h.contains("registers"));
        assert!(h.contains("100.0%"));
    }

    /// A malformed loop (zero-ω dependence circuit) must degrade to a
    /// recorded [`CorpusFailure`], not a panic, and must not disturb the
    /// records of its healthy neighbours.
    #[test]
    fn malformed_loop_degrades_to_recorded_failure() {
        use lsms_ir::{LoopBuilder, OpKind, ValueType};
        use lsms_pipeline::Stage;

        let session = CompileSession::with_machine(huff_machine());
        let mut loops = lsms_loops::corpus(3, CORPUS_SEED);

        // Replace the middle loop's body with a zero-ω circuit, which
        // the dependence-graph pass rejects as unschedulable.
        let mut b = LoopBuilder::new("zero_omega");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let o1 = b.op(OpKind::FAdd, &[y, y], Some(x));
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0);
        b.flow_dep(o2, o1, 0);
        loops[1].body = b.finish();

        let report = evaluate_loops_session(&session, &loops, 1);
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.index, 1);
        assert_eq!(failure.error.stage, Stage::DepGraph);
        assert_eq!(failure.error.code, "E0402");

        // The surviving records match a run over the healthy loops alone.
        let healthy = [loops[0].clone(), loops[2].clone()];
        let clean = evaluate_loops_session(&session, &healthy, 1);
        assert_records_identical(&report.records, &clean.records);
    }
}
