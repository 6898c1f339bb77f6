//! The traced replay: the same seeded sources, sent through each layer's
//! public entry point in the order `CompileSession` calls them, with one
//! span around each call. Spans are recorded by the benchmark, never by
//! the program, and stay in memory until the run writes them out.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use lsms_front::CompiledLoop;
use lsms_ir::RegClass;
use lsms_machine::Machine;
use lsms_pipeline::{lookup_backend, BackendEntry};
use lsms_regalloc::{allocate_rotating, Strategy};
use lsms_sched::pressure::{gpr_count, measure_cached, min_avg_cached};
use lsms_sched::{
    problem_fingerprint, schedule_key, validate, EngineWorkspace, MinDistCache, SchedContext,
    SchedFailure, SchedProblem, Schedule,
};
use lsms_sim::{
    check_equivalence, check_equivalence_mve, make_workspace, run_kernel, run_mve, run_reference,
    RunConfig,
};

use crate::measure::{one_loop, Checks, EngineCounts, MinDistCounts, Pass, RunRecord};
use crate::stats::percentile;
use crate::workload::{Workload, TRIP, VERIFY_SEED};

/// The root span of one loop; its self time is the replay's own work.
pub const LOOP: &str = "loop";

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer, or [`LOOP`] for a loop's root span.
    pub layer: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the loop in the pass.
    pub loop_index: u32,
    /// Index of the enclosing span in the tracer, if any.
    pub parent: Option<u32>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under until [`close`](Self::close).
    pub fn open(&mut self, layer: &'static str, loop_index: u32) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            loop_index,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() as u32 - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("a span is open");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, loop_index: u32, f: impl FnOnce() -> T) -> T {
        self.open(layer, loop_index);
        let out = f();
        self.close();
        out
    }

    /// Per-layer self time in seconds: each span's duration minus the
    /// part its child spans cover, summed by layer.
    pub fn self_seconds(&self) -> HashMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.dur_ns();
            }
        }
        let mut out = HashMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            *out.entry(span.layer).or_insert(0.0) += (span.dur_ns() - child) as f64 * 1e-9;
        }
        out
    }

    /// Summed duration of the spans of `layer`, in seconds.
    pub fn total_seconds(&self, layer: &str) -> f64 {
        self.layer_durations_ms(layer).iter().sum::<f64>() * 1e-3
    }

    /// Durations of the spans of `layer`, in milliseconds.
    pub fn layer_durations_ms(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns() as f64 * 1e-6)
            .collect()
    }

    /// The spans as Chrome trace-event JSON (loadable in Perfetto).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            write!(
                out,
                "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"loop\": {}}}}}",
                s.layer,
                s.start_ns as f64 * 1e-3,
                s.dur_ns() as f64 * 1e-3,
                s.loop_index
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Counts the replay takes at the layer boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Operations of the lowered bodies.
    pub front_ops: u64,
    /// Dependence arcs of the scheduling problems.
    pub depgraph_arcs: u64,
    /// MinDist cache counters summed over loops.
    pub mindist: MinDistCounts,
    /// Engine counters of the backend runs that executed (memo hits
    /// excluded).
    pub engine: EngineCounts,
    /// Engine counters of every run, memo hits replaying the stored run's
    /// counters as the session does.
    pub engine_all: EngineCounts,
    /// Backend runs served by the memo mirror.
    pub memo_hits: u64,
    /// Backend runs that missed the memo mirror.
    pub memo_misses: u64,
    /// Register excess over MaxLive, RR plus ICR.
    pub regalloc_excess: u64,
    /// Kernel-only instructions emitted.
    pub kernel_insts: u64,
    /// MVE instructions emitted, ramps included.
    pub mve_insts: u64,
    /// Cycles the simulate-verify pass reported.
    pub sim_cycles: u64,
}

/// One traced pass.
pub struct Replay {
    /// The workload replayed.
    pub workload: Workload,
    /// The spans and their clock.
    pub tracer: Tracer,
    /// The counts.
    pub counts: LayerCounts,
    /// Seconds spent in the simulator probe, outside every loop span.
    pub sim_exec_s: f64,
    /// Per loop, the scheduler runs in backend order.
    pub records: Vec<Option<Vec<RunRecord>>>,
    /// Failed checks.
    pub checks: Checks,
}

impl Replay {
    /// Checks the replay against the untraced pass over the same sources:
    /// per loop the same (II, MaxLive), the same memo hits, and the same
    /// engine and MinDist work.
    pub fn check_against(&mut self, pass: &Pass) {
        for (index, (ours, theirs)) in self.records.iter().zip(&pass.records).enumerate() {
            if ours != theirs {
                self.checks.fail(
                    index,
                    format!("replay gave {ours:?}, the session {theirs:?}"),
                );
            }
        }
        let c = self.counts;
        let d = &pass.digest;
        let mut mismatch = |what: &str, ours: String, theirs: String| {
            if ours != theirs {
                self.checks
                    .note(format!("{what}: replay {ours}, session {theirs}"));
            }
        };
        mismatch(
            "loops",
            self.records.len().to_string(),
            pass.records.len().to_string(),
        );
        mismatch(
            "sched-cache hits",
            c.memo_hits.to_string(),
            d.sched_cache_hits.to_string(),
        );
        mismatch(
            "engine counters",
            format!("{:?}", c.engine_all),
            format!("{:?}", d.engine),
        );
        let work =
            |m: MinDistCounts| (m.misses, m.fw_computes, m.materialized, m.parametric_builds);
        mismatch(
            "MinDist misses/FW/materialized/builds",
            format!("{:?}", work(c.mindist)),
            format!("{:?}", work(d.mindist)),
        );
        if !self.workload.is_evaluation() {
            mismatch(
                "simulated cycles",
                c.sim_cycles.to_string(),
                d.sim_cycles.to_string(),
            );
            mismatch(
                "MVE instructions",
                c.mve_insts.to_string(),
                d.code_insts.to_string(),
            );
        }
    }

    /// Summed duration of the loop spans: the traced wall.
    pub fn traced_wall_s(&self) -> f64 {
        self.tracer.total_seconds(LOOP)
    }
}

/// Replays one pass of `workload` over `sources`.
pub fn replay(workload: Workload, sources: &[String]) -> Replay {
    let machine = workload.machine();
    let backends: Vec<BackendEntry> = if workload.is_evaluation() {
        ["slack", "early", "cydrome"]
            .iter()
            .map(|n| lookup_backend(n).expect("built-in backend registered"))
            .collect()
    } else {
        vec![lookup_backend("slack").expect("built-in backend registered")]
    };
    let mut r = Replay {
        workload,
        tracer: Tracer::new(),
        counts: LayerCounts::default(),
        sim_exec_s: 0.0,
        records: Vec::with_capacity(sources.len()),
        checks: Checks::default(),
    };
    let mut memo: HashMap<u128, Result<Schedule, SchedFailure>> = HashMap::new();
    for (index, source) in sources.iter().enumerate() {
        let record = replay_loop(
            workload, &machine, &backends, &mut memo, &mut r, index, source,
        );
        r.records.push(record);
    }
    r
}

/// Engine layer name of a backend.
pub fn engine_layer(backend: &str) -> &'static str {
    match backend {
        "slack" => "engine.slack",
        "early" => "engine.early",
        "cydrome" => "engine.cydrome",
        other => panic!("no engine layer for backend `{other}`"),
    }
}

fn replay_loop(
    workload: Workload,
    machine: &Machine,
    backends: &[BackendEntry],
    memo: &mut HashMap<u128, Result<Schedule, SchedFailure>>,
    r: &mut Replay,
    index: usize,
    source: &str,
) -> Option<Vec<RunRecord>> {
    let i = index as u32;
    let tr = &mut r.tracer;
    tr.open(LOOP, i);
    let compiled = tr.time("front", i, || {
        lsms_front::compile(source)
            .map_err(|e| e.to_string())
            .and_then(|unit| one_loop(unit.loops).map_err(|e| e.to_string()))
    });
    let compiled = match compiled {
        Ok(c) => c,
        Err(e) => {
            tr.close();
            r.checks.fail(index, e);
            return None;
        }
    };
    r.counts.front_ops += compiled.body.num_ops() as u64;
    let problem = match tr.time("depgraph", i, || SchedProblem::new(&compiled.body, machine)) {
        Ok(p) => p,
        Err(e) => {
            tr.close();
            r.checks.fail(index, e.to_string());
            return None;
        }
    };
    r.counts.depgraph_arcs += problem.arcs().len() as u64;
    let mii = problem.mii();
    let cache = MinDistCache::new();

    // The memo mirror: a run whose key was already seen is not replayed.
    let mut runs = Vec::with_capacity(backends.len());
    let mut mii_built = false;
    for entry in backends {
        let name = entry.scheduler.name();
        let key = tr.time("sched-cache", i, || {
            schedule_key(
                problem_fingerprint(&compiled.body, machine),
                name,
                &[],
                false,
            )
            .0
        });
        let result = match memo.get(&key) {
            Some(hit) => {
                r.counts.memo_hits += 1;
                hit.clone()
            }
            None => {
                r.counts.memo_misses += 1;
                if !mii_built {
                    // The first escalation attempt asks for MinDist at MII.
                    tr.time("mindist", i, || cache.get(&problem, mii));
                    mii_built = true;
                }
                let result = tr.time(engine_layer(name), i, || {
                    entry
                        .scheduler
                        .run(
                            &problem,
                            &cache,
                            &mut EngineWorkspace::new(),
                            &SchedContext::new(entry.pass),
                        )
                        .result
                });
                let stats = match &result {
                    Ok(s) => &s.stats,
                    Err(f) => &f.stats,
                };
                r.counts.engine.add(stats, result.is_ok());
                memo.insert(key, result.clone());
                result
            }
        };
        let stats = match &result {
            Ok(s) => &s.stats,
            Err(f) => &f.stats,
        };
        r.counts.engine_all.add(stats, result.is_ok());
        runs.push((result, None));
        if workload.is_evaluation() {
            // `evaluate_variants` measures each run's pressure right after
            // it; `run_loop` validates first (below).
            let (result, pressure) = runs.last_mut().expect("just pushed");
            *pressure = tr.time("pressure", i, || {
                result
                    .as_ref()
                    .ok()
                    .map(|s| measure_cached(&problem, s, &cache))
            });
        }
    }

    let mut kernel_parts = None;
    if workload.is_evaluation() {
        if !mii_built {
            // Every run was a memo hit: the MinAvg bound below is the
            // first request at MII.
            tr.time("mindist", i, || cache.get(&problem, mii));
        }
        tr.time("pressure", i, || {
            (min_avg_cached(&problem, mii, &cache), gpr_count(&problem))
        });
    } else if let (Ok(schedule), pressure) = &mut runs[0] {
        let schedule = &*schedule;
        let verified = tr.time("validate", i, || validate(&problem, schedule));
        if let Err(e) = verified {
            r.checks.fail(index, format!("validate: {e}"));
        }
        *pressure = Some(tr.time("pressure", i, || measure_cached(&problem, schedule, &cache)));
        let rr = tr.time("regalloc", i, || {
            allocate_rotating(&problem, schedule, RegClass::Rr, Strategy::default())
        });
        let icr = tr.time("regalloc", i, || {
            allocate_rotating(&problem, schedule, RegClass::Icr, Strategy::default())
        });
        let (Ok(rr), Ok(icr)) = (rr, icr) else {
            tr.close();
            r.checks.fail(index, "rotating allocation failed".into());
            return None;
        };
        let kernel = tr.time("codegen", i, || {
            lsms_codegen::emit(&problem, schedule, &rr, &icr)
        });
        let mve = tr.time("codegen", i, || lsms_codegen::emit_mve(&problem, schedule));
        let (Ok(kernel), Ok(mve)) = (kernel, mve) else {
            tr.close();
            r.checks.fail(index, "code generation failed".into());
            return None;
        };
        let config = RunConfig {
            trip: TRIP,
            seed: VERIFY_SEED,
            scheduler: backends[0]
                .scheduler
                .verify_config()
                .expect("slack can simulate-verify"),
        };
        let verified = tr.time("sim", i, || {
            check_equivalence(&compiled, machine, &config).and_then(|report| {
                check_equivalence_mve(&compiled, machine, &config).map(|_| report)
            })
        });
        r.counts.regalloc_excess += u64::from(rr.excess() + icr.excess());
        r.counts.kernel_insts += kernel.num_insts() as u64;
        r.counts.mve_insts += mve.total_insts() as u64;
        match verified {
            Ok(report) => r.counts.sim_cycles += report.cycles,
            Err(e) => r.checks.fail(index, format!("simulate-verify: {e}")),
        }
        kernel_parts = Some((rr, icr, kernel, mve));
    }
    tr.close();
    let cache_stats = cache.stats();
    let m = &mut r.counts.mindist;
    m.hits += cache_stats.hits;
    m.misses += cache_stats.misses;
    m.fw_computes += cache_stats.fw_computes;
    m.materialized += cache_stats.materializations;
    m.parametric_builds += cache_stats.parametric_builds;

    // Checks, outside the loop span.
    if workload.is_evaluation() {
        for (result, _) in &runs {
            if let Ok(schedule) = result {
                if let Err(e) = validate(&problem, schedule) {
                    r.checks.fail(index, format!("validate: {e}"));
                }
            }
        }
    }
    if let (Some((rr, icr, kernel, mve)), Ok(schedule)) = (&kernel_parts, &runs[0].0) {
        let started = Instant::now();
        let mismatch = sim_probe(&compiled, &problem, schedule, rr, icr, kernel, mve);
        r.sim_exec_s += started.elapsed().as_secs_f64();
        if let Some(what) = mismatch {
            r.checks.fail(index, what);
        }
    }
    if !workload.is_evaluation() && runs[0].0.is_err() {
        // `run_loop` reports a loop that fails to pipeline as an error.
        return None;
    }
    Some(
        runs.iter()
            .map(|(result, pressure)| RunRecord {
                ii: result.as_ref().ok().map(|s| s.ii),
                max_live: pressure.as_ref().map(|p| p.rr_max_live),
            })
            .collect(),
    )
}

/// Executes the replay's own generated code against the reference
/// interpreter: the simulator work inside simulate-verify, without the
/// scheduling and code generation that `check_equivalence*` redo.
/// Returns a description of the first mismatch.
fn sim_probe(
    compiled: &CompiledLoop,
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    rr: &lsms_regalloc::RotatingAllocation,
    icr: &lsms_regalloc::RotatingAllocation,
    kernel: &lsms_codegen::KernelCode,
    mve: &lsms_codegen::MveKernel,
) -> Option<String> {
    let ws = make_workspace(compiled, TRIP, VERIFY_SEED);
    let want = run_reference(compiled, &ws);
    match run_kernel(compiled, problem, schedule, kernel, rr, icr, &ws) {
        Ok(got) if got.arrays == want => {}
        Ok(_) => return Some("rotating kernel differs from the reference".into()),
        Err(e) => return Some(format!("rotating kernel: {e}")),
    }
    match run_mve(compiled, problem, schedule, mve, &ws) {
        Ok(got) if got.arrays == want => None,
        Ok(_) => Some("MVE code differs from the reference".into()),
        Err(e) => Some(format!("MVE code: {e}")),
    }
}

/// The 99th-percentile depgraph span, in milliseconds.
pub fn depgraph_ms_p99(tracer: &Tracer) -> f64 {
    let d = tracer.layer_durations_ms("depgraph");
    if d.is_empty() {
        0.0
    } else {
        percentile(&d, 99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.open(LOOP, 0);
        tr.time("front", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.time("depgraph", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        tr.close();
        let selfs = tr.self_seconds();
        let total = tr.total_seconds(LOOP);
        let children = selfs["front"] + selfs["depgraph"];
        assert!((selfs[LOOP] + children - total).abs() < 1e-9);
        assert!(selfs["front"] >= 0.002);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.to_chrome_json().contains("\"name\": \"depgraph\""));
    }

    #[test]
    fn replay_reproduces_the_session_pass_including_memo_hits() {
        for workload in [Workload::PaperCorpus, Workload::CompileVerify] {
            let mut sources: Vec<String> = workload.population(1)[..12].to_vec();
            // A repeated loop is a memo hit in the session and the replay.
            sources.push(sources[0].clone());
            let pass = crate::measure::run_pass(workload, &sources, None);
            let mut traced = replay(workload, &sources);
            traced.check_against(&pass);
            assert_eq!(pass.checks.problems, Vec::<String>::new());
            assert_eq!(traced.checks.problems, Vec::<String>::new());
            assert!(traced.counts.memo_hits >= 1);
            assert_eq!(traced.records.len(), sources.len());
        }
    }
}
