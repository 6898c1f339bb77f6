//! End-to-end equivalence harness: generated code executed on the
//! simulator and checked bit for bit against the reference interpreter.
//!
//! [`check_artifacts`] is the checker: it executes code that was already
//! built — the compile session hands it the schedule, allocations and
//! kernels it is about to ship — and never reschedules or re-emits
//! anything. [`check_equivalence`] and [`check_equivalence_mve`] are
//! conveniences for tests and tools that have only a compiled loop: they
//! build one code scheme with the plain slack scheduler and call the
//! checker.

use std::collections::BTreeMap;
use std::fmt;

use lsms_codegen::{KernelCode, MveKernel};
use lsms_front::{CompiledLoop, Expr, InitialSource, LValue, Stmt, Ty};
use lsms_ir::RegClass;
use lsms_machine::Machine;
use lsms_prng::SmallRng;
use lsms_regalloc::{allocate_rotating, RotatingAllocation, Strategy};
use lsms_sched::{SchedProblem, Schedule, SlackConfig, SlackScheduler};

use crate::mve_sim::run_mve;
use crate::reference::run_reference;
use crate::vliw::{run_kernel, SimError, SimOutcome};
use crate::Workspace;

/// Parameters of one [`check_equivalence`] run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Loop trip count.
    pub trip: u64,
    /// Seed for the deterministic input generator.
    pub seed: u64,
    /// Scheduler configuration (ablation variants are worth simulating
    /// too — a wrong schedule must fail *here*, not just in the
    /// validator).
    pub scheduler: SlackConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            trip: 25,
            seed: 0x5eed,
            scheduler: SlackConfig::default(),
        }
    }
}

/// Outcome of a successful equivalence check.
#[derive(Clone, Debug)]
pub struct EquivReport {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Pipeline stages.
    pub stages: u32,
    /// Machine cycles the pipeline ran (the rotating kernel's, when one
    /// was checked).
    pub cycles: u64,
    /// Array elements compared per code scheme.
    pub elements: usize,
}

/// Builds a deterministic workspace for a compiled loop: arrays sized so
/// every access (including pre-loop seed instances) is in bounds, filled
/// with seeded pseudo-random data; integer data stays in small positive
/// ranges so `%`/`/` behave; integer parameters get the trip-consistent
/// bound value.
pub fn make_workspace(compiled: &CompiledLoop, trip: u64, seed: u64) -> Workspace {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    // Offsets used anywhere in the source.
    let mut min_off: i64 = 0;
    let mut max_off: i64 = 0;
    visit_offsets(&compiled.def.body, &mut |off| {
        min_off = min_off.min(off);
        max_off = max_off.max(off);
    });
    // Pre-loop instances reach back max input-omega iterations.
    let depth = compiled
        .body
        .ops()
        .iter()
        .flat_map(|op| op.input_omegas.iter().copied())
        .max()
        .unwrap_or(0) as i64;
    let lo = (depth - min_off).max(1);
    let len = (lo + trip as i64 + max_off + 2) as usize;

    let arrays = compiled
        .info
        .arrays
        .iter()
        .map(|&(_, ty)| (0..len).map(|_| random_cell(&mut rng, ty)).collect())
        .collect();
    let mut params = BTreeMap::new();
    for (name, ty) in &compiled.info.params {
        let bits = match ty {
            Ty::Real => random_cell(&mut rng, Ty::Real),
            Ty::Int => (lo + trip as i64) as u64, // loop bounds and friends
        };
        params.insert(name.clone(), bits);
    }
    let mut scalar_inits = BTreeMap::new();
    for (name, ty) in &compiled.info.carried {
        scalar_inits.insert(name.clone(), random_cell(&mut rng, *ty));
    }
    // Initials of kind Scalar not covered above (defensive).
    for (_, source) in &compiled.initials {
        if let InitialSource::Scalar(name) = source {
            scalar_inits
                .entry(name.clone())
                .or_insert_with(|| random_cell(&mut rng, Ty::Real));
        }
    }
    Workspace {
        arrays,
        params,
        scalar_inits,
        lo,
        trip,
    }
}

fn random_cell(rng: &mut SmallRng, ty: Ty) -> u64 {
    match ty {
        // Quarter-integers in a small range: exact in binary, no
        // overflow drama, still exercises real arithmetic.
        Ty::Real => ((rng.gen_range(-200..200) as f64) * 0.25).to_bits(),
        // Small positive ints keep divisions and moduli well behaved.
        Ty::Int => rng.gen_range(1..9i64) as u64,
    }
}

fn visit_offsets(stmts: &[Stmt], sink: &mut impl FnMut(i64)) {
    fn expr(e: &Expr, sink: &mut impl FnMut(i64)) {
        match e {
            Expr::Elem { offset, .. } => sink(*offset),
            Expr::Neg(x) | Expr::Sqrt(x) | Expr::Abs(x) => expr(x, sink),
            Expr::Bin(_, l, r) | Expr::MinMax { lhs: l, rhs: r, .. } => {
                expr(l, sink);
                expr(r, sink);
            }
            Expr::Real(_) | Expr::Int(_) | Expr::Scalar(..) => {}
        }
    }
    for stmt in stmts {
        match stmt {
            Stmt::Assign { target, value, .. } => {
                if let LValue::Elem { offset, .. } = target {
                    sink(*offset);
                }
                expr(value, sink);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                expr(&cond.lhs, sink);
                expr(&cond.rhs, sink);
                visit_offsets(then_body, sink);
                visit_offsets(else_body, sink);
            }
            Stmt::BreakIf { cond } => {
                expr(&cond.lhs, sink);
                expr(&cond.rhs, sink);
            }
        }
    }
}

/// Which generated-code scheme a verification result refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodeScheme {
    /// Kernel-only code over rotating RR/ICR files (§2.2).
    Rotating,
    /// Modulo-variable-expanded code over static registers (§2.3).
    Mve,
}

impl CodeScheme {
    /// The prefix diagnostics about this scheme carry: none for the
    /// rotating kernel, `mve: ` for the expanded one.
    pub fn prefix(self) -> &'static str {
        match self {
            CodeScheme::Rotating => "",
            CodeScheme::Mve => "mve: ",
        }
    }
}

/// Why [`check_artifacts`] rejected a loop's generated code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The simulator faulted while executing one scheme's code.
    Fault {
        /// The code that faulted.
        scheme: CodeScheme,
        /// The simulator's fault.
        error: SimError,
    },
    /// An array element differs from the reference interpreter's.
    Mismatch {
        /// The code whose result differs.
        scheme: CodeScheme,
        /// The array, element, both values and the loop's shape.
        message: String,
    },
}

impl VerifyError {
    /// The code scheme the failure belongs to.
    pub fn scheme(&self) -> CodeScheme {
        match self {
            VerifyError::Fault { scheme, .. } | VerifyError::Mismatch { scheme, .. } => *scheme,
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.scheme().prefix())?;
        match self {
            VerifyError::Fault { error, .. } => write!(f, "sim: {error}"),
            VerifyError::Mismatch { message, .. } => f.write_str(message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The rotating-register code of one loop: the RR and ICR allocations
/// and the kernel emitted from them.
pub type RotatingCode<'a> = (
    &'a RotatingAllocation,
    &'a RotatingAllocation,
    &'a KernelCode,
);

/// Executes already-built code for `compiled` and checks it computes
/// bit-for-bit what the reference interpreter computes.
///
/// Nothing is rebuilt: `problem` and `schedule` are the ones the code was
/// generated from, `rotating` is the RR/ICR allocation pair with its
/// kernel, and `mve` the modulo-variable-expansion kernel. One seeded
/// workspace and one reference run are shared by every scheme given; the
/// report describes the rotating kernel when there is one, else the MVE
/// kernel. The shape (`ii`, `stages`) is the schedule's.
///
/// # Errors
///
/// The first failure, rotating kernel first: a simulator fault
/// ([`VerifyError::Fault`]) or an array mismatch
/// ([`VerifyError::Mismatch`], naming the array, element, and both
/// values).
///
/// # Panics
///
/// When neither `rotating` nor `mve` is given: there is no code to check.
pub fn check_artifacts(
    compiled: &CompiledLoop,
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    rotating: Option<RotatingCode<'_>>,
    mve: Option<&MveKernel>,
    trip: u64,
    seed: u64,
) -> Result<EquivReport, VerifyError> {
    let workspace = make_workspace(compiled, trip, seed);
    let expected = run_reference(compiled, &workspace);
    let mut report = None;
    if let Some((rr, icr, kernel)) = rotating {
        let scheme = CodeScheme::Rotating;
        let outcome = run_kernel(compiled, problem, schedule, kernel, rr, icr, &workspace)
            .map_err(|error| VerifyError::Fault { scheme, error })?;
        let shape = format!("trip {trip}");
        let elements = compare_arrays(compiled, &outcome, &expected, scheme, schedule.ii, &shape)?;
        report = Some((outcome.cycles, elements));
    }
    if let Some(kernel) = mve {
        let scheme = CodeScheme::Mve;
        let outcome = run_mve(compiled, problem, schedule, kernel, &workspace)
            .map_err(|error| VerifyError::Fault { scheme, error })?;
        let shape = format!("trip {trip}, unroll {}", kernel.unroll);
        let elements = compare_arrays(compiled, &outcome, &expected, scheme, schedule.ii, &shape)?;
        report.get_or_insert((outcome.cycles, elements));
    }
    let (cycles, elements) = report.expect("check_artifacts needs at least one kernel");
    Ok(EquivReport {
        ii: schedule.ii,
        stages: schedule.stages(),
        cycles,
        elements,
    })
}

/// Compares simulated arrays with the reference's bit for bit, returning
/// the number of elements compared.
fn compare_arrays(
    compiled: &CompiledLoop,
    outcome: &SimOutcome,
    expected: &[Vec<u64>],
    scheme: CodeScheme,
    ii: u32,
    shape: &str,
) -> Result<usize, VerifyError> {
    let mut elements = 0usize;
    for (a, (got, want)) in outcome.arrays.iter().zip(expected).enumerate() {
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            elements += 1;
            if g != w {
                lsms_trace::instant(
                    "sim.verify_mismatch",
                    &[
                        ("array", a as i64),
                        ("element", idx as i64),
                        ("ii", i64::from(ii)),
                    ],
                );
                lsms_trace::add("sim", "verify_mismatches", 1);
                return Err(VerifyError::Mismatch {
                    scheme,
                    message: format!(
                        "array {a} ({}) element {idx}: pipeline {:e} ({g:#x}) != reference \
                         {:e} ({w:#x}) [loop {}, II {ii}, {shape}]",
                        compiled.info.arrays[a].0,
                        f64::from_bits(*g),
                        f64::from_bits(*w),
                        compiled.def.name,
                    ),
                });
            }
        }
    }
    lsms_trace::add("sim", "verified_elements", elements as u64);
    Ok(elements)
}

/// Schedules `compiled` with the plain slack scheduler `config` names and
/// validates the result: the construction the convenience checkers below
/// share.
fn schedule_for<'a>(
    compiled: &'a CompiledLoop,
    machine: &'a Machine,
    config: &RunConfig,
) -> Result<(SchedProblem<'a>, Schedule), String> {
    let problem =
        SchedProblem::new(&compiled.body, machine).map_err(|e| format!("problem: {e}"))?;
    let schedule = SlackScheduler::with_config(config.scheduler.clone())
        .run(&problem)
        .map_err(|e| format!("schedule: {e}"))?;
    lsms_sched::validate(&problem, &schedule).map_err(|e| format!("validate: {e}"))?;
    Ok((problem, schedule))
}

/// Builds the rotating-register code for `compiled` from scratch —
/// slack schedule, RR/ICR allocation, kernel emission — and checks it
/// with [`check_artifacts`].
///
/// # Errors
///
/// Returns a description of the first divergence — scheduling failure,
/// allocation failure, simulator fault, or an array mismatch (with the
/// array, element, and both values).
pub fn check_equivalence(
    compiled: &CompiledLoop,
    machine: &Machine,
    config: &RunConfig,
) -> Result<EquivReport, String> {
    let (problem, schedule) = schedule_for(compiled, machine, config)?;
    let allocate = |class| allocate_rotating(&problem, &schedule, class, Strategy::default());
    let rr = allocate(RegClass::Rr).map_err(|e| format!("rr alloc: {e}"))?;
    let icr = allocate(RegClass::Icr).map_err(|e| format!("icr alloc: {e}"))?;
    let kernel =
        lsms_codegen::emit(&problem, &schedule, &rr, &icr).map_err(|e| format!("codegen: {e}"))?;
    check_artifacts(
        compiled,
        &problem,
        &schedule,
        Some((&rr, &icr, &kernel)),
        None,
        config.trip,
        config.seed,
    )
    .map_err(|e| e.to_string())
}

/// Like [`check_equivalence`] but building and executing the
/// modulo-variable-expansion code (static registers, no rotation) —
/// validating the §2.3 alternative end to end.
///
/// # Errors
///
/// As for [`check_equivalence`]; MVE emission and execution failures
/// carry the `mve: ` prefix.
pub fn check_equivalence_mve(
    compiled: &CompiledLoop,
    machine: &Machine,
    config: &RunConfig,
) -> Result<EquivReport, String> {
    let (problem, schedule) = schedule_for(compiled, machine, config)?;
    let kernel = lsms_codegen::emit_mve(&problem, &schedule).map_err(|e| format!("mve: {e}"))?;
    check_artifacts(
        compiled,
        &problem,
        &schedule,
        None,
        Some(&kernel),
        config.trip,
        config.seed,
    )
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_front::compile;
    use lsms_machine::huff_machine;
    use lsms_sched::DirectionPolicy;

    fn check(src: &str) {
        let unit = compile(src).unwrap();
        let machine = huff_machine();
        for l in &unit.loops {
            for trip in [1, 2, 7, 40] {
                for policy in [
                    DirectionPolicy::Bidirectional,
                    DirectionPolicy::AlwaysEarly,
                    DirectionPolicy::AlwaysLate,
                ] {
                    let config = RunConfig {
                        trip,
                        seed: trip.wrapping_mul(0x1234_5678),
                        scheduler: SlackConfig {
                            direction: policy,
                            ..SlackConfig::default()
                        },
                    };
                    let report = check_equivalence(l, &machine, &config).unwrap_or_else(|e| {
                        panic!("{} (trip {trip}, {policy:?}): {e}", l.def.name)
                    });
                    assert!(report.elements > 0);
                }
            }
        }
    }

    /// The §2.3 sample loop.
    const SAMPLE: &str = "loop sample(i = 3..n) {
        real x[], y[];
        x[i] = x[i-1] + y[i-2];
        y[i] = y[i-1] + x[i-2];
    }";

    /// The sample loop's schedule and rotating allocations.
    fn sample_artifacts(
        problem: &SchedProblem<'_>,
    ) -> (Schedule, RotatingAllocation, RotatingAllocation) {
        let schedule = SlackScheduler::new().run(problem).unwrap();
        let allocate = |class| allocate_rotating(problem, &schedule, class, Strategy::default());
        let (rr, icr) = (
            allocate(RegClass::Rr).unwrap(),
            allocate(RegClass::Icr).unwrap(),
        );
        (schedule, rr, icr)
    }

    #[test]
    fn check_artifacts_rejects_a_corrupted_allocation() {
        let unit = compile(SAMPLE).unwrap();
        let compiled = &unit.loops[0];
        let machine = huff_machine();
        let problem = SchedProblem::new(&compiled.body, &machine).unwrap();
        let (schedule, rr, icr) = sample_artifacts(&problem);
        let kernel = lsms_codegen::emit(&problem, &schedule, &rr, &icr).unwrap();
        let check = |rr, kernel| {
            check_artifacts(
                compiled,
                &problem,
                &schedule,
                Some((rr, &icr, kernel)),
                None,
                10,
                7,
            )
        };
        check(&rr, &kernel).expect("the intact artifacts verify");

        // Shift one value's rotating register by one before emitting: the
        // corrupted kernel clobbers a live value, and the checker —
        // running what it is handed, not a rebuilt copy — must see the
        // difference.
        let mut shifted = rr.clone();
        let (&value, offset) = shifted.offsets.iter_mut().next().unwrap();
        *offset = (*offset + 1) % rr.num_regs;
        let bad = lsms_codegen::emit(&problem, &schedule, &shifted, &icr).unwrap();
        let err = check(&shifted, &bad).expect_err("a clobbered register must not verify");
        assert_eq!(
            err.scheme(),
            CodeScheme::Rotating,
            "{err} (value {value:?})"
        );
        assert!(matches!(err, VerifyError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn check_artifacts_rejects_another_loops_mve_kernel() {
        let machine = huff_machine();
        let unit = compile(SAMPLE).unwrap();
        let compiled = &unit.loops[0];
        let problem = SchedProblem::new(&compiled.body, &machine).unwrap();
        let schedule = SlackScheduler::new().run(&problem).unwrap();
        let own = lsms_codegen::emit_mve(&problem, &schedule).unwrap();
        let check =
            |kernel| check_artifacts(compiled, &problem, &schedule, None, Some(kernel), 10, 7);
        check(&own).expect("the sample loop's own MVE kernel verifies");

        // The same loop with the two recurrences' sources swapped compiles
        // to a body of identical shape, so its kernel runs — and computes
        // the wrong thing.
        let other = compile(
            "loop sample(i = 3..n) {
                real x[], y[];
                x[i] = x[i-1] + y[i-1];
                y[i] = y[i-2] + x[i-2];
            }",
        )
        .unwrap();
        let other_problem = SchedProblem::new(&other.loops[0].body, &machine).unwrap();
        let other_schedule = SlackScheduler::new().run(&other_problem).unwrap();
        let foreign = lsms_codegen::emit_mve(&other_problem, &other_schedule).unwrap();
        let err = check(&foreign).expect_err("another loop's kernel must not verify");
        assert_eq!(err.scheme(), CodeScheme::Mve);
        assert!(err.to_string().starts_with("mve: "), "{err}");
    }

    #[test]
    fn simulator_faults_are_reported_per_scheme() {
        let unit = compile(SAMPLE).unwrap();
        let machine = huff_machine();
        let problem = SchedProblem::new(&unit.loops[0].body, &machine).unwrap();
        let (schedule, rr, icr) = sample_artifacts(&problem);
        let kernel = lsms_codegen::emit(&problem, &schedule, &rr, &icr).unwrap();
        let mve = lsms_codegen::emit_mve(&problem, &schedule).unwrap();
        // Without its invariant bindings the loop's address strides have
        // no GPR value: both simulators fault before executing anything.
        let mut unbound = unit.loops[0].clone();
        unbound.invariants.clear();
        let rotating = Some((&rr, &icr, &kernel));
        for (rotating, mve, scheme) in [
            (rotating, None, CodeScheme::Rotating),
            (None, Some(&mve), CodeScheme::Mve),
        ] {
            let err = check_artifacts(&unbound, &problem, &schedule, rotating, mve, 10, 7)
                .expect_err("an unbound GPR faults");
            assert!(
                matches!(
                    &err,
                    VerifyError::Fault { scheme: s, error: SimError::UnboundGpr(_) } if *s == scheme
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn figure1_sample_pipeline_computes_correctly() {
        check(
            "loop sample(i = 3..n) {
                 real x[], y[];
                 x[i] = x[i-1] + y[i-2];
                 y[i] = y[i-1] + x[i-2];
             }",
        );
    }

    #[test]
    fn axpy_pipeline_computes_correctly() {
        check(
            "loop axpy(i = 1..n) {
                 real x[], y[];
                 param real a;
                 y[i] = y[i] + a * x[i];
             }",
        );
    }

    #[test]
    fn conditional_pipeline_computes_correctly() {
        check(
            "loop clip(i = 1..n) {
                 real x[], y[];
                 param real t;
                 if (x[i] > t) { y[i] = t; } else { y[i] = x[i] * 0.5; }
             }",
        );
    }

    #[test]
    fn scalar_recurrence_pipeline_computes_correctly() {
        check(
            "loop scan(i = 1..n) {
                 real x[], y[];
                 real s;
                 s = s * 0.5 + x[i];
                 y[i] = s;
             }",
        );
    }

    #[test]
    fn division_pipeline_computes_correctly() {
        check(
            "loop div(i = 1..n) {
                 real x[], y[], z[];
                 z[i] = x[i] / (y[i] + 3000.0) + sqrt(y[i] + 1000.0);
             }",
        );
    }

    #[test]
    fn integer_pipeline_computes_correctly() {
        check(
            "loop ints(i = 1..n) {
                 int k[], m[];
                 k[i] = (m[i] * 3 + k[i-1]) % 7 + m[i] / 2;
             }",
        );
    }

    #[test]
    fn nested_conditionals_compute_correctly() {
        check(
            "loop nest(i = 1..n) {
                 real x[], y[];
                 param real t;
                 if (x[i] > t) {
                     if (y[i] > 0.0) { y[i] = y[i] - t; } else { y[i] = t; }
                 } else {
                     y[i] = x[i];
                 }
             }",
        );
    }

    #[test]
    fn store_forwarding_computes_correctly() {
        check(
            "loop fwd(i = 1..n) {
                 real x[], y[];
                 x[i] = y[i] * 2.0;
                 y[i+1] = x[i] + 1.0;
             }",
        );
    }

    #[test]
    fn multi_store_arrays_compute_correctly() {
        check(
            "loop multi(i = 2..n) {
                 real x[], y[];
                 x[i] = y[i] + x[i-1];
                 x[i+1] = x[i] * 0.25;
             }",
        );
    }
}
