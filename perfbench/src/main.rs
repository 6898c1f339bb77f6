//! The repository benchmark: seeded DSL loops compiled one at a time
//! through the public `lsms-pipeline` API by a single client thread.
//!
//! ```text
//! lsms-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing, its times
//! given at the reference speed of the machine-speed probe (`calibrate`);
//! `--trace 1` runs the untraced pipeline and a traced replay of the same
//! sources, and reports the per-layer metrics. Either way the last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is non-zero when
//! any output check failed.

mod calibrate;
mod measure;
mod replay;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use calibrate::{loop_factors, to_reference, Probe, NOMINAL_PROBE_S};
use measure::{run_pass, setup_seconds, sources, Digest, Pass};
use replay::{depgraph_ms_p99, replay, Replay};
use stats::{median, percentile, result_line, samples_beyond, tail_percentile, Metrics, RunTally};
use workload::Workload;

/// Batches of session set-ups measured before each timed pass, each
/// followed by a machine-speed probe; `setup_s` is the median of their
/// per-set-up times at the reference speed over the whole run.
const SETUP_SAMPLES_PER_PASS: usize = 25;

/// Runs of every pass in the untraced run. On a machine shared with other
/// workloads the same code can run up to half slower from one second to
/// the next, and the probe follows such changes only over a window of
/// loops; the lowest of three runs of a loop is far steadier than any
/// single run.
pub(crate) const REPS: usize = 3;

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, not `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing `--workload`")?,
        seed: seed.ok_or("missing `--seed`")?,
        seconds: seconds.ok_or("missing `--seconds`")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: lsms-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", result_line(correct, attempted, failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Outcome = (bool, u64, u64, Metrics);

/// Peak resident set of this process, in megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The untraced run: every pass of the drawn sources [`REPS`] times, each
/// time in a fresh session, the passes interleaved so that the repeats of
/// one loop fall at different times of the run. Every repeat of a pass must
/// give exactly the same results as its first run. A loop's latency is the
/// lowest of its repeats, each taken to the reference speed by the probes
/// around it. `setup_s` is the median over [`SETUP_SAMPLES_PER_PASS`]
/// batches of session set-ups made before each pass, each batch taken to
/// the reference speed by the probes between its samples, so it sees the
/// machine in the same states as the passes. The measured times, not
/// scaled, are printed on standard error.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let sources = sources(w, args.seed, args.seconds);
    let mut probe = Probe::new();
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let mut repeats: Vec<Vec<Pass>> = vec![Vec::new(); sources.len()];
    for _ in 0..REPS {
        for (pass, runs) in sources.iter().zip(&mut repeats) {
            let (samples, probes): (Vec<f64>, Vec<f64>) = (0..SETUP_SAMPLES_PER_PASS)
                .map(|_| (setup_seconds(w), probe.time()))
                .unzip();
            let factor = to_reference(&probes);
            setups.extend(samples.iter().map(|s| s * factor));
            setups_raw.extend(samples);
            runs.push(run_pass(w, pass, Some(&mut probe)));
        }
    }

    let mut correct = true;
    for (i, runs) in repeats.iter().enumerate() {
        for (rep, pass) in runs.iter().enumerate() {
            correct &= pass.checks.report(&format!("pass {i} run {rep}"));
            if pass.digest != runs[0].digest || pass.records != runs[0].records {
                eprintln!(
                    "check failed: pass {i} is not deterministic:\n  first  {:?}\n  run {rep}  {:?}",
                    runs[0].digest, pass.digest
                );
                correct = false;
            }
        }
    }
    let passes: Vec<&Pass> = repeats.iter().map(|runs| &runs[0]).collect();
    let latencies = best_latencies(&repeats, true);
    let latencies_raw = best_latencies(&repeats, false);
    let best_s: f64 = latencies.iter().sum::<f64>() * 1e-3;
    let best_raw_s: f64 = latencies_raw.iter().sum::<f64>() * 1e-3;
    let probes: Vec<f64> = repeats
        .iter()
        .flatten()
        .flat_map(|p| p.probes.iter().map(|&(_, t)| t))
        .collect();
    let wall: f64 = repeats.iter().flatten().map(|p| p.wall_s).sum();
    let mut total = Digest::default();
    let mut runs = RunTally::default();
    for d in passes.iter().map(|p| p.digest) {
        total.sum_ii += d.sum_ii;
        total.sum_maxlive += d.sum_maxlive;
        total.sim_cycles += d.sim_cycles;
        total.code_insts += d.code_insts;
        runs.attempted += d.runs.attempted;
        runs.failed += d.runs.failed;
    }
    let tail = tail_percentile(latencies.len());
    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s");
    m.push("loops_per_s", latencies.len() as f64 / best_s, "1/s");
    m.push("loop_ms_p50", median(&latencies), "ms");
    m.push(
        format!("loop_ms_p{tail}"),
        percentile(&latencies, tail),
        "ms",
    );
    m.push("peak_rss_mb", peak_rss_mb()?, "MB");
    m.push("ok_ratio", runs.ok_ratio(), "ratio");
    m.count("sum_ii", total.sum_ii);
    m.count("sum_maxlive", total.sum_maxlive);
    m.push("sim_cycles", total.sim_cycles as f64, "cycles");
    m.push("code_insts", total.code_insts as f64, "insts");

    eprintln!(
        "{} seed {}: {} passes of {} loops, {REPS} runs each, {} latency samples \
         (p{tail} has {} beyond), {:.3} s timed, {:.3} s best; \
         runs {} attempted, {} failed (fail_ratio {:.6})\n\
         machine speed {:.3} of reference ({} probes, median {:.4} ms); measured, not scaled: \
         loops_per_s {:.3}, loop_ms_p50 {:.5}, loop_ms_p{tail} {:.4}, setup_s {:.4e}",
        w.name(),
        args.seed,
        passes.len(),
        w.loops_per_pass(),
        latencies.len(),
        samples_beyond(latencies.len(), tail),
        wall,
        best_s,
        runs.attempted,
        runs.failed,
        runs.fail_ratio(),
        NOMINAL_PROBE_S / median(&probes),
        probes.len(),
        median(&probes) * 1e3,
        latencies_raw.len() as f64 / best_raw_s,
        median(&latencies_raw),
        percentile(&latencies_raw, tail),
        median(&setups_raw),
    );
    for (i, runs) in repeats.iter().enumerate() {
        let walls: Vec<String> = runs.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
        eprintln!("  pass {i}: {} s", walls.join(" / "));
    }
    for metric in &m.0 {
        eprintln!("  {:<14} {:>22} {}", metric.name, metric.value, metric.unit);
    }
    let attempted = (latencies.len() * REPS) as u64;
    let failed = repeats.iter().flatten().map(|p| p.checks.failed).sum();
    Ok((correct, attempted, failed, m))
}

/// Per loop of every pass, the lowest latency of its runs in
/// milliseconds, each run's latency first taken to the reference speed of
/// the machine-speed probe when `at_reference` is true.
fn best_latencies(repeats: &[Vec<Pass>], at_reference: bool) -> Vec<f64> {
    repeats
        .iter()
        .flat_map(|runs| {
            let loops = runs[0].latencies_ms.len();
            let factors: Vec<Vec<f64>> = runs
                .iter()
                .map(|p| match at_reference {
                    true => loop_factors(&p.probes, loops),
                    false => vec![1.0; loops],
                })
                .collect();
            (0..loops).map(move |j| {
                runs.iter()
                    .zip(&factors)
                    .map(|(p, f)| p.latencies_ms[j] * f[j])
                    .fold(f64::INFINITY, f64::min)
            })
        })
        .collect()
}

/// The traced run: pairs of an untraced pass and a traced replay of the
/// run's first pass, repeated while the run's time lasts. Self times are
/// medians over the pairs; counts must repeat exactly.
fn traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let started = Instant::now();
    let drawn = sources(w, args.seed, args.seconds);
    let sources = &drawn[0];
    let mut correct = true;
    let mut pairs: Vec<(Pass, Replay)> = Vec::new();
    while pairs.is_empty() || started.elapsed().as_secs_f64() < args.seconds as f64 {
        let pass = run_pass(w, sources, None);
        let mut traced = replay(w, sources);
        traced.check_against(&pass);
        correct &= pass.checks.report("untraced pass");
        correct &= traced.checks.report("traced replay");
        if let Some((first, first_replay)) = pairs.first() {
            if first.digest != pass.digest || first_replay.counts != traced.counts {
                eprintln!("check failed: repeated passes of one seed differ");
                correct = false;
            }
        }
        pairs.push((pass, traced));
    }

    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("cannot create {TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}-{}.json", w.name(), args.seed);
    std::fs::write(&path, pairs[0].1.tracer.to_chrome_json())
        .map_err(|e| format!("cannot write {path}: {e}"))?;

    let med = |f: &dyn Fn(&Pass, &Replay) -> f64| {
        median(&pairs.iter().map(|(p, r)| f(p, r)).collect::<Vec<_>>())
    };
    let layer = |name: &'static str| {
        move |_: &Pass, r: &Replay| r.tracer.self_seconds().get(name).copied().unwrap_or(0.0)
    };
    let c = pairs[0].1.counts;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;

    let mut m = Metrics::default();
    m.push("front.self_s", med(&layer("front")), "s");
    m.count("front.ops", c.front_ops);
    m.push("depgraph.self_s", med(&layer("depgraph")), "s");
    m.push(
        "depgraph.ms_p99",
        med(&|_, r| depgraph_ms_p99(&r.tracer)),
        "ms",
    );
    m.count("depgraph.arcs", c.depgraph_arcs);
    m.push("mindist.self_s", med(&layer("mindist")), "s");
    m.count("mindist.misses", c.mindist.misses);
    m.count("mindist.fw_computes", c.mindist.fw_computes);
    m.count("mindist.materialized", c.mindist.materialized);
    m.count("mindist.parametric_builds", c.mindist.parametric_builds);
    // The replay asks MinDist for MII itself before the first backend
    // runs, so the hit ratio is the session's own.
    let md = pairs[0].0.digest.mindist;
    m.push(
        "mindist.hit_ratio",
        ratio(md.hits, md.hits + md.misses),
        "ratio",
    );
    for backend in ["slack", "early", "cydrome"] {
        let span = replay::engine_layer(backend);
        m.push(format!("{span}.self_s"), med(&layer(span)), "s");
    }
    let e = c.engine;
    m.count("engine.attempts", e.attempts);
    m.count("engine.central_iterations", e.central_iterations);
    m.count("engine.ejected_ops", e.ejected_ops);
    m.count("engine.bounds_cells_touched", e.bounds_cells_touched);
    m.count("engine.choose_scan_len", e.choose_scan_len);
    m.push(
        "engine.attempt_yield",
        ratio(e.schedules, e.attempts),
        "ratio",
    );
    m.push("pressure.self_s", med(&layer("pressure")), "s");
    m.push("sched-cache.self_s", med(&layer("sched-cache")), "s");
    m.count("sched-cache.hits", c.memo_hits);
    let lookups = c.memo_hits + c.memo_misses;
    m.push(
        "sched-cache.hit_ratio",
        ratio(c.memo_hits, lookups),
        "ratio",
    );
    m.push("validate.self_s", med(&layer("validate")), "s");
    m.push("regalloc.self_s", med(&layer("regalloc")), "s");
    m.count("regalloc.excess", c.regalloc_excess);
    m.push("codegen.self_s", med(&layer("codegen")), "s");
    m.count("codegen.kernel_insts", c.kernel_insts);
    m.count("codegen.mve_insts", c.mve_insts);
    m.push("sim.verify_s", med(&layer("sim")), "s");
    m.count("sim.cycles", c.sim_cycles);
    m.push("sim.exec_s", med(&|_, r| r.sim_exec_s), "s");
    let coverage = |_: &Pass, r: &Replay| {
        let selfs = r.tracer.self_seconds();
        let attributed: f64 = selfs
            .iter()
            .filter(|(name, _)| **name != replay::LOOP)
            .map(|(_, s)| s)
            .sum();
        attributed / r.traced_wall_s()
    };
    m.push("trace.coverage", med(&coverage), "ratio");
    let overhead = |p: &Pass, r: &Replay| {
        let untraced: f64 = p.latencies_ms.iter().sum::<f64>() * 1e-3;
        100.0 * (r.traced_wall_s() - untraced) / untraced
    };
    m.push("trace.overhead_pct", med(&overhead), "%");

    let traced_wall = med(&|_, r| r.traced_wall_s());
    eprintln!(
        "{} seed {}: {} traced pairs of {} loops; traced wall {:.3} s; spans in {path}",
        w.name(),
        args.seed,
        pairs.len(),
        sources.len(),
        traced_wall
    );
    for metric in &m.0 {
        let share = if metric.unit == "s" && metric.name != "sim.exec_s" {
            format!("{:5.1}% of traced wall", 100.0 * metric.value / traced_wall)
        } else {
            String::new()
        };
        eprintln!(
            "  {:<28} {:>22} {:<6} {share}",
            metric.name, metric.value, metric.unit
        );
    }
    let attempted = 2 * (pairs.len() * sources.len()) as u64;
    let failed = pairs
        .iter()
        .map(|(p, r)| p.checks.failed + r.checks.failed)
        .sum();
    Ok((correct, attempted, failed, m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "compile-verify",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::CompileVerify);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        assert!(parse(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&[
            "--workload",
            "paper-corpus",
            "--seed",
            "x",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(parse(&["--workload", "paper-corpus", "--seconds", "1"]).is_err());
        assert!(parse(&["--trace"]).is_err());
    }
}
