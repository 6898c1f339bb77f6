//! Wall-clock benchmark of corpus evaluation, writing machine-readable
//! `BENCH_corpus.json` at the repository root (or `LSMS_BENCH_OUT`).
//!
//! Three runs are measured: a cold single-threaded run, a cold run at the
//! requested `--jobs` count (each in a fresh session, so neither benefits
//! from the schedule cache), and a cached re-run of the single-threaded
//! session, which replays every schedule from the in-memory
//! content-addressed cache. The parallel speedup and the cached-rerun
//! speedup are both measured rather than assumed.

use std::time::Instant;

use lsms_bench::{evaluate_corpus_session, BenchArgs, LoopRecord, CORPUS_SEED};
use lsms_machine::huff_machine;
use lsms_pipeline::CompileSession;

struct Timing {
    label: &'static str,
    jobs: usize,
    total_secs: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    mindist: MinDistCounters,
    sched_cache: SchedCacheCounters,
    straggler_idle_us: u64,
    records: Vec<LoopRecord>,
}

/// The session's `mindist` accounting entry: how the shared MinDist
/// caches served this run's matrix requests.
#[derive(Clone, Copy, Default)]
struct MinDistCounters {
    hits: u64,
    misses: u64,
    fw_computes: u64,
}

/// The session's `sched-cache` accounting entry: how the
/// content-addressed schedule cache served this run's backend
/// invocations.
#[derive(Clone, Copy, Default)]
struct SchedCacheCounters {
    hits: u64,
    misses: u64,
    inserts: u64,
    warm_hits: u64,
}

/// Snapshot of the session's cumulative `mindist` counters (the session's
/// report accumulates across runs, so per-run numbers are a difference of
/// two snapshots).
fn mindist_snapshot(session: &CompileSession) -> MinDistCounters {
    let report = session.report();
    let Some(record) = report.get("mindist") else {
        return MinDistCounters::default();
    };
    let get = |key| record.counters.get(key).copied().unwrap_or(0);
    MinDistCounters {
        hits: get("hits"),
        misses: get("misses"),
        fw_computes: get("fw_computes"),
    }
}

/// Snapshot of the session's cumulative `sched-cache` counters.
fn sched_cache_snapshot(session: &CompileSession) -> SchedCacheCounters {
    let report = session.report();
    let Some(record) = report.get("sched-cache") else {
        return SchedCacheCounters::default();
    };
    let get = |key| record.counters.get(key).copied().unwrap_or(0);
    SchedCacheCounters {
        hits: get("hits"),
        misses: get("misses"),
        inserts: get("inserts"),
        warm_hits: get("warm_hits"),
    }
}

impl MinDistCounters {
    fn since(self, before: MinDistCounters) -> MinDistCounters {
        MinDistCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            fw_computes: self.fw_computes - before.fw_computes,
        }
    }
}

impl SchedCacheCounters {
    fn since(self, before: SchedCacheCounters) -> SchedCacheCounters {
        SchedCacheCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            inserts: self.inserts - before.inserts,
            warm_hits: self.warm_hits - before.warm_hits,
        }
    }
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn run(label: &'static str, count: usize, session: &CompileSession, jobs: usize) -> Timing {
    // Per-loop latencies come from the scheduler's own elapsed counters
    // (summed over the three runs), so they are meaningful even when the
    // loops ran concurrently — and a cached replay reports the stored
    // cold latencies, keeping the percentiles comparable across rows.
    let before = mindist_snapshot(session);
    let cache_before = sched_cache_snapshot(session);
    let started = Instant::now();
    let corpus = evaluate_corpus_session(session, count, CORPUS_SEED, jobs);
    let total_secs = started.elapsed().as_secs_f64();
    let mindist = mindist_snapshot(session).since(before);
    let sched_cache = sched_cache_snapshot(session).since(cache_before);
    corpus.warn_failures();
    let straggler_idle_us = corpus.straggler_idle_us;
    let records = corpus.records;
    let mut per_loop: Vec<f64> = records
        .iter()
        .map(|r| {
            (r.new.stats.elapsed + r.early.stats.elapsed + r.old.stats.elapsed).as_secs_f64() * 1e3
        })
        .collect();
    per_loop.sort_by(|a, b| a.total_cmp(b));
    Timing {
        label,
        jobs,
        total_secs,
        p50_ms: percentile_ms(&per_loop, 0.50),
        p90_ms: percentile_ms(&per_loop, 0.90),
        p99_ms: percentile_ms(&per_loop, 0.99),
        mindist,
        sched_cache,
        straggler_idle_us,
        records,
    }
}

/// Engine work counters summed over a run's records (all three scheduler
/// variants): the sparsity counters `--timings`/`--metrics` also report.
fn engine_counters(records: &[LoopRecord]) -> (u64, u64) {
    records.iter().fold((0, 0), |(cells, scans), r| {
        let outcomes = [&r.new, &r.early, &r.old];
        (
            cells
                + outcomes
                    .iter()
                    .map(|o| o.stats.bounds_cells_touched)
                    .sum::<u64>(),
            scans
                + outcomes
                    .iter()
                    .map(|o| o.stats.choose_scan_len)
                    .sum::<u64>(),
        )
    })
}

fn json_entry(t: &Timing) -> String {
    let m = &t.mindist;
    let c = &t.sched_cache;
    let (cells, scans) = engine_counters(&t.records);
    format!(
        "{{\"label\": \"{}\", \"jobs\": {}, \"total_secs\": {:.6}, \"per_loop_ms\": {{\"p50\": {:.4}, \"p90\": {:.4}, \"p99\": {:.4}}}, \
         \"straggler_idle_us\": {}, \
         \"engine\": {{\"bounds_cells_touched\": {}, \"choose_scan_len\": {}}}, \
         \"mindist\": {{\"hits\": {}, \"misses\": {}, \"fw_computes\": {}}}, \
         \"sched_cache\": {{\"hits\": {}, \"misses\": {}, \"inserts\": {}, \"warm_hits\": {}}}}}",
        t.label, t.jobs, t.total_secs, t.p50_ms, t.p90_ms, t.p99_ms,
        t.straggler_idle_us,
        cells, scans,
        m.hits, m.misses, m.fw_computes,
        c.hits, c.misses, c.inserts, c.warm_hits
    )
}

fn print_row(t: &Timing) {
    println!(
        "  {:<12} jobs={:<3} {:>8.3}s  p50 {:.2}ms  p90 {:.2}ms  p99 {:.2}ms",
        t.label, t.jobs, t.total_secs, t.p50_ms, t.p90_ms, t.p99_ms
    );
}

fn main() {
    let args = BenchArgs::parse();

    println!(
        "corpus_time: {} loops, {} job(s)",
        args.corpus_size, args.jobs
    );
    // Fresh sessions per cold row: the schedule cache lives in the
    // session, so sharing one would turn the second row into a replay.
    let single_session = CompileSession::with_machine(huff_machine());
    let single = run("cold", args.corpus_size, &single_session, 1);
    print_row(&single);
    let multi_session = CompileSession::with_machine(huff_machine());
    let multi = run("cold", args.corpus_size, &multi_session, args.jobs);
    print_row(&multi);
    // Re-running the first session replays every schedule from the
    // in-memory content-addressed cache.
    let cached = run("cached", args.corpus_size, &single_session, 1);
    print_row(&cached);

    let speedup = single.total_secs / multi.total_secs.max(1e-9);
    let cached_speedup = single.total_secs / cached.total_secs.max(1e-9);
    println!("  parallel speedup {speedup:.2}x, cached-rerun speedup {cached_speedup:.2}x");
    let m = &multi.mindist;
    println!(
        "  mindist: {} hits / {} misses ({} FW)",
        m.hits, m.misses, m.fw_computes
    );
    let c = &cached.sched_cache;
    println!(
        "  sched-cache (cached rerun): {} hits / {} misses, straggler idle {}us at jobs={}",
        c.hits, c.misses, multi.straggler_idle_us, multi.jobs
    );

    // Cross-check determinism while we have all three runs in hand.
    for other in [&multi, &cached] {
        assert_eq!(single.records.len(), other.records.len());
        for (a, b) in single.records.iter().zip(&other.records) {
            assert_eq!(a.name, b.name, "corpus order must not depend on jobs");
            assert_eq!(a.new.ii, b.new.ii, "{}: II must not depend on jobs", a.name);
        }
    }

    let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"benchmark\": \"corpus_time\",\n  \"corpus_size\": {},\n  \"seed\": {},\n  \"hardware_threads\": {},\n  \"speedup\": {:.3},\n  \"cached_speedup\": {:.3},\n  \"runs\": [\n    {},\n    {},\n    {}\n  ]\n}}\n",
        args.corpus_size,
        CORPUS_SEED,
        hardware,
        speedup,
        cached_speedup,
        json_entry(&single),
        json_entry(&multi),
        json_entry(&cached),
    );
    let out = std::env::var("LSMS_BENCH_OUT").unwrap_or_else(|_| "BENCH_corpus.json".into());
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("  wrote {out}");
}
