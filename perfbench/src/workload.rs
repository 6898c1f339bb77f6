//! The benchmark's workloads: which seeded DSL sources each one compiles,
//! and which pipeline configuration compiles them.

use lsms_loops::{generate_with_profile, kernels, GeneratorConfig, Profile};
use lsms_machine::{huff_machine, Machine};
use lsms_pipeline::{SessionConfig, VerifySpec};
use lsms_prng::SmallRng;

/// Trip count the `compile-verify` workload simulates, and the trip count
/// `paper-corpus` counts its `sim_cycles` at.
pub const TRIP: u64 = 64;

/// Generator seed of every workload's population (the seed the paper
/// corpus is generated with elsewhere in the repository).
pub const POPULATION_SEED: u64 = 1993;

/// Seed of the reference interpreter's input data in `compile-verify`.
pub const VERIFY_SEED: u64 = 0x5eed;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's experiment: the hand-written kernels plus the
    /// calibrated generator, through the three-scheduler evaluation.
    PaperCorpus,
    /// Streaming loops through the whole `lsmsc` path: one backend,
    /// rotating allocation, kernel-only and MVE codegen, simulate-verify.
    CompileVerify,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperCorpus, Workload::CompileVerify];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCorpus => "paper-corpus",
            Workload::CompileVerify => "compile-verify",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Loops compiled per pass. A pass is one session's worth of work:
    /// each pass compiles its share of the run's sources in a fresh
    /// `CompileSession`, so the schedule cache sees the same kind of
    /// traffic in every pass. A `paper-corpus` pass is a corpus of the
    /// paper's size.
    pub fn loops_per_pass(self) -> usize {
        match self {
            Workload::PaperCorpus => lsms_loops::PAPER_CORPUS_SIZE,
            Workload::CompileVerify => 500,
        }
    }

    /// Seconds one run of a pass takes on a two-thread x86-64 box (the
    /// mean of the fastest of three runs), which sizes a run: the work of a
    /// run is fixed by its length, never by how fast the machine happens
    /// to be.
    fn nominal_pass_seconds(self) -> f64 {
        match self {
            Workload::PaperCorpus => 4.5,
            Workload::CompileVerify => 2.2,
        }
    }

    /// Distinct passes in a run of `seconds`: with each pass run
    /// [`REPS`](crate::REPS) times, enough to fill the run on the reference
    /// box, and enough to leave ten latency samples beyond the 99th
    /// percentile.
    pub fn passes(self, seconds: u64) -> usize {
        let fill = (seconds as f64 / self.nominal_pass_seconds()).round() as usize;
        (fill / crate::REPS).max(1000usize.div_ceil(self.loops_per_pass()))
    }

    /// The loops a run of `seconds` compiles: the hand-written kernels (in
    /// `paper-corpus`) plus loops from the workload's generator profile at
    /// generator seed [`POPULATION_SEED`]. Independent of the run's seed.
    ///
    /// Per-loop compile time is heavy-tailed: the slowest 1% of loops take
    /// about 38% of the `paper-corpus` wall. Independently generated
    /// corpora of a run's size therefore differ in throughput by up to 20%
    /// (interquartile range over seeds), and even five-sixths subsets of one
    /// population differed by a quarter, more than a regression bound can
    /// tolerate on top of the machine's own noise. So every seed compiles
    /// the same loops, and the seed decides their order and their grouping
    /// into sessions.
    pub fn population(self, seconds: u64) -> Vec<String> {
        let count = self.passes(seconds) * self.loops_per_pass();
        let config = |count| GeneratorConfig {
            seed: POPULATION_SEED,
            count,
        };
        let loops = match self {
            Workload::PaperCorpus => {
                let mut loops = kernels();
                loops.extend(generate_with_profile(
                    &config(count - loops.len()),
                    &Profile::calibrated(),
                ));
                loops
            }
            Workload::CompileVerify => generate_with_profile(&config(count), &Profile::streaming()),
        };
        loops.into_iter().map(|l| l.source).collect()
    }

    /// The run's sources, pass by pass: a seeded shuffle of the
    /// population, cut into passes. The same seed gives byte-identical
    /// sources, another seed another order and other sessions; the program
    /// under test receives only these strings.
    pub fn draw(self, population: &[String], seed: u64) -> Vec<Vec<String>> {
        let mut order: Vec<usize> = (0..population.len()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
            .chunks_exact(self.loops_per_pass())
            .map(|pass| pass.iter().map(|&i| population[i].clone()).collect())
            .collect()
    }

    /// True for the workloads that run the paper's three-scheduler
    /// evaluation (`evaluate_variants`) rather than `run_loop`.
    pub fn is_evaluation(self) -> bool {
        self != Workload::CompileVerify
    }

    /// The target machine every workload compiles for.
    pub fn machine(self) -> Machine {
        huff_machine()
    }

    /// The session configuration of the workload.
    pub fn session_config(self) -> SessionConfig {
        let mut config = SessionConfig::new(self.machine());
        if self == Workload::CompileVerify {
            config.regalloc = true;
            config.codegen = true;
            config.mve = true;
            config.verify = Some(VerifySpec {
                trip: TRIP,
                seed: VERIFY_SEED,
            });
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_sources_and_another_seed_differs() {
        for workload in Workload::ALL {
            let population = workload.population(20);
            assert_eq!(population, workload.population(20));
            let a = workload.draw(&population, 7);
            let b = workload.draw(&population, 7);
            assert_eq!(
                a.concat().concat().as_bytes(),
                b.concat().concat().as_bytes()
            );
            assert_ne!(a, workload.draw(&population, 8), "{}", workload.name());
            // A draw is a permutation of the population.
            let mut drawn: Vec<&String> = a.iter().flatten().collect();
            drawn.sort();
            drawn.dedup();
            assert_eq!(drawn.len(), a.len() * workload.loops_per_pass());
            assert_eq!(drawn.len(), population.len());
            assert!(a.iter().all(|p| p.len() == workload.loops_per_pass()));
        }
    }

    #[test]
    fn every_run_has_enough_samples_for_a_99th_percentile() {
        for workload in Workload::ALL {
            for seconds in [1, 20, 60] {
                let loops = workload.passes(seconds) * workload.loops_per_pass();
                assert_eq!(crate::stats::tail_percentile(loops), 99.0);
                assert_eq!(workload.population(seconds).len(), loops);
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
