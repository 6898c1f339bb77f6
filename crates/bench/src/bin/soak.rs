//! Correctness soak: random generated loops through the full pipeline —
//! both code-generation schemes, several trip counts, the three slack
//! direction policies and the Cydrome baseline — compared bit for bit
//! against the reference interpreter.
//!
//! ```sh
//! LSMS_SOAK_START=0 LSMS_SOAK_COUNT=2000 \
//!     cargo run --release -p lsms-bench --bin soak
//! ```

use lsms_machine::huff_machine;
use lsms_pipeline::{BackendSelection, CompileSession, SessionConfig, Stage, VerifySpec};

fn env(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let start = env("LSMS_SOAK_START", 100_000);
    let count = env("LSMS_SOAK_COUNT", 1_000);
    let machine = huff_machine();
    let front = CompileSession::with_machine(machine.clone());
    let mut ok = 0u64;
    let mut sched_fails = 0u64;
    let mut fails = 0u64;
    for seed in start..start + count {
        let loops = lsms_loops::generate(&lsms_loops::GeneratorConfig { seed, count: 1 });
        let unit = match front.compile_source(&loops[0].source) {
            Ok(u) => u,
            Err(e) => {
                println!("COMPILE FAIL {seed}: {e}");
                fails += 1;
                continue;
            }
        };
        for (trip, backend) in [(1, "slack"), (7, "late"), (23, "early"), (11, "cydrome")] {
            // One session per configuration: full codegen (rotating and
            // MVE kernels) plus the simulate-verify pass, which executes
            // both kernels the session built against the reference
            // interpreter.
            let mut config = SessionConfig::new(machine.clone());
            config.backend = BackendSelection::named(backend);
            config.codegen = true;
            config.mve = true;
            config.verify = Some(VerifySpec {
                trip,
                seed: seed ^ 0x1111,
            });
            let session = CompileSession::new(config);
            match session.run_loop(&unit.loops[0]) {
                Ok(_) => ok += 1,
                // A loop the scheduler cannot pipeline is an expected
                // degradation, not a correctness failure.
                Err(e) if e.stage == Stage::Schedule => sched_fails += 1,
                Err(e) => {
                    fails += 1;
                    if fails <= 8 {
                        println!("FAIL seed {seed} trip {trip} {backend:?}: {e}");
                    }
                }
            }
        }
    }
    println!("ok={ok} sched_fails={sched_fails} real_fails={fails}");
    if fails > 0 {
        std::process::exit(1);
    }
}
