//! The parallel sweep executor is an optimization, not a semantics
//! change: for any grid and any worker count, `run_parallel` must
//! produce exactly the reports the serial path produces, in exactly
//! the serial (memory-major) cell order.

use proptest::prelude::*;

use gms_core::{FetchPolicy, MemoryConfig, Sweep};
use gms_mem::SubpageSize;
use gms_trace::apps;

fn grid(scale: f64) -> Sweep {
    Sweep::new(apps::gdb().scaled(scale))
        .policies([
            FetchPolicy::fullpage(),
            FetchPolicy::eager(SubpageSize::S1K),
            FetchPolicy::pipelined(SubpageSize::S2K),
        ])
        .memories([MemoryConfig::Full, MemoryConfig::Half])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `run_parallel(jobs)` for jobs ∈ {1, 2, 8} is byte-identical to
    /// the serial baseline: same cell order, same `RunReport`s.
    #[test]
    fn parallel_matches_serial_for_any_worker_count(scale_pct in 2u64..8) {
        let scale = scale_pct as f64 / 100.0;
        let serial = grid(scale).run().expect("no trace directory");
        for jobs in [1usize, 2, 8] {
            let parallel = grid(scale).run_parallel(jobs).expect("no trace directory");
            prop_assert_eq!(parallel.cells().len(), serial.cells().len());
            for (p, s) in parallel.cells().iter().zip(serial.cells()) {
                prop_assert_eq!(p.policy, s.policy, "cell order diverged at jobs={}", jobs);
                prop_assert_eq!(p.memory, s.memory, "cell order diverged at jobs={}", jobs);
                prop_assert_eq!(
                    &p.report, &s.report,
                    "report diverged for {} {:?} at jobs={}", s.policy, s.memory, jobs
                );
            }
        }
    }
}

/// The paper-default grid (7 policies × 3 memories) keeps the serial
/// memory-major ordering under a parallel run.
#[test]
fn default_grid_order_is_memory_major() {
    let results = Sweep::new(apps::gdb().scaled(0.05))
        .run_parallel(4)
        .expect("no trace directory");
    let memories = [
        MemoryConfig::Full,
        MemoryConfig::Half,
        MemoryConfig::Quarter,
    ];
    assert_eq!(results.cells().len(), 21);
    for (i, cell) in results.cells().iter().enumerate() {
        assert_eq!(cell.memory, memories[i / 7], "cell {i}");
    }
    // Within each memory block the policy axis repeats identically.
    for i in 0..7 {
        assert_eq!(results.cells()[i].policy, results.cells()[i + 7].policy);
        assert_eq!(results.cells()[i].policy, results.cells()[i + 14].policy);
    }
}
