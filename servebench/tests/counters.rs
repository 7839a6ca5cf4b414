//! The machine-independent work counters repeat exactly under one seed
//! and move under another. They are the numbers a gate can hold hard:
//! rows and hash entries each layer touched, the eager/lazy choices,
//! the rewrite outcomes, the estimate Q-errors and the plan-cache
//! hit/miss counts.
//!
//! Run with `cargo test --release --manifest-path servebench/Cargo.toml`.

use gbj_servebench::workload::{run, Config, Counters, Stop, Workload};

/// Reads per run: two passes over the seven fixed queries, each query
/// read once on the untraced and once on the traced path.
const READS: usize = 28;

fn counters(workload: Workload, seed: u64) -> (Counters, Counters) {
    let out = run(Config {
        workload,
        seed,
        stop: Stop::Reads(READS),
        trace: true,
    })
    .expect("run completes");
    assert_eq!(out.failed, 0, "every read and write checks out");
    assert!(out.invalid.is_none());
    (out.untraced, out.traced)
}

fn assert_repeat_and_move(workload: Workload) {
    let a = counters(workload, 11);
    let b = counters(workload, 11);
    for (x, y) in [(&a.0, &b.0), (&a.1, &b.1)] {
        assert_eq!(x.deterministic(), y.deterministic(), "{workload:?} repeats");
        assert_eq!(x.reads, (READS / 2) as u64);
    }
    let c = counters(workload, 12);
    for (x, y) in [(&a.0, &c.0), (&a.1, &c.1)] {
        assert_ne!(x.deterministic(), y.deterministic(), "{workload:?} moves");
        assert_ne!(x.rows_in, y.rows_in);
        assert_ne!(x.hash_entries, y.hash_entries);
    }
}

#[test]
fn serve_hot_counters_are_deterministic() {
    assert_repeat_and_move(Workload::ServeHot);
    let (untraced, traced) = counters(Workload::ServeHot, 11);
    // The working set fits the plan cache: after warm-up, every read hits.
    assert_eq!((untraced.cache_hits, untraced.cache_misses), (14, 0));
    assert_eq!((traced.cache_hits, traced.cache_misses), (14, 0));
    assert!(traced.rewrite_valid > 0 && traced.rewrite_valid < traced.rewrite_attempts);
}

#[test]
fn adhoc_counters_are_deterministic() {
    assert_repeat_and_move(Workload::Adhoc);
    let (untraced, traced) = counters(Workload::Adhoc, 11);
    // Query text never repeats: every read misses.
    assert_eq!((untraced.cache_hits, untraced.cache_misses), (0, 14));
    assert_eq!((traced.cache_hits, traced.cache_misses), (0, 14));
}
