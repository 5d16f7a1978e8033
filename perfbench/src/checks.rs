//! Correctness checks behind `failed_op_frac`.
//!
//! Every check returns `Err(reason)` instead of panicking; one failed
//! check marks its op as failed.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::Hasher;

use gms_cluster::GmsStats;
use gms_core::RunReport;
use gms_obs::JsonValue;

pub type Check = Result<(), String>;

/// The time buckets of a report partition its total: the non-panicking
/// form of [`RunReport::assert_conserved`].
pub fn conserved(r: &RunReport) -> Check {
    let sum = r.exec_time
        + r.sp_latency
        + r.page_wait
        + r.recv_overhead
        + r.emulation_time
        + r.putpage_overhead;
    if sum == r.total_time {
        Ok(())
    } else {
        Err(format!(
            "{} {}: time buckets sum to {sum}, total is {}",
            r.policy, r.memory, r.total_time
        ))
    }
}

/// A report executed every reference of its trace.
pub fn refs_match(r: &RunReport, trace_refs: u64) -> Check {
    if r.total_refs == trace_refs {
        Ok(())
    } else {
        Err(format!(
            "{} {}: {} refs executed, trace has {trace_refs}",
            r.policy, r.memory, r.total_refs
        ))
    }
}

/// Two runs that must agree exactly do.
pub fn identical<T: PartialEq>(a: &T, b: &T, what: &str) -> Check {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: outputs differ"))
    }
}

/// The relative tolerance `tests/calibration.rs` allows quarter-memory
/// fault counts around the paper's published value.
pub const PAPER_BAND: f64 = 0.35;

/// Quarter-memory page faults land in the paper's band.
pub fn in_paper_band(app: &str, faults: u64, paper_quarter: u64) -> Check {
    let off = (faults as f64 - paper_quarter as f64).abs() / paper_quarter as f64;
    if off < PAPER_BAND {
        Ok(())
    } else {
        Err(format!(
            "{app}: {faults} quarter-memory faults vs paper {paper_quarter} ({:.0}% off)",
            off * 100.0
        ))
    }
}

/// A replicated GMS survived its crashes without losing a page.
pub fn no_pages_lost(stats: &GmsStats) -> Check {
    if stats.pages_lost_to_crash == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} pages lost to crashes at K={}",
            stats.pages_lost_to_crash, stats.replicas
        ))
    }
}

/// A CLI call succeeded.
pub fn cli_ok(cmd: &str, result: &Result<String, gms_cli::CliError>) -> Check {
    match result {
        Ok(_) => Ok(()),
        Err(e) => Err(format!("{cmd}: {e}")),
    }
}

/// A `gms-summary/v2` document reports exactly the counters of `r`.
pub fn summary_matches(text: &str, r: &RunReport) -> Check {
    let doc = JsonValue::parse(text).map_err(|e| format!("summary: {e}"))?;
    let counters = doc
        .get("counters")
        .ok_or_else(|| "summary: no counters object".to_string())?;
    let expect = [
        ("total_refs", r.total_refs),
        ("total_time_ns", r.total_time.as_nanos()),
        ("exec_time_ns", r.exec_time.as_nanos()),
        ("sp_latency_ns", r.sp_latency.as_nanos()),
        ("page_wait_ns", r.page_wait.as_nanos()),
        ("faults_remote", r.faults.remote),
        ("faults_disk", r.faults.disk),
        ("evictions", r.evictions),
    ];
    for (key, want) in expect {
        let got = match counters.get(key) {
            Some(JsonValue::Number(n)) => *n,
            _ => return Err(format!("summary: counter {key} missing")),
        };
        if got != want as f64 {
            return Err(format!("summary: {key} is {got}, the run gives {want}"));
        }
    }
    Ok(())
}

/// A stable digest of a value's `Debug` form, for comparing an op's
/// output across rounds without keeping every output.
pub fn digest<T: fmt::Debug>(value: &T) -> u64 {
    struct Sink(DefaultHasher);
    impl fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = Sink(DefaultHasher::new());
    let _ = fmt::write(&mut sink, format_args!("{value:?}"));
    sink.0.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{OpOutcome, Tally};
    use gms_core::{FetchPolicy, MemoryConfig, SimConfig, Simulator};
    use gms_mem::SubpageSize;
    use gms_trace::apps;
    use gms_units::Duration;

    fn report() -> RunReport {
        Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::eager(SubpageSize::S1K))
                .memory(MemoryConfig::Quarter)
                .build(),
        )
        .run(&apps::gdb().scaled(0.05))
    }

    fn outcome(checks: Vec<Check>) -> OpOutcome {
        OpOutcome {
            host_ns: 1,
            refs: 1,
            failures: checks.into_iter().filter_map(Result::err).collect(),
            ..OpOutcome::default()
        }
    }

    #[test]
    fn corrupted_report_counts_as_a_failed_op() {
        let good = report();
        let refs = good.total_refs;
        let mut bad = good.clone();
        bad.exec_time += Duration::from_nanos(1);
        bad.total_refs -= 1;

        let mut tally = Tally::default();
        tally.add(&outcome(vec![conserved(&good), refs_match(&good, refs)]));
        tally.add(&outcome(vec![conserved(&bad), refs_match(&good, refs)]));
        tally.add(&outcome(vec![refs_match(&bad, refs)]));
        tally.add(&outcome(vec![identical(
            &good,
            &bad,
            "recorded vs unrecorded",
        )]));
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.failed, 3);
        assert!((tally.failed_frac() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn corrupted_artifact_counts_as_a_failed_op() {
        let r = report();
        let good = gms_core::run_summary_json(&r);
        assert_eq!(summary_matches(&good, &r), Ok(()));
        let edited = good.replacen("\"evictions\":", "\"evictions\":1", 1);
        let truncated = &good[..good.len() / 2];

        let dir = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.summary.json");
        std::fs::write(&path, truncated).unwrap();
        let argv: Vec<String> = ["check-trace", "--summary", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cli = gms_cli::execute(&argv);
        std::fs::remove_dir_all(&dir).unwrap();

        let mut tally = Tally::default();
        tally.add(&outcome(vec![summary_matches(&good, &r)]));
        tally.add(&outcome(vec![summary_matches(&edited, &r)]));
        tally.add(&outcome(vec![summary_matches(truncated, &r)]));
        tally.add(&outcome(vec![cli_ok("check-trace", &cli)]));
        assert_eq!((tally.attempted, tally.failed), (4, 3));
    }

    #[test]
    fn band_and_loss_checks_reject_out_of_range_values() {
        assert!(in_paper_band("gdb", 825, 882).is_ok());
        assert!(in_paper_band("gdb", 400, 882).is_err());
        let mut stats = report().gms;
        assert!(no_pages_lost(&stats).is_ok());
        stats.pages_lost_to_crash = 3;
        assert!(no_pages_lost(&stats).is_err());
    }

    #[test]
    fn digest_tells_reports_apart() {
        let a = report();
        let mut b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        b.evictions += 1;
        assert_ne!(digest(&a), digest(&b));
    }
}
