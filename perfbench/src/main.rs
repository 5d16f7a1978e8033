//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_grid|cluster_chaos|observe_export> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance, one line per metric with its unit, and as the last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, from a
//! traced op loop and layer replays. See `perfbench/README.md`.

mod checks;
mod cluster_chaos;
mod layers;
mod observe_export;
mod paper_grid;
mod span;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use layers::LayerReport;
use span::Tracer;
use workload::{
    median, quantile, run_loop, LoopResult, Workload, MIN_OPS, SETUP_MIN_S, SETUP_REPS,
};

/// Op ids of spans recorded outside the op loop.
const SETUP_OP: u64 = u64::MAX;
const REPLAY_OP: u64 = u64::MAX - 1;

const WORKLOADS: [&str; 3] = ["paper_grid", "cluster_chaos", "observe_export"];

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 8] = [
    ("refs_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_op_frac", "fraction"),
    ("sim_runtime_s", "sim_s"),
    ("sim_wait_p99_us", "sim_us"),
];

/// Per-layer metrics: name, unit. Every traced run prints all of them;
/// a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 52] = [
    ("trace.capture_ms", "ms"),
    ("trace.runs", "count"),
    ("trace.bytes", "B"),
    ("trace.gen_ns_per_run", "ns"),
    ("engine.ms_per_op", "ms"),
    ("engine.ns_per_fault", "ns"),
    ("engine.unattributed_frac", "fraction"),
    ("mem.replacement_ns_per_op", "ns"),
    ("mem.replacement_ops", "count"),
    ("net.fault_ns", "ns"),
    ("net.send_ns", "ns"),
    ("net.faults", "count"),
    ("net.retries", "count"),
    ("net.sim_queue_delay_ms", "sim_ms"),
    ("cluster.getpage_ns", "ns"),
    ("cluster.putpage_ns", "ns"),
    ("cluster.replicate_ns", "ns"),
    ("cluster.ops", "count"),
    ("cluster.hit_rate", "fraction"),
    ("policy.plan_ns.sp_1024", "ns"),
    ("policy.plan_ns.leap_1024", "ns"),
    ("policy.plan_ns.indigo_1024", "ns"),
    ("policy.observe_ns.sp_1024", "ns"),
    ("policy.observe_ns.leap_1024", "ns"),
    ("policy.observe_ns.indigo_1024", "ns"),
    ("policy.prefetch_useful_frac", "fraction"),
    ("obs.record_ns_per_event.memory", "ns"),
    ("obs.record_ns_per_event.flight", "ns"),
    ("obs.record_ns_per_event.heat", "ns"),
    ("obs.events", "count"),
    ("obs.export_bytes", "B"),
    ("obs.export_mb_per_s", "MB/s"),
    ("obs.json_bytes", "B"),
    ("obs.json_parse_mb_per_s", "MB/s"),
    ("cli.self_ms.run", "ms"),
    ("cli.self_ms.explain", "ms"),
    ("cli.self_ms.profile", "ms"),
    ("cli.self_ms.heat", "ms"),
    ("cli.self_ms.check-trace", "ms"),
    ("self_ms.trace", "ms"),
    ("self_ms.engine", "ms"),
    ("self_ms.mem", "ms"),
    ("self_ms.net", "ms"),
    ("self_ms.cluster", "ms"),
    ("self_ms.policy", "ms"),
    ("self_ms.obs", "ms"),
    ("self_ms.cli", "ms"),
    ("tracing.overhead_frac", "fraction"),
    ("tracing.traced_round_ms", "ms"),
    ("tracing.untraced_round_ms", "ms"),
    ("tracing.spans", "count"),
    ("layers.replay_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn setup(name: &str, seed: u64, tracer: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_grid" => Box::new(paper_grid::PaperGrid::setup(seed, tracer)),
        "cluster_chaos" => Box::new(cluster_chaos::ClusterChaos::setup(seed, tracer)),
        _ => Box::new(observe_export::ObserveExport::setup(tracer)?),
    })
}

fn provenance(args: &Args) -> Vec<String> {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        format!("seed: {}", args.seed),
        format!("git rev: {git}"),
        format!(
            "build profile: {}",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (thin LTO, 1 codegen unit)"
            }
        ),
        format!("rustc: {rustc}"),
        format!("nproc: {nproc}; load from 1 process, 1 thread"),
        format!("cpu: {cpu}"),
    ]
}

/// The end-to-end metrics. Host times of ops are scaled to the reference
/// speed (see `Bound::reference_ms`).
fn end_to_end(setups: &[f64], lr: &LoopResult, w: &dyn Workload) -> BTreeMap<String, f64> {
    let kernel_ms: Vec<f64> = lr.reference_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let scale = w.bound().reference_ms() / median(&kernel_ms);
    let raw: Vec<f64> = lr.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    println!(
        "# raw host time: setup_s {} s, op_ms_p50 {} ms, op_ms_p90 {} ms, refs_per_s {} 1/s; {:?} reference kernel median {} ms over {} passes; host times below scaled by {scale}",
        median(setups),
        median(&raw),
        quantile(&raw, 0.9),
        lr.refs as f64 / (raw.iter().sum::<f64>() / 1e3),
        w.bound(),
        median(&kernel_ms),
        kernel_ms.len()
    );
    let ms: Vec<f64> = raw.iter().map(|v| v * scale).collect();
    let host_s: f64 = ms.iter().sum::<f64>() / 1e3;
    let mut m = BTreeMap::new();
    m.insert("refs_per_s".into(), lr.refs as f64 / host_s);
    m.insert("op_ms_p50".into(), median(&ms));
    m.insert("op_ms_p90".into(), quantile(&ms, 0.9));
    m.insert("setup_s".into(), median(setups) * scale);
    m.insert("peak_rss_mb".into(), workload::peak_rss_mb().unwrap_or(0.0));
    m.insert("ok_op_frac".into(), 1.0 - lr.tally.failed_frac());
    m.insert("sim_runtime_s".into(), lr.sim_ns as f64 / 1e9);
    m.insert(
        "sim_wait_p99_us".into(),
        lr.waits.quantile(0.99) as f64 / 1e3,
    );
    m
}

fn per_layer(
    tracer: &Tracer,
    untraced: &LoopResult,
    traced: &LoopResult,
    layers: LayerReport,
    captured_runs: u64,
    setup_reps: usize,
    replay_s: f64,
) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut m: BTreeMap<String, f64> = layers.metrics;
    let mut notes = layers.notes;
    let (_, capture_ns, _) = tracer.totals("trace.capture");
    let capture_ms = capture_ns as f64 / 1e6 / setup_reps as f64;
    m.insert("trace.capture_ms".into(), capture_ms);
    m.insert(
        "trace.gen_ns_per_run".into(),
        capture_ms * 1e6 / captured_runs.max(1) as f64,
    );
    m.insert("trace.runs".into(), captured_runs as f64);
    m.insert(
        "trace.bytes".into(),
        (captured_runs as usize * std::mem::size_of::<gms_trace::Run>()) as f64,
    );

    // Self time per layer over the traced op loop only: set-up and the
    // layer replays are not part of an op.
    let own = tracer.self_times();
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    for (s, own) in tracer.spans().iter().zip(own) {
        if s.op < REPLAY_OP {
            *by_layer.entry(s.layer().to_string()).or_insert(0) += own;
        }
    }
    let rounds = traced.rounds.max(1) as f64;
    for (layer, ns) in &by_layer {
        m.insert(format!("self_ms.{layer}"), *ns as f64 / 1e6 / rounds);
    }
    if let Some((layer, ns)) = by_layer.iter().max_by_key(|(_, &ns)| ns) {
        notes.push(format!(
            "largest self-time layer in the op loop: {layer} ({:.3} ms per round of {} ops)",
            *ns as f64 / 1e6 / rounds,
            traced.op_ns.len() / traced.rounds.max(1)
        ));
    }
    let (t, u) = (round_ms(traced), round_ms(untraced));
    m.insert("tracing.traced_round_ms".into(), t);
    m.insert("tracing.untraced_round_ms".into(), u);
    m.insert(
        "tracing.overhead_frac".into(),
        if u > 0.0 { t / u - 1.0 } else { 0.0 },
    );
    m.insert("tracing.spans".into(), tracer.spans().len() as f64);
    m.insert("layers.replay_s".into(), replay_s);
    for (name, _) in PER_LAYER {
        if !m.contains_key(name) {
            m.insert(name.to_string(), 0.0);
            notes.push(format!("{name}: not exercised by this workload, reads 0"));
        }
    }
    m.retain(|k, _| PER_LAYER.iter().any(|(n, _)| n == k));
    (m, notes)
}

/// Host ms of a typical round: the sum over a round's ops of each op's
/// median across rounds, so one slow round does not skew it.
fn round_ms(lr: &LoopResult) -> f64 {
    let n = lr.op_ns.len() / lr.rounds.max(1);
    (0..n)
        .map(|i| {
            let per_round: Vec<f64> = lr
                .op_ns
                .iter()
                .skip(i)
                .step_by(n)
                .map(|&ns| ns as f64 / 1e6)
                .collect();
            median(&per_round)
        })
        .sum()
}

fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_build")
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, f64>,
    units: &[(&str, &str)],
) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    let mut first = true;
    for (name, unit) in units {
        let v = metrics.get(*name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in provenance(&args) {
        println!("# {line}");
    }
    let mut tracer = Tracer::new(args.trace);
    tracer.set_op(SETUP_OP);
    let mut setups = Vec::new();
    let mut built = None;
    let started = Instant::now();
    while setups.len() < SETUP_REPS || started.elapsed().as_secs_f64() < SETUP_MIN_S {
        // Drop the previous set-up first so its memory is not counted twice.
        drop(built.take());
        let t0 = Instant::now();
        match setup(&args.workload, args.seed, &mut tracer) {
            Ok(w) => built = Some(w),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::from(1);
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up");
    println!("# {}", w.describe());

    let seconds = args.seconds as f64;
    let (metrics, units, tally): (BTreeMap<String, f64>, &[(&str, &str)], workload::Tally) =
        if !args.trace {
            tracer.set_enabled(false);
            let lr = run_loop(&mut *w, &mut tracer, seconds, MIN_OPS);
            let ms: Vec<f64> = lr.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
            println!(
            "# op loop: {} ops in {} rounds of {} over {:.2} s; {} ops above p90; failed_op_frac {}",
            lr.op_ns.len(),
            lr.rounds,
            w.round_len(),
            lr.wall_ns as f64 / 1e9,
            workload::beyond(&ms, 0.9),
            lr.tally.failed_frac()
        );
            let n = w.round_len();
            if n <= 12 {
                for i in 0..n {
                    let per_round: Vec<f64> = ms.iter().skip(i).step_by(n).copied().collect();
                    println!(
                        "# op {i} ({}): median {:.3} ms",
                        w.op_label(i),
                        median(&per_round)
                    );
                }
            }
            (end_to_end(&setups, &lr, &*w), &END_TO_END, lr.tally)
        } else {
            // The same op loop twice: untraced, then traced. Their per-op
            // difference is the tracing overhead.
            tracer.set_enabled(false);
            let untraced = run_loop(&mut *w, &mut tracer, seconds / 2.0, 1);
            tracer.set_enabled(true);
            let traced = run_loop(&mut *w, &mut tracer, seconds / 2.0, 1);
            tracer.set_op(REPLAY_OP);
            let t0 = Instant::now();
            let layers = w.layers(&mut tracer);
            let replay_s = t0.elapsed().as_secs_f64();
            let (m, notes) = per_layer(
                &tracer,
                &untraced,
                &traced,
                layers,
                w.captured_runs(),
                setups.len(),
                replay_s,
            );
            let mut tally = untraced.tally;
            tally.merge(traced.tally);
            for n in notes {
                println!("# {n}");
            }
            let path = spans_path(&args);
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
            match written {
                Ok(()) => println!(
                    "# spans: {} written to {}",
                    tracer.spans().len(),
                    path.display()
                ),
                Err(e) => println!("# spans: not written to {}: {e}", path.display()),
            }
            (m, &PER_LAYER, tally)
        };
    for f in &tally.first_failures {
        println!("# failed check: {f}");
    }
    for (name, unit) in units {
        println!(
            "{name}: {} {unit}",
            metrics.get(*name).copied().unwrap_or(0.0)
        );
    }
    drop(w);
    println!(
        "{}",
        json_line(
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            &metrics,
            units
        )
    );
    ExitCode::SUCCESS
}
