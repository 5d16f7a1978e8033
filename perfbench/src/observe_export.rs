//! `observe_export`: the user path through `gms_cli::execute`, in
//! process.
//!
//! A round runs `run` with all four exports, `explain --json`,
//! `profile --json` and `heat --json`, each followed by `check-trace` on
//! what it wrote (the run's Perfetto trace gets a check of its own), at a
//! small scale into a scratch directory under `.bench_build/`. `gms-obs` recorders, exporters and the JSON validator
//! dominate and engine work is small. It also measures the CLI's
//! record-then-replay path for combined exports.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use gms_core::{FetchPolicy, MemoryConfig, RunReport, SimConfig, Simulator};
use gms_mem::SubpageSize;
use gms_net::FaultPlan;
use gms_obs::{Event, FlightRecorder, HeatMap, MemoryRecorder};
use gms_trace::apps::{self, AppProfile};
use gms_trace::synth::LAYOUT_BASE;
use gms_trace::MaterializedTrace;

use crate::checks::{self, Check};
use crate::layers::{self, Cost, LayerCosts, LayerReport, NodeRun, OpCounts, Stopwatch};
use crate::span::Tracer;
use crate::workload::{Bound, OpOutcome, Workload};

/// Trace scale of the exported run. The Perfetto trace it writes is about
/// 0.17 MB, which `check-trace` validates in a few hundred milliseconds
/// at the seed code; larger traces grow its cost quadratically.
const SCALE: f64 = 0.1;
const POLICY: &str = "sp_1024";

/// The CLI commands of one round, in order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cmd {
    Run,
    Explain,
    Profile,
    Heat,
    Check,
}

impl Cmd {
    fn span(self) -> &'static str {
        match self {
            Cmd::Run => "cli.run",
            Cmd::Explain => "cli.explain",
            Cmd::Profile => "cli.profile",
            Cmd::Heat => "cli.heat",
            Cmd::Check => "cli.check-trace",
        }
    }
}

/// One `gms_cli::execute` call.
struct Call {
    cmd: Cmd,
    argv: Vec<String>,
    /// Files the call writes (simulating commands) or validates
    /// (`check-trace`).
    files: Vec<PathBuf>,
}

/// The calls of one op: a command and the check of what it wrote. The
/// run's Perfetto trace is checked by an op of its own, so that one op in
/// five, not one in nine, carries the quadratic validator and `op_ms_p90`
/// falls mid-way through that op's samples instead of at their fast tail.
type Step = Vec<Call>;

pub struct ObserveExport {
    dir: PathBuf,
    app: AppProfile,
    trace: MaterializedTrace,
    config: SimConfig,
    spec: String,
    /// The run every simulating command must reproduce, made by calling
    /// `Simulator` directly.
    reference: RunReport,
    steps: Vec<Step>,
    /// Traced pass: bytes and time of the JSON parses and of the
    /// exports repeated beside the CLI calls.
    json: Cost,
    export: Cost,
    /// Traced pass: bytes the `run` commands wrote.
    export_bytes: u64,
}

static INSTANCE: AtomicU32 = AtomicU32::new(0);

impl ObserveExport {
    /// The inputs do not depend on the seed; see `describe`.
    pub fn setup(tracer: &mut Tracer) -> Result<Self, String> {
        // A fixed loss seed: with about 90 faults a run, the loss draws
        // alone would move the simulated p99 by a third between seeds.
        let spec = "loss=0.01,seed=1".to_string();
        let n = INSTANCE.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".bench_build")
            .join("perfbench-tmp")
            .join(format!("observe-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

        let app = apps::gdb().scaled(SCALE);
        let (trace, _, _) = tracer.span("trace.capture", |_| {
            MaterializedTrace::capture(&mut *app.source())
        });
        let mut config = SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Quarter)
            .build();
        let horizon = config.exec_time(app.target_refs());
        config.fault_plan = Some(FaultPlan::parse(&spec, Some(horizon))?);
        let sim = Simulator::new(config.clone());
        let (reference, _, _) = tracer.span("engine.run_trace", |_| {
            sim.run_trace(&mut trace.cursor(), app.footprint(), LAYOUT_BASE)
        });

        let f = |name: &str| dir.join(name);
        let scenario = |cmd: &str| -> Vec<String> {
            [
                cmd, "--app", "gdb", "--policy", POLICY, "--memory", "quarter", "--scale",
            ]
            .iter()
            .map(|s| s.to_string())
            .chain([SCALE.to_string(), "--fault-plan".into(), spec.clone()])
            .collect()
        };
        let with = |mut argv: Vec<String>, pairs: &[(&str, &PathBuf)]| {
            for (flag, path) in pairs {
                argv.push(flag.to_string());
                argv.push(path.display().to_string());
            }
            argv
        };
        let (t, s, m, h) = (
            f("run.trace.json"),
            f("run.summary.json"),
            f("run.metrics.json"),
            f("run.heat.json"),
        );
        let (e, et, p, hh) = (
            f("explain.json"),
            f("explain.trace.json"),
            f("profile.json"),
            f("heat.json"),
        );
        let check = |pairs: &[(&str, &PathBuf)]| Call {
            cmd: Cmd::Check,
            argv: with(vec!["check-trace".into()], pairs),
            files: pairs.iter().map(|(_, p)| (*p).clone()).collect(),
        };
        let pairs: Vec<Step> = vec![
            vec![
                Call {
                    cmd: Cmd::Explain,
                    argv: with(scenario("explain"), &[("--json", &e), ("--trace-out", &et)]),
                    files: vec![e.clone(), et.clone()],
                },
                check(&[("--exemplars", &e), ("--trace", &et)]),
            ],
            vec![
                Call {
                    cmd: Cmd::Profile,
                    argv: with(scenario("profile"), &[("--json", &p)]),
                    files: vec![p.clone()],
                },
                check(&[("--attrib", &p)]),
            ],
            vec![
                Call {
                    cmd: Cmd::Heat,
                    argv: with(scenario("heat"), &[("--json", &hh)]),
                    files: vec![hh.clone()],
                },
                check(&[("--heat", &hh), ("--summary", &s)]),
            ],
        ];
        // `run` goes first: the heat check cross-checks its summary. The
        // trace check goes last: it sweeps the caches, and the small op
        // after it runs slower. The order is fixed, because a small op's
        // time depends on which op ran before it.
        let mut steps: Vec<Step> = vec![vec![
            Call {
                cmd: Cmd::Run,
                argv: with(
                    scenario("run"),
                    &[
                        ("--trace-out", &t),
                        ("--summary-json", &s),
                        ("--metrics-out", &m),
                        ("--heat-out", &h),
                    ],
                ),
                files: vec![t.clone(), s.clone(), m.clone(), h.clone()],
            },
            check(&[("--summary", &s), ("--metrics", &m), ("--heat", &h)]),
        ]];
        steps.extend(pairs);
        steps.push(vec![check(&[("--trace", &t)])]);
        Ok(ObserveExport {
            dir,
            app,
            trace,
            config,
            spec,
            reference,
            steps,
            json: Cost::default(),
            export: Cost::default(),
            export_bytes: 0,
        })
    }

    fn recorded(&self, tracer: &mut Tracer, parent: Option<usize>) -> (RunReport, Vec<Event>) {
        let sim = Simulator::new(self.config.clone());
        let (out, _, _) = tracer.attributed(parent, "engine.run_recorded", |_| {
            let mut rec = MemoryRecorder::new();
            let report = sim.run_trace_recorded(
                &mut self.trace.cursor(),
                self.app.footprint(),
                LAYOUT_BASE,
                &mut rec,
            );
            (report, rec.into_events())
        });
        out
    }

    /// Makes call `c` of op `i`: the timed `execute`, then its checks.
    fn call(
        &mut self,
        i: usize,
        c: usize,
        tracer: &mut Tracer,
        out: &mut OpOutcome,
        checks: &mut Vec<Check>,
        outputs: &mut String,
    ) {
        let step = &self.steps[i][c];
        let (result, host_ns, span) =
            tracer.span(step.cmd.span(), |_| gms_cli::execute(&step.argv));
        out.host_ns += host_ns;
        checks.push(checks::cli_ok(step.cmd.span(), &result));
        outputs.push_str(result.as_ref().map(String::as_str).unwrap_or(""));
        let mut texts = Vec::new();
        for path in &step.files {
            match std::fs::read_to_string(path) {
                Ok(text) => texts.push(text),
                Err(e) => checks.push(Err(format!("{}: {e}", path.display()))),
            }
        }
        let reference = &self.reference;
        match step.cmd {
            Cmd::Check => {
                // The validator's own work, repeated on the same bytes.
                if tracer.enabled() {
                    for text in &texts {
                        match tracer
                            .attributed(span, "obs.json_parse", |_| layers::parse_json(text))
                            .0
                        {
                            Ok(cost) => self.json.merge(cost),
                            Err(e) => checks.push(Err(e)),
                        }
                    }
                }
            }
            cmd => {
                out.refs += reference.total_refs;
                out.sim_ns += reference.total_time.as_nanos();
                out.waits.merge(&reference.wait_sketch());
                checks.push(checks::conserved(reference));
                checks.push(checks::refs_match(reference, self.trace.total_refs()));
                if cmd == Cmd::Run {
                    checks.push(match texts.get(1) {
                        Some(summary) => checks::summary_matches(summary, reference),
                        None => Err("run wrote no summary".into()),
                    });
                    let (recorded, events) = self.recorded(tracer, span);
                    checks.push(checks::identical(
                        &recorded,
                        reference,
                        "recorded vs unrecorded run",
                    ));
                    if tracer.enabled() {
                        let (cost, _, _) = tracer
                            .attributed(span, "obs.export", |_| layers::replay_export(&events));
                        self.export.merge(cost);
                        self.export_bytes += texts.iter().map(|t| t.len() as u64).sum::<u64>();
                    }
                } else if tracer.enabled() {
                    let sim = Simulator::new(self.config.clone());
                    let (trace, footprint) = (&self.trace, self.app.footprint());
                    match cmd {
                        Cmd::Explain => {
                            tracer.attributed(span, "engine.run_flight", |_| {
                                let mut rec = FlightRecorder::new(4);
                                sim.run_trace_recorded(
                                    &mut trace.cursor(),
                                    footprint,
                                    LAYOUT_BASE,
                                    &mut rec,
                                )
                            });
                        }
                        Cmd::Heat => {
                            tracer.attributed(span, "engine.run_heat", |_| {
                                let mut rec = HeatMap::new().with_wire_tracking();
                                sim.run_trace_recorded(
                                    &mut trace.cursor(),
                                    footprint,
                                    LAYOUT_BASE,
                                    &mut rec,
                                )
                            });
                        }
                        _ => {
                            self.recorded(tracer, span);
                        }
                    }
                }
            }
        }
        for text in &texts {
            outputs.push_str(text);
        }
    }
}

impl Drop for ObserveExport {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for ObserveExport {
    fn describe(&self) -> String {
        let order: Vec<String> = (0..self.steps.len()).map(|i| self.op_label(i)).collect();
        format!(
            "observe_export: gdb x{SCALE} {POLICY} 1/4-mem, fault plan {}, through gms_cli::execute; \
             paper app profiles are fixed and the inputs do not depend on the seed; ops [{}]",
            self.spec,
            order.join("; ")
        )
    }

    fn round_len(&self) -> usize {
        self.steps.len()
    }

    fn captured_runs(&self) -> u64 {
        self.trace.runs().len() as u64
    }

    fn bound(&self) -> Bound {
        Bound::Compute
    }

    fn op_label(&self, i: usize) -> String {
        let calls: Vec<String> = self.steps[i]
            .iter()
            .map(|c| match c.cmd {
                Cmd::Check => format!("check-trace of {} file(s)", c.files.len()),
                cmd => cmd.span().replace("cli.", ""),
            })
            .collect();
        calls.join(" + ")
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer) -> OpOutcome {
        let mut out = OpOutcome::default();
        let mut checks: Vec<Check> = Vec::new();
        let mut outputs = String::new();
        for c in 0..self.steps[i].len() {
            self.call(i, c, tracer, &mut out, &mut checks, &mut outputs);
        }
        out.digest = checks::digest(&outputs);
        out.failures = checks.into_iter().filter_map(Result::err).collect();
        out
    }

    fn layers(&mut self, tracer: &mut Tracer) -> LayerReport {
        let mut r = LayerReport::default();
        let sw = Stopwatch::calibrated();
        let sim = Simulator::new(self.config.clone());
        let footprint = self.app.footprint();
        for _ in 0..20 {
            tracer.span("engine.run_trace", |_| {
                sim.run_trace(&mut self.trace.cursor(), footprint, LAYOUT_BASE)
            });
        }
        let (_, events) = self.recorded(tracer, None);
        let report = &self.reference;
        let mut costs = LayerCosts::default();
        let calls = costs.replay_trace(tracer, self.trace.runs(), report.frames);
        let pages = [layers::footprint_pages(footprint, &self.config)];
        costs.replay_run(
            tracer,
            &[NodeRun { node: 0, report }],
            &pages,
            &self.config,
            1,
            &sw,
        );
        let (rec, _, _) = tracer.span("obs.record_replay", |_| layers::replay_record(&events));

        let mut counts = OpCounts {
            mem: calls as f64,
            ..OpCounts::default()
        };
        counts.add_node(report, true);
        counts.add_gms(&report.gms);
        // The engine.run_trace spans: the 20 runs above and the set-up's
        // reference runs, all of the same scenario.
        costs.report(
            &mut r,
            tracer,
            "observe_export",
            "engine.run_trace",
            counts,
            1.0,
        );
        r.set("net.sim_queue_delay_ms", 0.0);
        r.set("policy.prefetch_useful_frac", 0.0);
        r.set("obs.record_ns_per_event.memory", rec.memory.ns_per_call());
        r.set("obs.record_ns_per_event.flight", rec.flight.ns_per_call());
        r.set("obs.record_ns_per_event.heat", rec.heat.ns_per_call());
        r.set("obs.events", events.len() as f64);

        let rounds = tracer.totals("cli.run").0.max(1);
        r.set("obs.export_bytes", self.export_bytes as f64 / rounds as f64);
        r.set(
            "obs.export_mb_per_s",
            layers::mb_per_s(self.export.calls, self.export.ns),
        );
        r.set("obs.json_bytes", self.json.calls as f64 / rounds as f64);
        r.set(
            "obs.json_parse_mb_per_s",
            layers::mb_per_s(self.json.calls, self.json.ns),
        );
        for cmd in [Cmd::Run, Cmd::Explain, Cmd::Profile, Cmd::Heat, Cmd::Check] {
            let (n, _, own) = tracer.totals(cmd.span());
            let name = cmd.span().replace("cli.", "cli.self_ms.");
            r.set(
                name,
                if n > 0 {
                    own as f64 / n as f64 / 1e6
                } else {
                    0.0
                },
            );
        }
        r.notes.push(
            "observe_export: one active node, static policy: net.sim_queue_delay_ms and policy.prefetch_useful_frac are 0"
                .into(),
        );
        r
    }
}
