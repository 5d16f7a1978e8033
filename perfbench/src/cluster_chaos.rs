//! `cluster_chaos`: a multi-node GMS under failures.
//!
//! 64 nodes, 32 of them active at quarter memory (mostly gdb, so faults
//! are dense), two replicas per page, 1% message loss and one crash of an
//! idle node. Each op is one `ClusterSim::run`, rotating `sp_1024`,
//! `leap_1024` and `indigo_1024` over three fault plans. The `gms-cluster` directory and
//! replication, `gms-net` contention and retries, the serial scheduler
//! and the adaptive policy engines dominate. Putpage, replicate and
//! repair writes run beside getpage reads on the same directory, so a
//! change that speeds one and slows the other shows here.

use gms_core::{
    ClusterReport, ClusterSim, FetchPolicy, MemoryConfig, ReplicationConfig, SimConfig,
};
use gms_mem::SubpageSize;
use gms_net::FaultPlan;
use gms_obs::QuantileSketch;
use gms_trace::apps::{self, AppProfile};
use gms_trace::MaterializedTrace;

use crate::checks::{self, Check};
use crate::layers::{self, LayerCosts, LayerReport, NodeRun, OpCounts, Stopwatch};
use crate::span::Tracer;
use crate::workload::{Bound, OpOutcome, SeedRng, Workload};

const NODES: u32 = 64;
const ACTIVE: u32 = 32;
const REPLICAS: u32 = 2;
/// Fault plans per round, each with its own crash and loss seed; every
/// plan runs every policy.
const PLANS: usize = 3;

struct Scenario {
    label: &'static str,
    config: SimConfig,
    spec: String,
}

pub struct ClusterChaos {
    /// The application of each active node.
    apps: Vec<AppProfile>,
    /// Each active node's trace length, from its captured trace.
    refs: Vec<u64>,
    captured_runs: u64,
    scenarios: Vec<Scenario>,
    /// Traced pass only: each scenario's latest report.
    traced: Vec<Option<ClusterReport>>,
    traced_ops: Vec<usize>,
}

impl ClusterChaos {
    pub fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let mut rng = SeedRng::new(seed);
        let gdb = apps::gdb();
        // One node each runs the other four apps, scaled to gdb's
        // reference count so no node dwarfs the others; the seed only
        // places them.
        let mut node_apps = vec![gdb.clone(); ACTIVE as usize];
        for (slot, other) in
            node_apps
                .iter_mut()
                .zip([apps::modula3(), apps::ld(), apps::atom(), apps::render()])
        {
            *slot = other.scaled(gdb.paper_refs() as f64 / other.paper_refs() as f64);
        }
        rng.shuffle(&mut node_apps);

        let mut refs = Vec::with_capacity(node_apps.len());
        let mut captured_runs = 0;
        let mut seen: Vec<(String, u64)> = Vec::new();
        for app in &node_apps {
            let key = format!("{}@{}", app.name(), app.scale());
            let n = match seen.iter().find(|s| s.0 == key) {
                Some(s) => s.1,
                None => {
                    let (t, _, _) = tracer.span("trace.capture", |_| {
                        MaterializedTrace::capture(&mut *app.source())
                    });
                    captured_runs += t.runs().len() as u64;
                    seen.push((key, t.total_refs()));
                    t.total_refs()
                }
            };
            refs.push(n);
        }

        let mut scenarios = Vec::new();
        for _ in 0..PLANS {
            let victim = ACTIVE + rng.below(u64::from(NODES - ACTIVE)) as u32;
            let crash_pct = 10 + rng.below(51);
            let plan_seed = rng.below(1 << 32);
            for (label, policy) in [
                ("sp_1024", FetchPolicy::eager(SubpageSize::S1K)),
                ("leap_1024", FetchPolicy::leap(SubpageSize::S1K)),
                ("indigo_1024", FetchPolicy::indigo(SubpageSize::S1K)),
            ] {
                let mut config = SimConfig::builder()
                    .policy(policy)
                    .memory(MemoryConfig::Quarter)
                    .cluster_nodes(NODES)
                    .replication(ReplicationConfig {
                        replicas: REPLICAS,
                        ..ReplicationConfig::default()
                    })
                    .build();
                let spec = format!("loss=0.01,crash=n{victim}@{crash_pct}%,seed={plan_seed}");
                let horizon = config.exec_time(gdb.target_refs());
                config.fault_plan = Some(
                    FaultPlan::parse(&spec, Some(horizon)).expect("benchmark fault plan parses"),
                );
                scenarios.push(Scenario {
                    label,
                    config,
                    spec,
                });
            }
        }
        let n = scenarios.len();
        ClusterChaos {
            apps: node_apps,
            refs,
            captured_runs,
            scenarios,
            traced: (0..n).map(|_| None).collect(),
            traced_ops: Vec::new(),
        }
    }
}

impl Workload for ClusterChaos {
    fn describe(&self) -> String {
        let others: Vec<String> = self
            .apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.name() != "gdb")
            .map(|(i, a)| format!("n{i}={}", a.name()))
            .collect();
        let specs: Vec<&str> = self
            .scenarios
            .iter()
            .step_by(3)
            .map(|s| s.spec.as_str())
            .collect();
        format!(
            "cluster_chaos: {NODES} nodes, {ACTIVE} active at 1/4 memory, K={REPLICAS}; paper app profiles are fixed; \
             the seed places the non-gdb nodes [{}] and sets each plan's crash victim, crash time and loss seed [{}]",
            others.join(", "),
            specs.join("; ")
        )
    }

    fn round_len(&self) -> usize {
        self.scenarios.len()
    }

    fn captured_runs(&self) -> u64 {
        self.captured_runs
    }

    fn bound(&self) -> Bound {
        Bound::Memory
    }

    fn op_label(&self, i: usize) -> String {
        format!("{} plan {}", self.scenarios[i].label, i / 3)
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer) -> OpOutcome {
        let sim = ClusterSim::new(self.scenarios[i].config.clone());
        let apps = &self.apps;
        let (report, host_ns, _) = tracer.span("engine.cluster_run", |_| sim.run(apps));
        let mut checks: Vec<Check> = Vec::new();
        if report.nodes.len() != self.apps.len() {
            checks.push(Err(format!(
                "{} node reports for {} active nodes",
                report.nodes.len(),
                self.apps.len()
            )));
        }
        let mut waits = QuantileSketch::new();
        let (paper_quarter, refs) = (apps::gdb().paper_fault_range().1, &self.refs);
        for ((node, app), &want) in report.nodes.iter().zip(&self.apps).zip(refs) {
            checks.push(checks::conserved(node));
            checks.push(checks::refs_match(node, want));
            if app.name() == "gdb" {
                checks.push(checks::in_paper_band(
                    "gdb",
                    node.faults.page_faults(),
                    paper_quarter,
                ));
            }
            waits.merge(&node.wait_sketch());
        }
        if let Some(first) = report.nodes.first() {
            checks.push(checks::no_pages_lost(&first.gms));
        }
        let out = OpOutcome {
            host_ns,
            refs: report.nodes.iter().map(|n| n.total_refs).sum(),
            sim_ns: report.makespan.as_nanos(),
            waits,
            digest: checks::digest(&report),
            failures: checks.into_iter().filter_map(Result::err).collect(),
        };
        if tracer.enabled() {
            self.traced_ops.push(i);
            self.traced[i] = Some(report);
        }
        out
    }

    fn layers(&mut self, tracer: &mut Tracer) -> LayerReport {
        let mut r = LayerReport::default();
        let sw = Stopwatch::calibrated();
        let mut costs = LayerCosts::default();
        let pages: Vec<u64> = self
            .apps
            .iter()
            .map(|a| layers::footprint_pages(a.footprint(), &self.scenarios[0].config))
            .collect();
        // The first plan's three runs, one per policy.
        for (si, scenario) in self.scenarios.iter().enumerate().take(3) {
            let Some(report) = &self.traced[si] else {
                continue;
            };
            let nodes: Vec<NodeRun<'_>> = report
                .nodes
                .iter()
                .enumerate()
                .map(|(i, report)| NodeRun {
                    node: i as u32,
                    report,
                })
                .collect();
            costs.replay_run(tracer, &nodes, &pages, &scenario.config, ACTIVE, &sw);
        }
        // Each node's trace at its frame count; nodes running the same app
        // share one replay.
        let mut mem_calls_per_run = 0u64;
        if let Some(report) = &self.traced[0] {
            let mut done: Vec<(usize, u64)> = Vec::new();
            for (app, node) in self.apps.iter().zip(&report.nodes) {
                let key = self
                    .apps
                    .iter()
                    .position(|a| a.name() == app.name())
                    .expect("listed");
                if let Some(&(_, calls)) = done.iter().find(|d| d.0 == key) {
                    mem_calls_per_run += calls;
                    continue;
                }
                let trace = MaterializedTrace::capture(&mut *app.source());
                let calls = costs.replay_trace(tracer, trace.runs(), node.frames);
                mem_calls_per_run += calls;
                done.push((key, calls));
            }
        }

        let mut counts = OpCounts::default();
        let (mut queue_ns, mut prefetched, mut wasted) = (0u64, 0u64, 0u64);
        for &si in &self.traced_ops {
            let report = self.traced[si].as_ref().expect("traced op kept its report");
            counts.mem += mem_calls_per_run as f64;
            for node in &report.nodes {
                counts.add_node(node, true);
                prefetched += node.prefetched_subpages * SubpageSize::S1K.bytes().get();
                wasted += node.mispredicted_prefetch_bytes;
            }
            if let Some(first) = report.nodes.first() {
                counts.add_gms(&first.gms);
            }
            queue_ns += report.net.queue_delay.as_nanos();
        }
        let ops = self.traced_ops.len() as f64;
        costs.report(
            &mut r,
            tracer,
            "cluster_chaos",
            "engine.cluster_run",
            counts,
            ops,
        );
        r.set(
            "net.sim_queue_delay_ms",
            queue_ns as f64 / ops.max(1.0) / 1e6,
        );
        r.set(
            "policy.prefetch_useful_frac",
            if prefetched > 0 {
                1.0 - wasted as f64 / prefetched as f64
            } else {
                0.0
            },
        );
        r
    }
}
