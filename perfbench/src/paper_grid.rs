//! `paper_grid`: the paper's own evaluation.
//!
//! Each of the five applications' traces is captured once, then the
//! paper-default sweep grid (disk, p_8192, sp_256..sp_4096 x full, half
//! and quarter memory) runs serially, one cell per op, exactly as
//! `Sweep::run` runs a cell. Trace synthesis, the engine's resident fast
//! path and `gms-mem` replacement do nearly all the work; cluster
//! contention, fault injection, adaptive engines, recorders and JSON do
//! none. An obs or cluster change must leave this workload unchanged.

use gms_core::{ClusterSim, FetchPolicy, MemoryConfig, RunReport, SimConfig, Simulator};
use gms_mem::SubpageSize;
use gms_trace::apps::{self, AppProfile};
use gms_trace::synth::LAYOUT_BASE;
use gms_trace::MaterializedTrace;
use gms_units::Bytes;

use crate::checks::{self, Check};
use crate::layers::{self, LayerCosts, LayerReport, NodeRun, OpCounts, Stopwatch};
use crate::span::Tracer;
use crate::workload::{Bound, OpOutcome, SeedRng, Workload};

struct App {
    profile: AppProfile,
    trace: MaterializedTrace,
    footprint: Bytes,
}

#[derive(Clone, Copy)]
struct Cell {
    app: usize,
    policy: FetchPolicy,
    memory: MemoryConfig,
    /// Also run as a one-active-node `ClusterSim` and compared.
    identity: bool,
}

const MEMORIES: [MemoryConfig; 3] = [
    MemoryConfig::Full,
    MemoryConfig::Half,
    MemoryConfig::Quarter,
];

/// The policy whose cells feed the layer replays.
const REPLAY_POLICY: &str = "sp_1024";

pub struct PaperGrid {
    apps: Vec<App>,
    cells: Vec<Cell>,
    /// Traced pass only: each cell's latest report.
    traced: Vec<Option<RunReport>>,
    traced_ops: Vec<usize>,
}

impl PaperGrid {
    pub fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let apps: Vec<App> = apps::all()
            .into_iter()
            .map(|profile| {
                let (trace, _, _) = tracer.span("trace.capture", |_| {
                    MaterializedTrace::capture(&mut *profile.source())
                });
                App {
                    footprint: profile.footprint(),
                    profile,
                    trace,
                }
            })
            .collect();
        let mut policies = vec![FetchPolicy::disk(), FetchPolicy::fullpage()];
        policies.extend(SubpageSize::PAPER_SIZES.into_iter().map(FetchPolicy::eager));
        let mut rng = SeedRng::new(seed);
        let mut cells = Vec::new();
        for app in 0..apps.len() {
            let first = cells.len();
            for memory in MEMORIES {
                for &policy in &policies {
                    cells.push(Cell {
                        app,
                        policy,
                        memory,
                        identity: false,
                    });
                }
            }
            let pick = first + rng.below((cells.len() - first) as u64) as usize;
            cells[pick].identity = true;
        }
        rng.shuffle(&mut cells);
        let n = cells.len();
        PaperGrid {
            apps,
            cells,
            traced: vec![None; n],
            traced_ops: Vec::new(),
        }
    }

    fn config(cell: &Cell) -> SimConfig {
        SimConfig::builder()
            .policy(cell.policy)
            .memory(cell.memory)
            .build()
    }
}

impl Workload for PaperGrid {
    fn describe(&self) -> String {
        let ids: Vec<String> = self
            .cells
            .iter()
            .filter(|c| c.identity)
            .map(|c| {
                format!(
                    "{}:{}@{}",
                    self.apps[c.app].profile.name(),
                    c.policy.label(),
                    c.memory.label()
                )
            })
            .collect();
        format!(
            "paper_grid: {} cells (5 apps x 7 policies x 3 memories), paper app profiles are fixed; \
             the seed sets the cell order and the Simulator == 1-active ClusterSim cells [{}]",
            self.cells.len(),
            ids.join(", ")
        )
    }

    fn round_len(&self) -> usize {
        self.cells.len()
    }

    fn captured_runs(&self) -> u64 {
        self.apps.iter().map(|a| a.trace.runs().len() as u64).sum()
    }

    fn bound(&self) -> Bound {
        Bound::Memory
    }

    fn op_label(&self, i: usize) -> String {
        let c = &self.cells[i];
        format!(
            "{} {} {}",
            self.apps[c.app].profile.name(),
            c.policy.label(),
            c.memory.label()
        )
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer) -> OpOutcome {
        let cell = self.cells[i];
        let app = &self.apps[cell.app];
        let config = Self::config(&cell);
        let sim = Simulator::new(config.clone());
        let (report, host_ns, _) = tracer.span("engine.run_trace", |_| {
            sim.run_trace(&mut app.trace.cursor(), app.footprint, LAYOUT_BASE)
        });
        let mut checks: Vec<Check> = vec![
            checks::conserved(&report),
            checks::refs_match(&report, app.trace.total_refs()),
        ];
        if cell.policy == FetchPolicy::fullpage() && cell.memory == MemoryConfig::Quarter {
            checks.push(checks::in_paper_band(
                app.profile.name(),
                report.faults.page_faults(),
                app.profile.paper_fault_range().1,
            ));
        }
        if cell.identity {
            let (cluster, _, _) = tracer.span("engine.cluster_run", |_| {
                ClusterSim::new(config).run(std::slice::from_ref(&app.profile))
            });
            checks.push(match cluster.nodes.first() {
                Some(node) => checks::identical(node, &report, "Simulator vs 1-active ClusterSim"),
                None => Err("1-active ClusterSim returned no node report".into()),
            });
        }
        let out = OpOutcome {
            host_ns,
            refs: report.total_refs,
            sim_ns: report.total_time.as_nanos(),
            waits: report.wait_sketch(),
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
        // Replacement calls per (app, memory): the page stream does not
        // depend on the fetch policy.
        let mut mem_calls = vec![[0u64; 3]; self.apps.len()];
        for (ci, cell) in self.cells.iter().enumerate() {
            let Some(report) = self.traced[ci]
                .as_ref()
                .filter(|_| cell.policy.label() == REPLAY_POLICY)
            else {
                continue;
            };
            let app = &self.apps[cell.app];
            let cfg = Self::config(cell);
            mem_calls[cell.app][memory_index(cell.memory)] =
                costs.replay_trace(tracer, app.trace.runs(), report.frames);
            let pages = [layers::footprint_pages(app.footprint, &cfg)];
            costs.replay_run(tracer, &[NodeRun { node: 0, report }], &pages, &cfg, 1, &sw);
        }

        let mut counts = OpCounts::default();
        for &ci in &self.traced_ops {
            let cell = &self.cells[ci];
            let report = self.traced[ci].as_ref().expect("traced op kept its report");
            counts.mem += mem_calls[cell.app][memory_index(cell.memory)] as f64;
            let remote = !cell.policy.is_disk();
            counts.add_node(report, remote);
            if remote {
                counts.add_gms(&report.gms);
            }
        }
        let ops = self.traced_ops.len() as f64;
        costs.report(
            &mut r,
            tracer,
            "paper_grid",
            "engine.run_trace",
            counts,
            ops,
        );
        // One active node: nothing contends, and a single-node report
        // carries no queueing figure.
        r.set("net.sim_queue_delay_ms", 0.0);
        r.set("policy.prefetch_useful_frac", 0.0);
        r.notes.push(
            "paper_grid: one active node and static policies: net.sim_queue_delay_ms and policy.prefetch_useful_frac are 0"
                .into(),
        );
        r
    }
}

fn memory_index(memory: MemoryConfig) -> usize {
    MEMORIES
        .iter()
        .position(|&m| m == memory)
        .expect("a grid memory")
}
