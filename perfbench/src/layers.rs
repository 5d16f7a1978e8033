//! Layer replays: each layer's public API fed with the page and fault
//! stream of the workload's own runs, timed call by call.
//!
//! The engine calls these layers internally, where the benchmark cannot
//! place a span. Replaying the same traffic through the same public
//! functions gives each layer's host cost per operation; multiplied by
//! the operation counts the run reports, it estimates how much of an
//! engine op each layer explains. The rest is reported as unattributed.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use gms_cluster::{Gms, ReplicationConfig};
use gms_core::{FaultKind, FaultRecord, FetchPolicy, PolicyEvent, RunReport, SimConfig};
use gms_mem::{Lru, PageId, PageSize, ReplacementPolicy};
use gms_net::{ClusterNetwork, FaultAttempt, FaultInjector, FaultPlan, TransferPlan};
use gms_obs::{
    heat_json, metrics_json, perfetto_trace, Event, FlightRecorder, HeatMap, JsonValue,
    MemoryRecorder, Recorder, TimeSeriesRecorder,
};
use gms_trace::synth::LAYOUT_BASE;
use gms_trace::Run;
use gms_units::{Bytes, Duration, NodeId, SimTime};

use crate::span::Tracer;

/// Per-layer metric values and the human-readable lines behind them.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

impl LayerReport {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }
}

/// A count of calls and the host nanoseconds they took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cost {
    pub calls: u64,
    pub ns: u64,
}

impl Cost {
    pub fn ns_per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    pub fn merge(&mut self, other: Cost) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Times single calls, net of the cost of reading the clock twice.
pub struct Stopwatch {
    overhead_ns: u64,
}

impl Stopwatch {
    pub fn calibrated() -> Self {
        let mut samples: Vec<u64> = (0..2001)
            .map(|_| {
                let t = Instant::now();
                black_box(());
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        Stopwatch {
            overhead_ns: samples[samples.len() / 2],
        }
    }

    pub fn time<R>(&self, cost: &mut Cost, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        cost.add((t.elapsed().as_nanos() as u64).saturating_sub(self.overhead_ns));
        r
    }
}

/// Time a loop as a whole: `(result, ns)`.
pub fn time_loop<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

// ---------------------------------------------------------------- mem

/// One replacement-policy call of the engine's residency walk.
#[derive(Debug, Clone, Copy)]
enum MemOp {
    Touch(PageId),
    Insert(PageId),
    Evict,
}

/// Calls recorded per replay; longer walks are counted but not timed.
const MEM_TIMED_OPS: usize = 2_000_000;

/// LRU replacement replayed over a trace's page stream at `frames`
/// frames: one touch per page segment, as the engine's residency walk
/// makes, plus an insert per fault and an evict when memory is full.
/// Returns the calls the whole trace makes and the cost of a timed
/// prefix of them.
pub fn replay_mem(runs: &[Run], frames: u64) -> (u64, Cost) {
    let shift = PageSize::P8K.shift();
    let page_bytes = 1u64 << shift;
    let mut lru = Lru::new();
    let mut resident: HashSet<PageId> = HashSet::new();
    let mut ops: Vec<MemOp> = Vec::new();
    let mut total = 0u64;
    let mut push = |op: MemOp, ops: &mut Vec<MemOp>| {
        total += 1;
        if ops.len() < MEM_TIMED_OPS {
            ops.push(op);
        }
    };
    for run in runs {
        let stride = run.stride();
        let mut addr = run.start().get();
        let mut left = run.count();
        while left > 0 {
            let offset = addr & (page_bytes - 1);
            let n = if stride == 0 {
                left
            } else if stride > 0 {
                ((page_bytes - 1 - offset) / stride as u64 + 1).min(left)
            } else {
                (offset / stride.unsigned_abs() + 1).min(left)
            };
            let page = PageId::new(addr >> shift);
            if resident.contains(&page) {
                lru.touch(page);
                push(MemOp::Touch(page), &mut ops);
            } else {
                if resident.len() as u64 >= frames {
                    if let Some(victim) = lru.evict() {
                        resident.remove(&victim);
                    }
                    push(MemOp::Evict, &mut ops);
                }
                lru.insert(page);
                resident.insert(page);
                push(MemOp::Insert(page), &mut ops);
            }
            left -= n;
            addr = addr.wrapping_add_signed(stride.wrapping_mul(n as i64));
        }
    }
    let mut fresh = Lru::new();
    let (_, ns) = time_loop(|| {
        for &op in &ops {
            match op {
                MemOp::Touch(p) => fresh.touch(black_box(p)),
                MemOp::Insert(p) => fresh.insert(black_box(p)),
                MemOp::Evict => {
                    black_box(fresh.evict());
                }
            }
        }
    });
    (
        total,
        Cost {
            calls: ops.len() as u64,
            ns,
        },
    )
}

// ------------------------------------------------- fault stream order

/// One node's share of a run, as the replays need it.
pub struct NodeRun<'a> {
    pub node: u32,
    pub report: &'a RunReport,
}

/// A fault with the simulated time it happened at, rebuilt from the
/// report: execution up to it plus every earlier fault's wait.
struct TimedFault {
    at: SimTime,
    node: u32,
    rec: FaultRecord,
}

fn fault_stream(nodes: &[NodeRun<'_>], ns_per_ref: u64) -> Vec<TimedFault> {
    let mut all = Vec::new();
    for n in nodes {
        let mut waited = 0u64;
        for rec in &n.report.fault_log {
            let at = rec.at_ref * ns_per_ref + waited;
            waited += rec.wait.as_nanos();
            all.push(TimedFault {
                at: SimTime::from_nanos(at),
                node: n.node,
                rec: *rec,
            });
        }
    }
    all.sort_by_key(|f| (f.at, f.node));
    all
}

fn is_page_fault(kind: FaultKind) -> bool {
    matches!(kind, FaultKind::Remote | FaultKind::Disk)
}

/// The idle node that serves `page` in a replay.
fn server_of(page: u64, n_active: u32, n_nodes: u32) -> NodeId {
    let idle = u64::from(n_nodes - n_active);
    NodeId::new(n_active + (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32 % idle as u32)
}

// ---------------------------------------------------------------- net

/// Network replay results.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetCost {
    pub fault: Cost,
    pub send: Cost,
    pub retries: u64,
}

/// `ClusterNetwork::try_fault` for every remote fault of the runs, in
/// simulated-time order and retried after a loss, plus one putpage
/// `send` per eviction, with the run's fault plan installed.
pub fn replay_net(
    nodes: &[NodeRun<'_>],
    cfg: &SimConfig,
    n_active: u32,
    sw: &Stopwatch,
) -> NetCost {
    let mut net = ClusterNetwork::new(cfg.net, cfg.cluster_nodes);
    if let Some(plan) = cfg.fault_plan.as_ref().filter(|p| !p.is_empty()) {
        net.install_faults(FaultInjector::new(without_crashes(plan)));
    }
    let geom = cfg.policy.geometry(cfg.page_size);
    let page = geom.page_size().bytes();
    let sub = geom.subpage_size().bytes();
    let whole = if sub == page {
        TransferPlan::fullpage(page)
    } else {
        TransferPlan::eager(page, sub)
    };
    let lazy = TransferPlan::lazy(sub);
    let mut evictions_left: BTreeMap<u32, u64> =
        nodes.iter().map(|n| (n.node, n.report.evictions)).collect();
    let mut ready: BTreeMap<u32, SimTime> = BTreeMap::new();
    let mut out = NetCost::default();
    for f in fault_stream(nodes, cfg.ns_per_ref) {
        if f.rec.kind == FaultKind::Disk {
            continue;
        }
        let req = NodeId::new(f.node);
        let server = server_of(f.rec.page.get(), n_active, cfg.cluster_nodes);
        let plan = if is_page_fault(f.rec.kind) {
            &whole
        } else {
            &lazy
        };
        let mut at =
            f.at.max(ready.get(&f.node).copied().unwrap_or(SimTime::ZERO));
        for attempt in 0..cfg.retry.max_fetch_attempts.max(1) {
            let got = sw.time(&mut out.fault, || net.try_fault(at, req, server, plan));
            match got {
                FaultAttempt::Delivered(t) => {
                    at = t.resume_at;
                    break;
                }
                FaultAttempt::Failed => {
                    if attempt + 1 < cfg.retry.max_fetch_attempts {
                        out.retries += 1;
                    }
                    at += Duration::from_millis(1);
                }
            }
        }
        let left = evictions_left.get_mut(&f.node).expect("node listed");
        if *left > 0 && is_page_fault(f.rec.kind) {
            *left -= 1;
            let to = server_of(f.rec.page.get() ^ 1, n_active, cfg.cluster_nodes);
            let sent = sw.time(&mut out.send, || net.send(at, req, to, page));
            at = sent.cpu_free_at;
        }
        ready.insert(f.node, at);
    }
    out
}

/// The plan's loss and degradation only: a replay has no crash clock.
fn without_crashes(plan: &FaultPlan) -> FaultPlan {
    FaultPlan {
        crashes: Vec::new(),
        ..plan.clone()
    }
}

// ------------------------------------------------------------ cluster

/// GMS replay results.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClusterCost {
    pub getpage: Cost,
    pub putpage: Cost,
    pub replicate: Cost,
}

/// A `Gms` warmed with every node's pages, then driven by the runs'
/// page faults: a `getpage` read per fault and, once a node's frames
/// are full, a `try_putpage` write plus K-1 `replicate` writes for the
/// victim an LRU over the node's fault stream picks.
pub fn replay_cluster(
    nodes: &[NodeRun<'_>],
    footprint_pages: &[u64],
    cfg: &SimConfig,
    n_active: u32,
    sw: &Stopwatch,
) -> ClusterCost {
    let replication: ReplicationConfig = cfg.replication;
    let idle = u64::from(cfg.cluster_nodes - n_active);
    let total_pages: u64 = footprint_pages.iter().sum();
    let per_idle = total_pages.div_ceil(idle).max(1) * 2 * u64::from(replication.replicas.max(1));
    let mut gms = Gms::with_replication(cfg.cluster_nodes, n_active, per_idle, replication);
    let base = LAYOUT_BASE.get() >> cfg.page_size.shift();
    let global = |node: u32, page: u64| PageId::new((u64::from(node) << 40) + page);
    for n in nodes {
        let pages = footprint_pages[n.node as usize];
        gms.warm_cache((0..pages).map(|k| global(n.node, base + k)));
    }
    let mut local: BTreeMap<u32, (Lru, HashSet<PageId>, u64)> = nodes
        .iter()
        .map(|n| (n.node, (Lru::new(), HashSet::new(), n.report.frames)))
        .collect();
    let mut out = ClusterCost::default();
    for f in fault_stream(nodes, cfg.ns_per_ref) {
        if !is_page_fault(f.rec.kind) {
            continue;
        }
        let req = NodeId::new(f.node);
        let gp = global(f.node, f.rec.page.get());
        sw.time(&mut out.getpage, || gms.getpage(req, gp));
        // The model sees faults only, so a page the engine evicted can
        // still be resident here; a refault of it is a touch.
        let (lru, resident, frames) = local.get_mut(&f.node).expect("node listed");
        if !resident.insert(f.rec.page) {
            lru.touch(f.rec.page);
            continue;
        }
        lru.insert(f.rec.page);
        if lru.len() as u64 > *frames {
            let Some(victim) = lru.evict() else { continue };
            resident.remove(&victim);
            let gv = global(f.node, victim.get());
            let stored = sw.time(&mut out.putpage, || gms.try_putpage(req, gv, false));
            if stored.is_some() {
                for _ in 1..replication.replicas {
                    sw.time(&mut out.replicate, || gms.replicate(req, gv, false));
                }
            }
        }
    }
    out
}

// ------------------------------------------------------------- policy

/// Policy-engine replay results.
#[derive(Debug, Default, Clone, Copy)]
pub struct PolicyCost {
    pub observe: Cost,
    pub plan: Cost,
}

/// Each node's own policy engine fed its fault history: an `observe`
/// per fault and a `plan_fault` per whole-page fault.
pub fn replay_policy(
    nodes: &[NodeRun<'_>],
    policy: FetchPolicy,
    cfg: &SimConfig,
    sw: &Stopwatch,
) -> PolicyCost {
    let geom = policy.geometry(cfg.page_size);
    let mut out = PolicyCost::default();
    for n in nodes {
        let mut engine = policy.engine();
        let mut waited = 0u64;
        for rec in &n.report.fault_log {
            let at = SimTime::from_nanos(rec.at_ref * cfg.ns_per_ref + waited);
            waited += rec.wait.as_nanos();
            let event = PolicyEvent::Fault {
                page: rec.page.get(),
                subpage: rec.subpage,
                at,
            };
            sw.time(&mut out.observe, || engine.observe(event));
            if is_page_fault(rec.kind) {
                let planned = sw.time(&mut out.plan, || engine.plan_fault(geom, rec.subpage, 0.5));
                black_box(planned);
            }
        }
    }
    out
}

// ---------------------------------------------------------------- obs

/// Per-event recording cost of each bounded or buffering recorder, fed
/// the events of a recorded run.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecordCost {
    pub memory: Cost,
    pub flight: Cost,
    pub heat: Cost,
}

pub fn replay_record(events: &[Event]) -> RecordCost {
    fn feed<R: Recorder>(mut rec: R, events: &[Event]) -> Cost {
        let (_, ns) = time_loop(|| {
            for &e in events {
                rec.record(e);
            }
            black_box(&rec);
        });
        Cost {
            calls: events.len() as u64,
            ns,
        }
    }
    RecordCost {
        memory: feed(MemoryRecorder::new(), events),
        flight: feed(FlightRecorder::new(4), events),
        heat: feed(HeatMap::new(), events),
    }
}

/// Export cost: the Perfetto trace, the heat document and the windowed
/// metrics document built from the same events. `calls` counts bytes.
pub fn replay_export(events: &[Event]) -> Cost {
    let mut heat = HeatMap::new();
    let mut ts = TimeSeriesRecorder::new(Duration::from_millis(1));
    for &e in events {
        heat.record(e);
        ts.record(e);
    }
    let mut out = Cost::default();
    for doc in [
        time_loop(|| perfetto_trace(events.iter())),
        time_loop(|| heat_json(&heat)),
        time_loop(|| metrics_json(&ts)),
    ] {
        out.calls += doc.0.len() as u64;
        out.ns += doc.1;
    }
    out
}

/// Parse cost of a JSON document; `calls` counts bytes. `Err` when the
/// document does not parse.
pub fn parse_json(text: &str) -> Result<Cost, String> {
    let (parsed, ns) = time_loop(|| JsonValue::parse(text));
    parsed.map_err(|e| e.to_string())?;
    Ok(Cost {
        calls: text.len() as u64,
        ns,
    })
}

/// Megabytes per second for a byte count and nanoseconds.
pub fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        bytes as f64 / 1e6 / (ns as f64 / 1e9)
    }
}

// ------------------------------------------------------ reconciliation

/// Layer calls and outcomes the engine ops made, from their reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCounts {
    pub mem: f64,
    pub net_faults: f64,
    pub net_sends: f64,
    pub getpages: f64,
    pub putpages: f64,
    pub replicates: f64,
    pub observes: f64,
    pub plans: f64,
    pub faults: u64,
    pub retries: u64,
    pub gms_hits: u64,
    pub gms_lookups: u64,
}

impl OpCounts {
    /// Adds one node's requester-side calls.
    pub fn add_node(&mut self, r: &RunReport, remote: bool) {
        let fetched = r
            .fault_log
            .iter()
            .filter(|f| f.kind != FaultKind::Disk)
            .count() as f64;
        self.observes += r.fault_log.len() as f64;
        self.faults += r.faults.total();
        self.retries += r.retries;
        if remote {
            self.net_faults += fetched + r.timeouts as f64;
            self.net_sends += r.evictions as f64 + r.retries.saturating_sub(r.timeouts) as f64;
            self.plans += r.faults.remote as f64;
        }
    }

    /// Adds one run's directory traffic; cluster-wide, so once per run.
    pub fn add_gms(&mut self, stats: &gms_cluster::GmsStats) {
        self.getpages += stats.traffic.getpages as f64;
        self.putpages += stats.traffic.putpages as f64;
        self.replicates += stats.replica_writes as f64;
        self.net_sends += stats.replica_writes as f64;
        self.gms_hits += stats.remote_hits;
        self.gms_lookups += stats.remote_hits + stats.misses;
    }

    /// Sets the count metrics: totals over the engine ops counted.
    pub fn report(&self, r: &mut LayerReport) {
        r.set("net.faults", self.net_faults);
        r.set("net.retries", self.retries as f64);
        r.set(
            "cluster.ops",
            self.getpages + self.putpages + self.replicates,
        );
        r.set(
            "cluster.hit_rate",
            if self.gms_lookups > 0 {
                self.gms_hits as f64 / self.gms_lookups as f64
            } else {
                0.0
            },
        );
    }

    /// The call counts divided by `n` engine ops.
    pub fn per_op(self, n: f64) -> OpCounts {
        let d = |v: f64| if n > 0.0 { v / n } else { 0.0 };
        OpCounts {
            mem: d(self.mem),
            net_faults: d(self.net_faults),
            net_sends: d(self.net_sends),
            getpages: d(self.getpages),
            putpages: d(self.putpages),
            replicates: d(self.replicates),
            observes: d(self.observes),
            plans: d(self.plans),
            ..self
        }
    }
}

/// What the replays measured, summed over every replayed run.
#[derive(Debug, Default)]
pub struct LayerCosts {
    pub mem: Cost,
    pub net: NetCost,
    pub cluster: ClusterCost,
    pub policy: PolicyCost,
    /// Policy costs by policy label.
    pub by_label: Vec<(String, PolicyCost)>,
}

impl LayerCosts {
    /// Replays a trace through `Lru` at `frames` in a span, adds the
    /// cost, and returns the calls the whole trace makes.
    pub fn replay_trace(&mut self, tracer: &mut Tracer, runs: &[Run], frames: u64) -> u64 {
        let ((calls, cost), _, _) = tracer.span("mem.replay", |_| replay_mem(runs, frames));
        self.mem.merge(cost);
        calls
    }

    /// Replays one run's fault stream through the net, cluster and policy
    /// layers, each in its own span, and adds the costs.
    pub fn replay_run(
        &mut self,
        tracer: &mut Tracer,
        nodes: &[NodeRun<'_>],
        footprint_pages: &[u64],
        cfg: &SimConfig,
        n_active: u32,
        sw: &Stopwatch,
    ) {
        let (n, _, _) = tracer.span("net.replay", |_| replay_net(nodes, cfg, n_active, sw));
        self.net.fault.merge(n.fault);
        self.net.send.merge(n.send);
        let (c, _, _) = tracer.span("cluster.replay", |_| {
            replay_cluster(nodes, footprint_pages, cfg, n_active, sw)
        });
        self.cluster.getpage.merge(c.getpage);
        self.cluster.putpage.merge(c.putpage);
        self.cluster.replicate.merge(c.replicate);
        let (p, _, _) = tracer.span("policy.replay", |_| {
            replay_policy(nodes, cfg.policy, cfg, sw)
        });
        self.policy.observe.merge(p.observe);
        self.policy.plan.merge(p.plan);
        let label = cfg.policy.label();
        match self.by_label.iter_mut().find(|(l, _)| *l == label) {
            Some((_, cost)) => {
                cost.observe.merge(p.observe);
                cost.plan.merge(p.plan);
            }
            None => self.by_label.push((label, p)),
        }
    }

    /// Sets the layer metrics every workload reports, and reconciles
    /// Σ(layer ns/call × calls per engine op) against the engine's own
    /// ms per op, with the unattributed rest.
    ///
    /// `engine_span` names the spans of the engine calls; `counts` covers
    /// the `ops` engine ops the reports came from.
    pub fn report(
        &self,
        r: &mut LayerReport,
        tracer: &Tracer,
        workload: &str,
        engine_span: &str,
        counts: OpCounts,
        ops: f64,
    ) {
        let (spans, _, self_ns) = tracer.totals(engine_span);
        let engine_ms_per_op = if spans > 0 {
            self_ns as f64 / spans as f64 / 1e6
        } else {
            0.0
        };
        counts.report(r);
        r.set("mem.replacement_ops", counts.mem);
        r.set(
            "engine.ns_per_fault",
            engine_ms_per_op * 1e6 * ops / counts.faults.max(1) as f64,
        );
        let counts = counts.per_op(ops);
        let ms = |c: Cost, n: f64| c.ns_per_call() * n / 1e6;
        let (net, cluster, policy) = (self.net, self.cluster, self.policy);
        let parts = [
            ("mem", ms(self.mem, counts.mem)),
            (
                "net",
                ms(net.fault, counts.net_faults) + ms(net.send, counts.net_sends),
            ),
            (
                "cluster",
                ms(cluster.getpage, counts.getpages)
                    + ms(cluster.putpage, counts.putpages)
                    + ms(cluster.replicate, counts.replicates),
            ),
            (
                "policy",
                ms(policy.observe, counts.observes) + ms(policy.plan, counts.plans),
            ),
        ];
        let attributed: f64 = parts.iter().map(|p| p.1).sum();
        let rest = engine_ms_per_op - attributed;
        let frac = if engine_ms_per_op > 0.0 {
            rest / engine_ms_per_op
        } else {
            0.0
        };
        let terms: Vec<String> = parts.iter().map(|(n, v)| format!("{n} {v:.4}")).collect();
        r.notes.push(format!(
            "reconcile {workload}: engine {engine_ms_per_op:.4} ms/op; layers {} = {attributed:.4} ms/op; unattributed {rest:.4} ms/op ({:.1}%)",
            terms.join(" + "),
            frac * 100.0
        ));
        r.notes.push(format!(
            "reconcile {workload}: calls per engine op: mem {:.1}, net faults {:.1}, sends {:.1}, getpage {:.1}, putpage {:.1}, replicate {:.1}, observe {:.1}, plan {:.1}",
            counts.mem,
            counts.net_faults,
            counts.net_sends,
            counts.getpages,
            counts.putpages,
            counts.replicates,
            counts.observes,
            counts.plans
        ));
        r.set("engine.ms_per_op", engine_ms_per_op);
        r.set("engine.unattributed_frac", frac);
        r.set("mem.replacement_ns_per_op", self.mem.ns_per_call());
        r.set("net.fault_ns", net.fault.ns_per_call());
        r.set("net.send_ns", net.send.ns_per_call());
        r.set("cluster.getpage_ns", cluster.getpage.ns_per_call());
        r.set("cluster.putpage_ns", cluster.putpage.ns_per_call());
        r.set("cluster.replicate_ns", cluster.replicate.ns_per_call());
        for (label, cost) in &self.by_label {
            r.set(format!("policy.plan_ns.{label}"), cost.plan.ns_per_call());
            r.set(
                format!("policy.observe_ns.{label}"),
                cost.observe.ns_per_call(),
            );
        }
    }
}

/// The page count of each footprint, for warming a replay GMS.
pub fn footprint_pages(footprint: Bytes, cfg: &SimConfig) -> u64 {
    footprint.div_ceil(cfg.page_size.bytes())
}
