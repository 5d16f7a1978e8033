//! Chaos suite: under arbitrary seeded fault plans — message loss,
//! latency degradation, node crash/recovery — every policy × memory
//! cell still terminates, conserves its time buckets, and books network
//! occupancies without overlap. And with no plan (or an empty one),
//! reports are byte-identical to fault-free runs.

use std::collections::HashMap;

use proptest::prelude::*;

use gms_core::{
    ClusterSim, DegradeWindow, FaultPlan, FetchPolicy, MemoryConfig, NodeEvent, ReplicationConfig,
    SimConfig, Simulator,
};
use gms_mem::SubpageSize;
use gms_obs::{heat_json, Event, FlightRecorder, HeatMap, MemoryRecorder, ResourceKind};
use gms_trace::apps;
use gms_units::{Duration, NodeId, SimTime};

fn all_policies() -> Vec<FetchPolicy> {
    vec![
        FetchPolicy::disk(),
        FetchPolicy::fullpage(),
        FetchPolicy::eager(SubpageSize::S1K),
        FetchPolicy::pipelined(SubpageSize::S2K),
        FetchPolicy::lazy(SubpageSize::S1K),
    ]
}

fn config(policy: FetchPolicy, memory: MemoryConfig, plan: Option<FaultPlan>) -> SimConfig {
    let builder = SimConfig::builder()
        .policy(policy)
        .memory(memory)
        .cluster_nodes(4);
    match plan {
        Some(plan) => builder.fault_plan(plan).build(),
        None => builder.build(),
    }
}

/// Asserts that no two occupancy spans of the same `(node, resource)`
/// pair overlap: the five-resource pipeline stays a pipeline even when
/// transfers are retried, degraded or dropped.
fn assert_occupancies_disjoint<'a>(events: impl IntoIterator<Item = &'a Event>) {
    let mut spans: HashMap<(NodeId, ResourceKind), Vec<(SimTime, SimTime)>> = HashMap::new();
    for ev in events {
        if let Event::Occupancy {
            node,
            resource,
            start,
            end,
            ..
        } = ev
        {
            spans
                .entry((*node, *resource))
                .or_default()
                .push((*start, *end));
        }
    }
    for ((node, resource), mut list) in spans {
        list.sort();
        for w in list.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "{node} {resource:?}: span ending {} overlaps span starting {}",
                w[0].1,
                w[1].0
            );
        }
    }
}

/// A random fault plan: loss ≤ 5%, at most two crash/recover events on
/// idle nodes, at most one degradation window.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    let event =
        (1u32..4, 0u64..40_000_000, prop::bool::ANY).prop_map(|(node, at_ns, up)| NodeEvent {
            node: NodeId::new(node),
            at: SimTime::from_nanos(at_ns),
            up,
        });
    let degrade = (0u32..4, 0u64..20_000_000, 1u64..20_000_000, 1u32..5).prop_map(
        |(node, from_ns, len_ns, factor)| DegradeWindow {
            node: NodeId::new(node),
            from: SimTime::from_nanos(from_ns),
            until: SimTime::from_nanos(from_ns + len_ns),
            factor: f64::from(factor),
        },
    );
    (
        0u32..=50,
        0u64..1_000_000_000,
        prop::collection::vec(event, 0..3),
        prop::collection::vec(degrade, 0..2),
    )
        .prop_map(|(loss_permille, seed, mut crashes, degrades)| {
            crashes.sort_by_key(|e| (e.at.as_nanos(), e.node.index(), e.up));
            FaultPlan {
                loss: f64::from(loss_permille) / 1000.0,
                seed,
                degrades,
                crashes,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Graceful degradation, chaos-tested: whatever the plan throws at
    /// the cluster, every policy × memory cell runs to completion,
    /// executes every reference, conserves its time buckets and keeps
    /// the network pipeline overlap-free.
    #[test]
    fn every_cell_survives_arbitrary_plans(plan in arb_plan()) {
        let app = apps::gdb().scaled(0.05);
        for policy in all_policies() {
            for memory in [MemoryConfig::Full, MemoryConfig::Half, MemoryConfig::Quarter] {
                let mut rec = MemoryRecorder::new();
                let sim = Simulator::new(config(policy, memory, Some(plan.clone())));
                let report = sim.run_recorded(&app, &mut rec);
                report.assert_conserved();
                prop_assert_eq!(
                    report.total_refs,
                    app.target_refs(),
                    "{} {:?} lost references", policy.label(), memory
                );
                assert_occupancies_disjoint(rec.iter());

                // Attribution conservation under arbitrary chaos: the
                // per-fault decomposition telescopes exactly, matches
                // the engine's fault log fault-for-fault, and sums to
                // the report's stall buckets to the nanosecond.
                let attrib = gms_obs::attribute(rec.iter())
                    .unwrap_or_else(|e| panic!("{} {:?}: {e}", policy.label(), memory));
                prop_assert_eq!(attrib.faults.len(), report.fault_log.len());
                for (a, r) in attrib.faults.iter().zip(&report.fault_log) {
                    prop_assert_eq!(
                        a.total_wait(),
                        r.wait,
                        "{} {:?} page {}", policy.label(), memory, r.page
                    );
                }
                prop_assert_eq!(
                    attrib.total_wait(),
                    report.sp_latency + report.page_wait,
                    "{} {:?}", policy.label(), memory
                );
            }
        }
    }

    /// The adaptive engines survive the same chaos the static policies
    /// do: under an arbitrary plan, `leap` and `indigo` cells terminate,
    /// conserve their buckets, keep attribution telescoping, keep the
    /// pipeline overlap-free — and, because the fault stream each engine
    /// observes is itself deterministic, replaying the identical plan
    /// reproduces the run byte for byte even though the engines' plans
    /// depend on history.
    #[test]
    fn adaptive_cells_survive_and_reproduce_arbitrary_plans(plan in arb_plan()) {
        let app = apps::gdb().scaled(0.05);
        for policy in [
            FetchPolicy::leap(SubpageSize::S1K),
            FetchPolicy::indigo(SubpageSize::S1K),
        ] {
            for memory in [MemoryConfig::Half, MemoryConfig::Quarter] {
                let run = || {
                    let mut rec = MemoryRecorder::new();
                    let sim = Simulator::new(config(policy, memory, Some(plan.clone())));
                    let report = sim.run_recorded(&app, &mut rec);
                    (report, rec)
                };
                let (report, rec) = run();
                report.assert_conserved();
                prop_assert_eq!(
                    report.total_refs,
                    app.target_refs(),
                    "{} {:?} lost references", policy.label(), memory
                );
                assert_occupancies_disjoint(rec.iter());

                let attrib = gms_obs::attribute(rec.iter())
                    .unwrap_or_else(|e| panic!("{} {:?}: {e}", policy.label(), memory));
                prop_assert_eq!(attrib.faults.len(), report.fault_log.len());
                prop_assert_eq!(
                    attrib.total_wait(),
                    report.sp_latency + report.page_wait,
                    "{} {:?}", policy.label(), memory
                );

                let (again, _) = run();
                prop_assert_eq!(
                    &report, &again,
                    "{} {:?}: replayed plan diverged", policy.label(), memory
                );
            }
        }
    }

    /// The replication tentpole's zero-loss drill: with K = 2 copies,
    /// an arbitrary single idle-node crash (with or without recovery)
    /// loses *nothing* — `pages_lost_to_crash` stays zero and the run
    /// falls back to disk exactly as often as the crash-free run, every
    /// fetch of a dead primary's page failing over to its surviving
    /// standby instead.
    #[test]
    fn two_replicas_survive_any_single_crash(
        crash_ns in 0u64..40_000_000,
        victim in 2u32..5,
        recover in prop::bool::ANY,
    ) {
        let apps = [apps::gdb().scaled(0.03), apps::ld().scaled(0.03)];
        let mut crashes = vec![NodeEvent {
            node: NodeId::new(victim),
            at: SimTime::from_nanos(crash_ns),
            up: false,
        }];
        if recover {
            crashes.push(NodeEvent {
                node: NodeId::new(victim),
                at: SimTime::from_nanos(crash_ns + 10_000_000),
                up: true,
            });
        }
        let plan = FaultPlan { crashes, ..FaultPlan::default() };
        let run = |plan: Option<FaultPlan>| {
            let builder = SimConfig::builder()
                .policy(FetchPolicy::eager(SubpageSize::S1K))
                .memory(MemoryConfig::Quarter)
                .cluster_nodes(5)
                .replication(ReplicationConfig {
                    replicas: 2,
                    ..ReplicationConfig::default()
                });
            let cfg = match plan {
                Some(plan) => builder.fault_plan(plan).build(),
                None => builder.build(),
            };
            ClusterSim::new(cfg).run(&apps)
        };
        let crashed = run(Some(plan));
        for node in &crashed.nodes {
            node.assert_conserved();
        }
        let gms = &crashed.nodes[0].gms;
        prop_assert_eq!(gms.pages_lost_to_crash, 0, "K=2 must survive one crash");
        let clean = run(None);
        let fell_back = |r: &gms_core::ClusterReport| {
            r.nodes.iter().map(|n| n.fell_back_to_disk).sum::<u64>()
        };
        let disk_faults = |r: &gms_core::ClusterReport| {
            r.nodes.iter().map(|n| n.faults.disk).sum::<u64>()
        };
        prop_assert_eq!(
            fell_back(&crashed),
            fell_back(&clean),
            "a crash must not add disk fallbacks at K=2"
        );
        prop_assert_eq!(disk_faults(&crashed), disk_faults(&clean));
    }

    /// The same non-empty plan replayed twice gives byte-identical
    /// results: fault injection is deterministic, not merely bounded.
    /// On a recorded 2-active cluster that covers every artifact —
    /// summary JSON, Perfetto trace, flight exemplars and SLO tallies,
    /// heat JSON — for a static and a history-dependent policy, and
    /// every recorded report equals the unrecorded one.
    #[test]
    fn chaos_runs_are_reproducible(plan in arb_plan()) {
        let app = apps::gdb().scaled(0.05);
        let run = || {
            Simulator::new(config(
                FetchPolicy::pipelined(SubpageSize::S1K),
                MemoryConfig::Half,
                Some(plan.clone()),
            ))
            .run(&app)
        };
        prop_assert_eq!(run(), run());

        let apps = [apps::gdb().scaled(0.03), apps::ld().scaled(0.03)];
        for policy in [
            FetchPolicy::pipelined(SubpageSize::S1K),
            FetchPolicy::leap(SubpageSize::S1K),
        ] {
            let sim = ClusterSim::new(
                SimConfig::builder()
                    .policy(policy)
                    .memory(MemoryConfig::Quarter)
                    .cluster_nodes(5)
                    .fault_plan(plan.clone())
                    .build(),
            );
            let unrecorded = sim.run(&apps);
            let recorded = || {
                let mut rec = MemoryRecorder::new();
                let traced = sim.run_recorded(&apps, &mut rec);
                let mut flight = FlightRecorder::new(4)
                    .with_window(Duration::from_millis(50))
                    .with_slo(Duration::from_micros(200));
                let flown = sim.run_recorded(&apps, &mut flight);
                flight.seal();
                let mut heat = HeatMap::new().with_region_pages(16).with_wire_tracking();
                let heated = sim.run_recorded(&apps, &mut heat);
                let exemplars: Vec<_> = flight
                    .exemplars()
                    .iter()
                    .map(|e| (e.node, e.page, e.subpage, e.window, e.wait, e.events.len()))
                    .collect();
                let tallies: Vec<_> = flight
                    .windows()
                    .map(|(node, ws)| (node, ws.to_vec()))
                    .collect();
                let artifacts = (
                    gms_core::cluster_summary_json(&traced),
                    gms_obs::perfetto_trace(rec.iter()),
                    exemplars,
                    flight.exemplar_events(),
                    tallies,
                    heat_json(&heat),
                );
                ([traced, flown, heated], artifacts)
            };
            let (reports, artifacts) = recorded();
            for report in &reports {
                prop_assert_eq!(
                    report, &unrecorded,
                    "{}: recording changed the report", policy.label()
                );
            }
            let (_, again) = recorded();
            prop_assert_eq!(&artifacts, &again, "{}: replayed plan diverged", policy.label());
        }
    }
}

/// `None` and `Some(empty)` plans produce byte-identical serial
/// reports: an empty plan installs no injector, so no RNG is ever
/// seeded or drawn and no code path diverges.
#[test]
fn empty_plan_is_byte_identical_serial() {
    let app = apps::gdb().scaled(0.2);
    for policy in all_policies() {
        let baseline = Simulator::new(config(policy, MemoryConfig::Half, None)).run(&app);
        let empty = Simulator::new(config(
            policy,
            MemoryConfig::Half,
            Some(FaultPlan::default()),
        ))
        .run(&app);
        assert_eq!(baseline, empty, "{} diverged", policy.label());
    }
}

/// The same holds for multi-active-node cluster runs.
#[test]
fn empty_plan_is_byte_identical_cluster() {
    let app = apps::gdb().scaled(0.1);
    let apps = [app.clone(), app];
    let baseline = ClusterSim::new(config(
        FetchPolicy::eager(SubpageSize::S1K),
        MemoryConfig::Half,
        None,
    ))
    .run(&apps);
    let empty = ClusterSim::new(config(
        FetchPolicy::eager(SubpageSize::S1K),
        MemoryConfig::Half,
        Some(FaultPlan::default()),
    ))
    .run(&apps);
    assert_eq!(baseline, empty);
}

/// The ISSUE's acceptance experiment: a 1% loss rate on gdb produces
/// nonzero retries and a strictly higher mean page wait than the
/// loss-free run — lost messages cost time, never correctness.
#[test]
fn one_percent_loss_retries_and_waits_longer() {
    let app = apps::gdb().scaled(0.2);
    let plan = FaultPlan::parse("loss=0.01,seed=7", None).expect("valid spec");
    let lossy = Simulator::new(config(
        FetchPolicy::eager(SubpageSize::S1K),
        MemoryConfig::Half,
        Some(plan),
    ))
    .run(&app);
    let clean = Simulator::new(config(
        FetchPolicy::eager(SubpageSize::S1K),
        MemoryConfig::Half,
        None,
    ))
    .run(&app);
    lossy.assert_conserved();
    assert!(lossy.retries > 0, "1% loss must force retries");
    assert!(lossy.timeouts > 0);
    assert_eq!(lossy.total_refs, clean.total_refs);
    assert!(
        lossy.mean_fault_wait() > clean.mean_fault_wait(),
        "lossy mean wait {} vs clean {}",
        lossy.mean_fault_wait(),
        clean.mean_fault_wait()
    );
}

/// Crashing every idle node before the run starts degrades the GMS to
/// disk entirely: every fault misses, `fell_back_to_disk` pins to the
/// disk-fault count, and the crash losses surface in the GMS stats.
#[test]
fn crashed_custodians_degrade_to_disk() {
    let app = apps::gdb().scaled(0.1);
    let plan = FaultPlan::parse("crash=n1@0ns,crash=n2@0ns,crash=n3@0ns", None).expect("valid");
    let report = Simulator::new(config(
        FetchPolicy::eager(SubpageSize::S1K),
        MemoryConfig::Full,
        Some(plan),
    ))
    .run(&app);
    report.assert_conserved();
    assert_eq!(report.faults.remote, 0, "no custodian survives to serve");
    assert!(report.faults.disk > 0);
    assert_eq!(report.fell_back_to_disk, report.faults.disk);
    assert_eq!(report.gms.fell_back_to_disk, report.fell_back_to_disk);
    assert!(report.gms.pages_lost_to_crash > 0, "warm cache was lost");
    assert_eq!(
        report.timeouts, 0,
        "dead custodians are found in the directory, not by timeout"
    );
}

/// A mid-run crash splits service: pages whose custodian died fall back
/// to disk (with directory repair), the rest keep being served
/// remotely, and the run still completes every reference.
#[test]
fn partial_crash_is_partial_degradation() {
    let app = apps::gdb().scaled(0.1);
    let plan = FaultPlan::parse("crash=n2@1ms", None).expect("valid");
    let report = Simulator::new(config(
        FetchPolicy::eager(SubpageSize::S1K),
        MemoryConfig::Quarter,
        Some(plan),
    ))
    .run(&app);
    report.assert_conserved();
    assert_eq!(report.total_refs, app.target_refs());
    assert!(report.faults.remote > 0, "surviving custodians still serve");
    assert!(
        report.fell_back_to_disk > 0,
        "the crashed custodian's pages must miss"
    );
    assert!(report.gms.pages_lost_to_crash > 0);
}

/// A mid-run crash under K = 2 triggers visible background repair: the
/// surviving copies are re-replicated as real rate-limited transfers
/// (`pages_re_replicated`, `repair_bytes`), the window of vulnerability
/// is measured, the dead custodian's directory shard is rebuilt from
/// surviving announcements — and still nothing is lost.
#[test]
fn crash_repair_restores_replication_without_loss() {
    let app = apps::gdb().scaled(0.1);
    let plan = FaultPlan::parse("crash=n2@1ms", None).expect("valid");
    let cfg = SimConfig::builder()
        .policy(FetchPolicy::eager(SubpageSize::S1K))
        .memory(MemoryConfig::Quarter)
        .cluster_nodes(5)
        .replication(ReplicationConfig {
            replicas: 2,
            ..ReplicationConfig::default()
        })
        .fault_plan(plan)
        .build();
    let report = ClusterSim::new(cfg).run(std::slice::from_ref(&app));
    let node = &report.nodes[0];
    node.assert_conserved();
    assert_eq!(node.total_refs, app.target_refs());
    let gms = &node.gms;
    assert_eq!(gms.replicas, 2);
    assert_eq!(gms.pages_lost_to_crash, 0, "the standby copies survive");
    assert!(gms.replica_writes > 0, "evictions write standby copies");
    assert!(
        gms.pages_re_replicated > 0,
        "the victim's pages must be repaired in the background"
    );
    assert_eq!(
        gms.repair_bytes,
        gms.pages_re_replicated * 8192,
        "each repair copies one full page"
    );
    assert_eq!(gms.directory_rebuilds, 1, "one custodian shard rebuilt");
    assert!(
        gms.window_of_vulnerability_ns > 0,
        "exposure between crash and repair is measured"
    );
}

/// Degradation windows slow transfers without changing their shape:
/// same fault counts, strictly more stall time.
#[test]
fn degrade_window_slows_but_preserves_behavior() {
    let app = apps::gdb().scaled(0.1);
    let clean = Simulator::new(config(
        FetchPolicy::eager(SubpageSize::S1K),
        MemoryConfig::Half,
        None,
    ))
    .run(&app);
    let horizon = clean.total_time;
    let mut degraded_cfg = config(
        FetchPolicy::eager(SubpageSize::S1K),
        MemoryConfig::Half,
        None,
    );
    degraded_cfg.fault_plan = Some(FaultPlan {
        degrades: vec![DegradeWindow {
            node: NodeId::new(0),
            from: SimTime::ZERO,
            until: SimTime::ZERO + horizon * 4,
            factor: 3.0,
        }],
        ..FaultPlan::default()
    });
    let degraded = Simulator::new(degraded_cfg).run(&app);
    degraded.assert_conserved();
    assert_eq!(degraded.faults, clean.faults, "same faults, slower service");
    assert_eq!(degraded.retries, 0, "degradation is not loss");
    assert!(
        degraded.sp_latency + degraded.page_wait > clean.sp_latency + clean.page_wait,
        "3x link cost must show up as stall time"
    );
}

#[test]
fn timeout_stall_time_is_conserved() {
    // Adversarially high loss: a third of messages drop, so timeouts,
    // retries, failovers and degraded re-fetches all fire — and the
    // buckets still partition the total exactly.
    let app = apps::gdb().scaled(0.05);
    let plan = FaultPlan::parse("loss=0.33,seed=3", None).expect("valid");
    for policy in [
        FetchPolicy::eager(SubpageSize::S1K),
        FetchPolicy::pipelined(SubpageSize::S1K),
        FetchPolicy::lazy(SubpageSize::S1K),
    ] {
        let report =
            Simulator::new(config(policy, MemoryConfig::Quarter, Some(plan.clone()))).run(&app);
        report.assert_conserved();
        assert_eq!(report.total_refs, app.target_refs(), "{}", policy.label());
        assert!(report.timeouts > 0, "{}", policy.label());
        assert!(report.retries > 0, "{}", policy.label());
    }
}

/// Duration arithmetic helper check for the degrade test above: the
/// window must outlast the (slower) degraded run, so multiply the
/// clean horizon.
#[test]
fn degrade_window_times_are_sane() {
    let h = Duration::from_millis(5);
    assert!(SimTime::ZERO + h * 4 > SimTime::ZERO + h);
}
