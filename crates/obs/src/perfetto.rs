//! Chrome/Perfetto trace event export.
//!
//! Produces the legacy Chrome trace-event JSON format (`{"traceEvents":
//! [...]}`), which both `chrome://tracing` and [ui.perfetto.dev] load
//! directly. The mapping:
//!
//! * process = simulated node (`pid` = node index, named `node<i>`),
//! * thread = one of the node's five network resources (`tid` 0–4 in
//!   [`ResourceKind::ALL`] order) plus an `app` track (`tid` 5) for
//!   program-side events,
//! * complete (`"ph":"X"`) spans for resource occupancies and program
//!   stalls, instant (`"ph":"i"`) events for faults, getpage requests,
//!   restarts and putpages.
//!
//! Timestamps are microseconds (the format's unit); sub-microsecond
//! simulation times survive as fractional values.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::collections::BTreeSet;

use crate::event::{Event, ResourceKind};
use crate::json::{escape_json, JsonValue};

/// `tid` of the synthetic per-node application track.
pub const APP_TRACK: usize = 5;

pub(crate) fn us(nanos: u64) -> String {
    // Emit as exact microsecond decimals: ns / 1000 with 3 fractional
    // digits, no float rounding.
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

pub(crate) fn push_meta(out: &mut String, pid: u32, tid: usize, kind: &str, name: &str) {
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"name\":\"{kind}\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape_json(name)
    ));
}

fn push_span(
    out: &mut String,
    pid: u32,
    tid: usize,
    name: &str,
    start_ns: u64,
    end_ns: u64,
    args: &str,
) {
    let dur = end_ns.saturating_sub(start_ns);
    out.push_str(&format!(
        "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{tid},\
         \"ts\":{},\"dur\":{}{args}}}",
        escape_json(name),
        us(start_ns),
        us(dur)
    ));
}

fn push_instant(out: &mut String, pid: u32, tid: usize, name: &str, at_ns: u64, args: &str) {
    out.push_str(&format!(
        "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{tid},\
         \"ts\":{}{args}}}",
        escape_json(name),
        us(at_ns)
    ));
}

/// Render events as a Chrome/Perfetto trace JSON document.
///
/// One process per node that appears in `events`, one thread per
/// `(node, resource)` plus an `app` thread per node. The output is a
/// single-line JSON object; parse it back with
/// [`crate::JsonValue::parse`] to inspect it programmatically.
#[must_use]
pub fn perfetto_trace<'a, I>(events: I) -> String
where
    I: IntoIterator<Item = &'a Event>,
    I::IntoIter: Clone,
{
    let events = events.into_iter();
    let nodes: BTreeSet<u32> = events.clone().map(|e| e.node().index()).collect();

    let mut parts: Vec<String> = Vec::new();

    // Metadata: name every process and thread up front so the tracks
    // are labelled even when empty.
    let mut meta = String::new();
    for (i, &node) in nodes.iter().enumerate() {
        if i > 0 {
            meta.push(',');
        }
        push_meta(&mut meta, node, 0, "process_name", &format!("node{node}"));
        for r in ResourceKind::ALL {
            meta.push(',');
            push_meta(&mut meta, node, r.index(), "thread_name", r.label());
        }
        meta.push(',');
        push_meta(&mut meta, node, APP_TRACK, "thread_name", "app");
    }
    if !meta.is_empty() {
        parts.push(meta);
    }

    for e in events {
        let pid = e.node().index();
        let mut out = String::new();
        match e {
            Event::Occupancy {
                resource,
                what,
                start,
                end,
                ..
            } => {
                push_span(
                    &mut out,
                    pid,
                    resource.index(),
                    what,
                    start.as_nanos(),
                    end.as_nanos(),
                    "",
                );
            }
            Event::Stall {
                page, start, end, ..
            } => {
                let args = format!(",\"args\":{{\"page\":{page}}}");
                push_span(
                    &mut out,
                    pid,
                    APP_TRACK,
                    "stall",
                    start.as_nanos(),
                    end.as_nanos(),
                    &args,
                );
            }
            Event::Fault {
                page,
                subpage,
                class,
                at_ref,
                at,
                ..
            } => {
                let args = format!(
                    ",\"args\":{{\"page\":{page},\"subpage\":{subpage},\
                     \"class\":\"{}\",\"ref\":{at_ref}}}",
                    class.label()
                );
                push_instant(&mut out, pid, APP_TRACK, "fault", at.as_nanos(), &args);
            }
            Event::GetPage {
                server, page, at, ..
            } => {
                let args = format!(
                    ",\"args\":{{\"page\":{page},\"server\":{}}}",
                    server.index()
                );
                push_instant(&mut out, pid, APP_TRACK, "getpage", at.as_nanos(), &args);
            }
            Event::Restart { page, at, wait, .. } => {
                let args = format!(
                    ",\"args\":{{\"page\":{page},\"wait_ns\":{}}}",
                    wait.as_nanos()
                );
                push_instant(&mut out, pid, APP_TRACK, "restart", at.as_nanos(), &args);
            }
            Event::Arrival {
                page,
                msg,
                at,
                subpages,
                ..
            } => {
                let subs_json: Vec<String> = (0..32)
                    .filter(|i| subpages & (1 << i) != 0)
                    .map(|i: u32| i.to_string())
                    .collect();
                let args = format!(
                    ",\"args\":{{\"page\":{page},\"msg\":{msg},\"subpages\":[{}]}}",
                    subs_json.join(",")
                );
                push_instant(&mut out, pid, APP_TRACK, "arrival", at.as_nanos(), &args);
            }
            Event::PutPage {
                custodian,
                page,
                dirty,
                at,
                ..
            } => {
                let args = format!(
                    ",\"args\":{{\"page\":{page},\"custodian\":{},\"dirty\":{dirty}}}",
                    custodian.index()
                );
                push_instant(&mut out, pid, APP_TRACK, "putpage", at.as_nanos(), &args);
            }
            Event::Timeout {
                page, attempt, at, ..
            } => {
                let args = format!(",\"args\":{{\"page\":{page},\"attempt\":{attempt}}}");
                push_instant(&mut out, pid, APP_TRACK, "timeout", at.as_nanos(), &args);
            }
            Event::Retry {
                page, attempt, at, ..
            } => {
                let args = format!(",\"args\":{{\"page\":{page},\"attempt\":{attempt}}}");
                push_instant(&mut out, pid, APP_TRACK, "retry", at.as_nanos(), &args);
            }
            Event::Failover {
                custodian,
                page,
                at,
                ..
            } => {
                let args = format!(
                    ",\"args\":{{\"page\":{page},\"custodian\":{}}}",
                    custodian.index()
                );
                push_instant(&mut out, pid, APP_TRACK, "failover", at.as_nanos(), &args);
            }
            Event::NodeDown { at, pages_lost, .. } => {
                let args = format!(",\"args\":{{\"pages_lost\":{pages_lost}}}");
                push_instant(&mut out, pid, APP_TRACK, "node-down", at.as_nanos(), &args);
            }
            Event::NodeUp { at, .. } => {
                push_instant(&mut out, pid, APP_TRACK, "node-up", at.as_nanos(), "");
            }
            Event::DegradedFetch {
                page, subpage, at, ..
            } => {
                let args = format!(",\"args\":{{\"page\":{page},\"subpage\":{subpage}}}");
                push_instant(
                    &mut out,
                    pid,
                    APP_TRACK,
                    "degraded-fetch",
                    at.as_nanos(),
                    &args,
                );
            }
            Event::PolicyDecision {
                page,
                choice,
                delta,
                at,
                ..
            } => {
                let args = format!(
                    ",\"args\":{{\"page\":{page},\"choice\":\"{}\",\"delta\":{delta}}}",
                    choice.label()
                );
                push_instant(
                    &mut out,
                    pid,
                    APP_TRACK,
                    "policy-decision",
                    at.as_nanos(),
                    &args,
                );
            }
            Event::Prefetch {
                page,
                subpages,
                sub_bytes,
                unused,
                at,
                ..
            } => {
                let subs_json: Vec<String> = (0..32)
                    .filter(|i| subpages & (1 << i) != 0)
                    .map(|i: u32| i.to_string())
                    .collect();
                let args = format!(
                    ",\"args\":{{\"page\":{page},\"subpages\":[{}],\
                     \"sub_bytes\":{sub_bytes},\"unused\":{unused}}}",
                    subs_json.join(",")
                );
                push_instant(&mut out, pid, APP_TRACK, "prefetch", at.as_nanos(), &args);
            }
            Event::ReplicaWrite {
                holder,
                page,
                copy,
                at,
                ..
            } => {
                let args = format!(
                    ",\"args\":{{\"page\":{page},\"holder\":{},\"copy\":{copy}}}",
                    holder.index()
                );
                push_instant(
                    &mut out,
                    pid,
                    APP_TRACK,
                    "replica-write",
                    at.as_nanos(),
                    &args,
                );
            }
            Event::Repair {
                node,
                target,
                page,
                at,
            } => {
                let args = format!(
                    ",\"args\":{{\"page\":{page},\"source\":{},\"target\":{}}}",
                    node.index(),
                    target.index()
                );
                push_instant(&mut out, pid, APP_TRACK, "repair", at.as_nanos(), &args);
            }
            Event::DirectoryRebuild { entries, at, .. } => {
                let args = format!(",\"args\":{{\"entries\":{entries}}}");
                push_instant(
                    &mut out,
                    pid,
                    APP_TRACK,
                    "directory-rebuild",
                    at.as_nanos(),
                    &args,
                );
            }
        }
        parts.push(out);
    }

    let mut doc = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    doc.push_str(&parts.join(","));
    doc.push_str("]}");
    doc
}

/// Every instant-event name [`perfetto_trace`] writes, one per instant
/// [`Event`] variant. [`check_trace`] rejects any other, so a renamed
/// or misspelled event breaks loudly rather than silently vanishing
/// from downstream tooling.
pub const INSTANT_KINDS: [&str; 16] = [
    "fault",
    "getpage",
    "restart",
    "arrival",
    "putpage",
    "timeout",
    "retry",
    "failover",
    "node-down",
    "node-up",
    "degraded-fetch",
    "policy-decision",
    "prefetch",
    "replica-write",
    "repair",
    "directory-rebuild",
];

/// Checks a Chrome/Perfetto trace document as [`perfetto_trace`] and
/// [`crate::heat_perfetto`] write it: every event is a span (`X`),
/// instant (`i`), metadata (`M`) or counter (`C`) record with a `pid`;
/// instants carry an [`INSTANT_KINDS`] name, and counters a string
/// name and numeric `args`. Returns `"{events} events, {spans} spans"`.
pub fn check_trace(doc: &JsonValue) -> Result<String, String> {
    let events = doc.get_array("traceEvents").ok_or("no traceEvents array")?;
    let mut spans = 0;
    for (i, e) in events.iter().enumerate() {
        let ph = e.get_str("ph");
        if !matches!(ph, Some("X" | "i" | "M" | "C")) {
            return Err(format!("event {i} has unexpected phase {ph:?}"));
        }
        if e.get_u64("pid").is_none() {
            return Err(format!("event {i} has no pid"));
        }
        match ph {
            Some("X") => spans += 1,
            Some("i") => {
                let name = e.get_str("name");
                if !name.is_some_and(|n| INSTANT_KINDS.contains(&n)) {
                    return Err(format!("event {i} has unknown instant kind {name:?}"));
                }
            }
            Some("C") => {
                let numeric = e
                    .get("args")
                    .and_then(JsonValue::as_object)
                    .is_some_and(|args| args.values().all(|v| v.as_f64().is_some()));
                if e.get_str("name").is_none() || !numeric {
                    return Err(format!(
                        "event {i} is a counter without a name or numeric args"
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(format!("{} events, {spans} spans", events.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{arb_events, sample_event, FaultClass, EVENT_VARIANTS};
    use gms_units::{Duration, NodeId, SimTime};
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn microsecond_rendering_is_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(52_345), "52.345");
    }

    #[test]
    fn trace_parses_and_maps_tracks() {
        let events = vec![
            Event::Fault {
                node: NodeId::new(0),
                page: 3,
                subpage: 2,
                class: FaultClass::Remote,
                at_ref: 77,
                at: t(100),
            },
            Event::Occupancy {
                node: NodeId::new(1),
                resource: ResourceKind::Cpu,
                what: "request",
                ready: t(150),
                start: t(150),
                end: t(250),
            },
            Event::Occupancy {
                node: NodeId::new(0),
                resource: ResourceKind::WireIn,
                what: "data",
                ready: t(250),
                start: t(300),
                end: t(5_300),
            },
            Event::Restart {
                node: NodeId::new(0),
                page: 3,
                at: t(5_300),
                wait: Duration::from_nanos(5_200),
            },
            Event::Arrival {
                node: NodeId::new(0),
                page: 3,
                msg: 0,
                at: t(6_000),
                subpages: (1 << 1) | (1 << 2),
            },
            Event::Arrival {
                node: NodeId::new(0),
                page: 3,
                msg: 1,
                at: t(7_000),
                subpages: 1 << 3,
            },
        ];
        let doc = perfetto_trace(&events);
        let v = JsonValue::parse(&doc).expect("valid JSON");
        let items = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();

        // 2 nodes × (1 process_name + 5 resources + 1 app) metadata
        // records, then 1 fault + 2 occupancy + 1 restart + 2 arrivals.
        let metas = items
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
            .count();
        assert_eq!(metas, 2 * 7);
        let spans: Vec<_> = items
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        // The wire-in occupancy lands on node 0's WireIn track.
        let wire = spans
            .iter()
            .find(|s| s.get("name").and_then(JsonValue::as_str) == Some("data"))
            .unwrap();
        assert_eq!(wire.get("pid").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(
            wire.get("tid").and_then(JsonValue::as_u64),
            Some(ResourceKind::WireIn.index() as u64)
        );
        assert_eq!(wire.get("ts").and_then(JsonValue::as_f64), Some(0.3));
        assert_eq!(wire.get("dur").and_then(JsonValue::as_f64), Some(5.0));

        let instants = items
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
            .count();
        assert_eq!(instants, 4); // fault + restart + 2 arrivals
    }

    /// The instant names `perfetto_trace` writes are exactly
    /// `INSTANT_KINDS`: none the checker would reject, none it lists
    /// that no event emits.
    #[test]
    fn instant_kinds_match_the_writer() {
        let events: Vec<Event> = (0..EVENT_VARIANTS)
            .map(|kind| sample_event(kind, 0, 1, 1_000, 10))
            .collect();
        let doc = JsonValue::parse(&perfetto_trace(&events)).unwrap();
        let emitted: BTreeSet<&str> = doc
            .get_array("traceEvents")
            .unwrap()
            .iter()
            .filter(|e| e.get_str("ph") == Some("i"))
            .filter_map(|e| e.get_str("name"))
            .collect();
        assert_eq!(emitted, INSTANT_KINDS.into_iter().collect::<BTreeSet<_>>());
        assert_eq!(emitted.len(), INSTANT_KINDS.len(), "names are distinct");
    }

    #[test]
    fn check_trace_rejects_malformed_events() {
        let check = |events: &str| {
            check_trace(&JsonValue::parse(&format!("{{\"traceEvents\":[{events}]}}")).unwrap())
        };
        assert_eq!(check(""), Ok("0 events, 0 spans".to_owned()));
        let counter = r#"{"ph":"C","name":"faults","pid":0,"ts":0.000,"args":{"faults":3}}"#;
        assert_eq!(check(counter), Ok("1 events, 0 spans".to_owned()));
        for bad in [
            r#"{"ph":"C","pid":0,"args":{"faults":3}}"#,
            r#"{"ph":"C","name":"faults","pid":0,"args":{"faults":"3"}}"#,
            r#"{"ph":"C","name":"faults","pid":0}"#,
            r#"{"ph":"i","name":"frobnicate","pid":0}"#,
            r#"{"ph":"B","name":"fault","pid":0}"#,
            r#"{"ph":"X","name":"data"}"#,
        ] {
            assert!(check(bad).is_err(), "{bad}");
        }
    }

    proptest! {
        /// Whatever events a run records, the document passes the checker.
        #[test]
        fn traces_of_any_stream_pass_the_checker(events in arb_events()) {
            let doc = JsonValue::parse(&perfetto_trace(&events)).expect("valid JSON");
            let spans = events
                .iter()
                .filter(|e| matches!(e, Event::Occupancy { .. } | Event::Stall { .. }))
                .count();
            let detail = check_trace(&doc).expect("writer output passes");
            prop_assert!(detail.ends_with(&format!(" {spans} spans")), "{}", detail);
        }
    }

    #[test]
    fn empty_trace_is_valid() {
        let doc = perfetto_trace(&[] as &[Event]);
        let v = JsonValue::parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("traceEvents")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(0)
        );
    }
}
