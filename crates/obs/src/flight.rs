//! The flight recorder: O(worst-K) tail forensics.
//!
//! [`MemoryRecorder`](crate::MemoryRecorder) keeps *every* event — the
//! right tool for offline trace export, but its arena grows with the
//! run (~17k events for the serial workloads) and its overhead prices
//! it out of always-on use. A [`FlightRecorder`] answers the question
//! tail investigations actually ask — "show me the complete event
//! chains of the *worst* faults" — while retaining only those chains:
//!
//! * Every fault's events are staged in one reusable buffer between
//!   its `Fault` and matching `Restart` (the engine maintains a single
//!   open fault window at a time — the same invariant the attribution
//!   walk checks — so one buffer suffices).
//! * At restart the chain becomes a *candidate*: each node keeps the
//!   `keep` highest-wait chains per time window (a reservoir keyed by
//!   page wait; no window configured means one window spanning the
//!   run). A candidate replaces the weakest incumbent (the smallest
//!   wait, the latest fault among equals) only when its wait is
//!   *strictly* greater, so the retained set is the window's top K by
//!   wait with ties kept by the earlier fault: a pure function of the
//!   event stream — the cluster feeds recorders in canonical commit
//!   order, making exemplar sets reproducible.
//! * Follow-on `Arrival` and `Stall` events attach to the retained
//!   chain of the last fault on their `(node, page)` — mirroring how
//!   [`attribute`](crate::attribute) targets stalls — so
//!   [`FlightRecorder::exemplar_events`] replays through `attribute`
//!   with every per-fault conservation check intact. Stalls also bump
//!   the chain's recorded wait. (A chain evicted *before* a late stall
//!   lands stays evicted: the reservoir ranks by wait-at-restart plus
//!   whatever stalls arrive while the chain is still a candidate — a
//!   deterministic approximation documented here rather than hidden.)
//! * Independently of retention, the recorder tallies *every* fault
//!   into per-node, per-window SLO accounts (fault count, violation
//!   count against a configured threshold, total wait), so attainment
//!   reporting does not depend on which chains survived.
//!
//! Dropped candidates recycle their event buffers through a free pool,
//! so steady-state recording allocates only when a chain is retained.
//!
//! [`explain_json`] renders the retained exemplars, decomposed, as the
//! `gms-explain/v1` document, and [`check_explain`] re-verifies it.

use std::fmt::Write as _;

use gms_units::{Duration, FastMap, NodeId, SimTime};

use crate::attrib::FaultAttribution;
use crate::event::{Event, FaultClass};
use crate::json::{check_schema, escape_json, JsonValue};
use crate::recorder::Recorder;
use crate::sketch::{tail_json, QuantileSketch};

/// `(node, page)` → the last closed fault on it, probed on every
/// arrival and stall.
type OwnerMap = FastMap<(u32, u64), Owner>;

/// Per-node, per-window SLO accounting over *all* faults (not just the
/// retained exemplars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTally {
    /// The window index (`fault time / window length`; 0 when no
    /// window is configured).
    pub window: u64,
    /// Faults whose window this is.
    pub faults: u64,
    /// Faults whose final wait (restart wait plus later stalls)
    /// exceeded the configured SLO threshold. Zero when no threshold
    /// is configured.
    pub violations: u64,
    /// Total wait of the window's faults.
    pub wait: Duration,
}

/// Faults tallied against a wait threshold: the one place SLO
/// attainment is computed, rendered as JSON and checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTally {
    /// The wait a fault must not exceed.
    pub threshold: Duration,
    /// Faults tallied.
    pub faults: u64,
    /// Faults whose wait was within the threshold.
    pub under: u64,
}

impl SloTally {
    /// An empty tally against `threshold`.
    #[must_use]
    pub fn new(threshold: Duration) -> Self {
        Self {
            threshold,
            faults: 0,
            under: 0,
        }
    }

    /// Tallies every wait in `waits` against `threshold`.
    #[must_use]
    pub fn over(threshold: Duration, waits: impl IntoIterator<Item = Duration>) -> Self {
        let mut tally = Self::new(threshold);
        for wait in waits {
            tally.record(wait);
        }
        tally
    }

    /// Counts one fault that waited `wait`.
    pub fn record(&mut self, wait: Duration) {
        self.faults += 1;
        self.under += u64::from(wait <= self.threshold);
    }

    /// The fraction of faults within the threshold; an empty tally
    /// attains trivially.
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.faults == 0 {
            1.0
        } else {
            self.under as f64 / self.faults as f64
        }
    }

    /// The JSON object `{"threshold_ns","faults","under","attainment"}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_with("")
    }

    /// [`SloTally::to_json`] with `extra` (fields with their leading
    /// comma) spliced in after `attainment`.
    #[must_use]
    pub fn to_json_with(&self, extra: &str) -> String {
        format!(
            "{{\"threshold_ns\":{},\"faults\":{},\"under\":{},\"attainment\":{:.6}{extra}}}",
            self.threshold.as_nanos(),
            self.faults,
            self.under,
            self.attainment()
        )
    }

    /// Checks an SLO object named `what`: integer threshold and counts
    /// with `under <= faults`, and an attainment in `[0, 1]`.
    pub fn check(slo: &JsonValue, what: &str) -> Result<(), String> {
        let int_of = |key: &str| {
            slo.get_u64(key)
                .ok_or_else(|| format!("{what}.{key} missing"))
        };
        int_of("threshold_ns")?;
        let faults = int_of("faults")?;
        let under = int_of("under")?;
        if under > faults {
            return Err(format!(
                "{what}.under {under} exceeds {what}.faults {faults}"
            ));
        }
        let attainment = slo
            .get_f64("attainment")
            .ok_or_else(|| format!("{what}.attainment missing"))?;
        if !(0.0..=1.0).contains(&attainment) {
            return Err(format!("{what}.attainment {attainment} out of [0, 1]"));
        }
        Ok(())
    }
}

/// One retained worst-fault exemplar: identity, final wait, and the
/// complete event chain (fault window, then follow-on arrivals and
/// stalls), borrowable for attribution or export.
#[derive(Debug, Clone, Copy)]
pub struct Exemplar<'a> {
    /// The faulting node.
    pub node: NodeId,
    /// The faulted page (node-local id).
    pub page: u64,
    /// The faulted subpage.
    pub subpage: u8,
    /// What serviced the fault.
    pub class: FaultClass,
    /// References executed when the fault occurred.
    pub at_ref: u64,
    /// The faulting node's clock at the fault.
    pub fault_at: SimTime,
    /// The fault's window index.
    pub window: u64,
    /// Final wait: restart wait plus stalls that reached the chain.
    pub wait: Duration,
    /// The chain's events, in recording order.
    pub events: &'a [Event],
}

/// A retained (or evicted) chain in the slab.
#[derive(Debug, Clone)]
struct Chain {
    node: NodeId,
    page: u64,
    subpage: u8,
    class: FaultClass,
    at_ref: u64,
    fault_at: SimTime,
    window: u64,
    start_seq: u64,
    wait: Duration,
    arrivals: u32,
    alive: bool,
    events: Vec<Event>,
}

/// The fault currently being staged (its `Restart` not yet seen).
#[derive(Debug, Clone, Copy)]
struct CurMeta {
    node: NodeId,
    page: u64,
    subpage: u8,
    class: FaultClass,
    at_ref: u64,
    at: SimTime,
    /// A restart-wait hint showed the reservoir will drop this fault,
    /// so the rest of its window is not staged.
    doomed: bool,
}

/// The last closed fault on a `(node, page)`: the target for follow-on
/// arrivals and stalls. `window` and `wait` let a late stall adjust the
/// fault's already-folded SLO account in place (wait tally, and the
/// violation count when the stall pushes the wait across the
/// threshold).
#[derive(Debug, Clone, Copy)]
struct Owner {
    chain: Option<usize>,
    window: u64,
    wait: Duration,
}

#[derive(Debug, Clone, Default)]
struct NodeState {
    /// Window the reservoir slots belong to.
    slots_window: u64,
    /// Chain-slab indices of the current window's retained chains.
    slots: Vec<usize>,
    /// Slot position of the cached weakest incumbent of a full
    /// reservoir: minimal by wait, the latest fault among equals.
    /// Invalidated (`None`) whenever the slots or a retained chain's
    /// wait change; recomputed lazily at the next close. The cache
    /// turns the common dropped-candidate close into a single compare
    /// instead of a K-way scan.
    weakest: Option<usize>,
    /// One bit per `page % 64` over every page this node ever retained
    /// a chain for (never cleared within a run: evictions would need a
    /// rebuild across windows, and a stale bit only costs a map probe).
    /// Arrivals test it to skip the owner-map probe when no retained
    /// chain can possibly match.
    page_bloom: u64,
    /// Closed per-window tallies, ascending by window.
    tallies: Vec<WindowTally>,
}

/// The bloom bit for a page id (pages cluster in low bits; fold some
/// high bits in so runs of consecutive pages spread across the word).
#[inline]
fn bloom_bit(page: u64) -> u64 {
    1 << ((page ^ (page >> 6)) & 63)
}

/// A bounded [`Recorder`] retaining complete event chains only for the
/// worst-K faults per node per window, plus SLO tallies over all
/// faults. See the module docs for the retention contract.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    keep: usize,
    window_ns: Option<u64>,
    slo: Option<Duration>,
    seq: u64,
    cur: Option<CurMeta>,
    cur_events: Vec<Event>,
    chains: Vec<Chain>,
    free_events: Vec<Vec<Event>>,
    nodes: Vec<NodeState>,
    owner: OwnerMap,
    total_faults: u64,
    total_wait: Duration,
    dropped: u64,
    sealed: bool,
}

impl FlightRecorder {
    /// A recorder keeping the `keep` worst chains per node per window
    /// (`keep` is clamped to at least 1). No window and no SLO
    /// threshold are configured by default.
    #[must_use]
    pub fn new(keep: usize) -> Self {
        Self {
            keep: keep.max(1),
            window_ns: None,
            slo: None,
            seq: 0,
            cur: None,
            cur_events: Vec::new(),
            chains: Vec::new(),
            free_events: Vec::new(),
            nodes: Vec::new(),
            owner: OwnerMap::default(),
            total_faults: 0,
            total_wait: Duration::ZERO,
            dropped: 0,
            sealed: false,
        }
    }

    /// Partition the run into fixed windows of `window` sim-time; the
    /// reservoir and the SLO tallies are kept per window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn with_window(mut self, window: Duration) -> Self {
        assert!(window > Duration::ZERO, "flight window must be non-zero");
        self.window_ns = Some(window.as_nanos());
        self
    }

    /// Count faults whose final wait exceeds `slo` as violations in
    /// the per-window tallies.
    #[must_use]
    pub fn with_slo(mut self, slo: Duration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The per-node, per-window retention bound K.
    #[must_use]
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// The configured SLO threshold, if any.
    #[must_use]
    pub fn slo(&self) -> Option<Duration> {
        self.slo
    }

    /// The configured window length, if any.
    #[must_use]
    pub fn window(&self) -> Option<Duration> {
        self.window_ns.map(Duration::from_nanos)
    }

    /// Window index of a fault time.
    fn window_of(&self, at: SimTime) -> u64 {
        self.window_ns.map_or(0, |w| at.as_nanos() / w)
    }

    fn node_state(&mut self, node: u32) -> &mut NodeState {
        let n = node as usize;
        if self.nodes.len() <= n {
            self.nodes.resize_with(n + 1, NodeState::default);
        }
        &mut self.nodes[n]
    }

    /// The tally slot for `(node, window)`. Tallies are pushed in
    /// ascending window order (node clocks are monotone); the binary
    /// search handles late finalizations landing in older windows.
    fn tally_mut(&mut self, node: u32, window: u64) -> &mut WindowTally {
        let ns = self.node_state(node);
        let pos = match ns.tallies.binary_search_by_key(&window, |t| t.window) {
            Ok(pos) => pos,
            Err(pos) => {
                ns.tallies.insert(
                    pos,
                    WindowTally {
                        window,
                        ..WindowTally::default()
                    },
                );
                pos
            }
        };
        &mut ns.tallies[pos]
    }

    /// A fresh (cleared) event buffer, reusing the free pool.
    fn fresh_buffer(&mut self) -> Vec<Event> {
        self.free_events.pop().map_or_else(Vec::new, |mut v| {
            v.clear();
            v
        })
    }

    /// The weakest incumbent of `node`'s full reservoir as `(slot
    /// position, chain index)`: smallest wait, newest first (so ties
    /// keep the earlier fault). Served from the cache when nothing
    /// invalidated it.
    fn weakest(&mut self, node: usize) -> (usize, usize) {
        let ns = &self.nodes[node];
        let pos = match ns.weakest {
            Some(pos) => pos,
            None => {
                let pos = (0..ns.slots.len())
                    .min_by_key(|&pos| {
                        let c = &self.chains[ns.slots[pos]];
                        (c.wait, std::cmp::Reverse(c.start_seq))
                    })
                    .expect("full reservoir has a minimum");
                self.nodes[node].weakest = Some(pos);
                pos
            }
        };
        (pos, self.nodes[node].slots[pos])
    }

    /// Whether events of the open fault window are being staged.
    fn staging(&self) -> bool {
        self.cur.is_some_and(|m| !m.doomed)
    }

    /// Close the staged fault at its restart.
    fn close(&mut self, restart_wait: Duration) {
        let m = self.cur.take().expect("close without an open fault");
        self.seq += 1;
        let seq = self.seq;
        self.total_faults += 1;
        // Fold the fault into the SLO accounts now; a later stall
        // adjusts the account through the owner entry rather than
        // deferring the whole fold to displacement or seal.
        self.total_wait += restart_wait;
        let node = m.node.index();
        let w = self.window_of(m.at);
        let over = self.slo.is_some_and(|slo| restart_wait > slo);
        let tally = self.tally_mut(node, w);
        tally.faults += 1;
        tally.wait += restart_wait;
        if over {
            tally.violations += 1;
        }

        // Reservoir decision: is this chain one of the window's worst?
        let ns = self.node_state(node);
        if ns.slots_window != w {
            ns.slots.clear();
            ns.weakest = None;
            ns.slots_window = w;
        }
        let keep = self.keep;
        let evict = if self.nodes[node as usize].slots.len() < keep {
            None
        } else {
            let slot = self.weakest(node as usize);
            if self.chains[slot.1].wait < restart_wait {
                Some(slot)
            } else {
                // Strictly-greater rule: ties keep the incumbent.
                self.dropped += 1;
                self.cur_events.clear();
                self.owner.insert(
                    (node, m.page),
                    Owner {
                        chain: None,
                        window: w,
                        wait: restart_wait,
                    },
                );
                return;
            }
        };

        let buffer = self.fresh_buffer();
        let events = std::mem::replace(&mut self.cur_events, buffer);
        let idx = self.chains.len();
        self.chains.push(Chain {
            node: m.node,
            page: m.page,
            subpage: m.subpage,
            class: m.class,
            at_ref: m.at_ref,
            fault_at: m.at,
            window: w,
            start_seq: seq,
            wait: restart_wait,
            arrivals: 0,
            alive: true,
            events,
        });
        match evict {
            Some((pos, old)) => {
                self.chains[old].alive = false;
                let recycled = std::mem::take(&mut self.chains[old].events);
                self.free_events.push(recycled);
                self.nodes[node as usize].slots[pos] = idx;
            }
            None => self.nodes[node as usize].slots.push(idx),
        }
        let ns = &mut self.nodes[node as usize];
        ns.weakest = None;
        ns.page_bloom |= bloom_bit(m.page);
        self.owner.insert(
            (node, m.page),
            Owner {
                chain: Some(idx),
                window: w,
                wait: restart_wait,
            },
        );
    }

    /// Mark recording done, allowing tallies and run totals to be read;
    /// recording after sealing is a logic error. Idempotent. (The SLO
    /// accounts are maintained incrementally — at fault close, adjusted
    /// by stalls — so sealing only closes the stream: it discards a
    /// fault left open mid-window, whose chain never became a
    /// candidate.)
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        self.cur = None;
        self.cur_events.clear();
    }

    /// Faults observed, retained or not.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.total_faults
    }

    /// Sum of every fault's final wait (restart wait plus stalls) —
    /// equals the engine's `sp_latency + page_wait` for the recorded
    /// run, which the explain path cross-checks. Requires [`seal`].
    ///
    /// # Panics
    ///
    /// Panics if the recorder is not sealed.
    ///
    /// [`seal`]: FlightRecorder::seal
    #[must_use]
    pub fn total_wait(&self) -> Duration {
        assert!(
            self.sealed,
            "seal() the flight recorder before reading totals"
        );
        self.total_wait
    }

    /// Candidates dropped by the reservoir (their events discarded).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained chains.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.chains.iter().filter(|c| c.alive).count()
    }

    /// Total events held by retained chains — the O(K) bound the
    /// recorder exists for.
    #[must_use]
    pub fn retained_events(&self) -> usize {
        self.chains
            .iter()
            .filter(|c| c.alive)
            .map(|c| c.events.len())
            .sum()
    }

    /// The retained exemplars, worst first (wait descending, then
    /// fault order), across all nodes and windows.
    #[must_use]
    pub fn exemplars(&self) -> Vec<Exemplar<'_>> {
        let mut alive: Vec<&Chain> = self.chains.iter().filter(|c| c.alive).collect();
        alive.sort_by_key(|c| (std::cmp::Reverse(c.wait), c.start_seq));
        alive
            .into_iter()
            .map(|c| Exemplar {
                node: c.node,
                page: c.page,
                subpage: c.subpage,
                class: c.class,
                at_ref: c.at_ref,
                fault_at: c.fault_at,
                window: c.window,
                wait: c.wait,
                events: &c.events,
            })
            .collect()
    }

    /// The retained chains flattened into one event stream, chains in
    /// fault order, each chain a contiguous block (fault window, then
    /// its arrivals and stalls). The stream is a valid
    /// [`attribute`](crate::attribute) input: per-fault decompositions
    /// and conservation checks hold exactly as they do on the full
    /// stream — only run-total conservation (which needs *every*
    /// fault) does not apply to the subset.
    #[must_use]
    pub fn exemplar_events(&self) -> Vec<Event> {
        let mut alive: Vec<&Chain> = self.chains.iter().filter(|c| c.alive).collect();
        alive.sort_by_key(|c| c.start_seq);
        let mut out = Vec::with_capacity(alive.iter().map(|c| c.events.len()).sum());
        for c in alive {
            out.extend_from_slice(&c.events);
        }
        out
    }

    /// Per-node SLO tallies, ascending by window, skipping nodes that
    /// never faulted. Requires [`seal`].
    ///
    /// # Panics
    ///
    /// Panics if the recorder is not sealed.
    ///
    /// [`seal`]: FlightRecorder::seal
    pub fn windows(&self) -> impl Iterator<Item = (NodeId, &[WindowTally])> + '_ {
        assert!(
            self.sealed,
            "seal() the flight recorder before reading tallies"
        );
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, ns)| !ns.tallies.is_empty())
            .map(|(n, ns)| (NodeId::new(n as u32), ns.tallies.as_slice()))
    }

    /// Forget everything but keep the allocated buffers (chains slab,
    /// free pool), so a recorder reused across runs reaches a steady
    /// state where only chain retention allocates.
    pub fn clear(&mut self) {
        self.seq = 0;
        self.cur = None;
        self.cur_events.clear();
        for chain in &mut self.chains {
            if chain.alive {
                let mut events = std::mem::take(&mut chain.events);
                events.clear();
                self.free_events.push(events);
            }
        }
        self.chains.clear();
        self.nodes.clear();
        self.owner.clear();
        self.total_faults = 0;
        self.total_wait = Duration::ZERO;
        self.dropped = 0;
        self.sealed = false;
    }
}

impl FlightRecorder {
    /// `Fault`: open a staging window. A still-open chain here would
    /// mean a malformed stream; restart staging rather than corrupting
    /// it. Outlined: per fault, not per event — keeping these handlers
    /// out of [`Recorder::record`] lets the dispatcher inline into
    /// every engine call site, where the variant match folds away; they
    /// take destructured scalars (register arguments) rather than a
    /// by-value [`Event`] so the call does not copy 56 bytes per
    /// lifecycle event.
    #[inline(never)]
    fn on_fault(&mut self, m: CurMeta) {
        self.cur_events.clear();
        self.cur = Some(m);
        self.cur_events.push(Event::Fault {
            node: m.node,
            page: m.page,
            subpage: m.subpage,
            class: m.class,
            at_ref: m.at_ref,
            at: m.at,
        });
    }

    /// Restart-wait hint: when the open fault's node already holds a
    /// full reservoir for the fault's window whose weakest wait is at
    /// least `wait`, [`close`](Self::close) will drop the fault, so its
    /// staged events are discarded now and the rest of the window is
    /// not staged. (Waits only grow until the close, so the weakest
    /// cannot fall below `wait` in between.)
    #[inline(never)]
    fn on_restart_wait_hint(&mut self, wait: Duration) {
        let Some(m) = self.cur else {
            return;
        };
        let node = m.node.index() as usize;
        let w = self.window_of(m.at);
        let full = self
            .nodes
            .get(node)
            .is_some_and(|ns| ns.slots_window == w && ns.slots.len() >= self.keep);
        if !full {
            return;
        }
        let (_, weakest) = self.weakest(node);
        if self.chains[weakest].wait >= wait {
            self.cur = Some(CurMeta { doomed: true, ..m });
            self.cur_events.clear();
        }
    }

    /// `Restart`: close the staging window into a reservoir candidate.
    #[inline(never)]
    fn on_restart(&mut self, node: NodeId, page: u64, at: SimTime, wait: Duration) {
        if self.cur.is_some_and(|m| m.node == node && m.page == page) {
            self.cur_events.push(Event::Restart {
                node,
                page,
                at,
                wait,
            });
            self.close(wait);
        }
    }

    /// `Arrival`: attach to the retained chain of the last fault on
    /// this `(node, page)`, if it survived. The dispatcher's bloom gate
    /// has already ruled out nodes with no retained chain for the page.
    #[inline(never)]
    fn on_arrival(&mut self, node: NodeId, page: u64, msg: u8, at: SimTime, subpages: u32) {
        if let Some(o) = self.owner.get(&(node.index(), page)) {
            if let Some(ci) = o.chain {
                let c = &mut self.chains[ci];
                if c.alive {
                    c.events.push(Event::Arrival {
                        node,
                        page,
                        msg,
                        at,
                        subpages,
                    });
                    c.arrivals += 1;
                }
            }
        }
    }

    /// `Stall`: bump the owning fault's final wait (SLO accounting over
    /// all faults), and the retained chain's, if any.
    #[inline(never)]
    fn on_stall(&mut self, node: NodeId, page: u64, start: SimTime, end: SimTime) {
        let d = end.elapsed_since(start);
        let Some(o) = self.owner.get_mut(&(node.index(), page)) else {
            return;
        };
        let was = o.wait;
        o.wait += d;
        let (owner_node, window, chain) = (node.index(), o.window, o.chain);
        // Adjust the owning fault's already-folded SLO account: the
        // stall extends its wait, and counts as a (new) violation only
        // when it pushes the wait across the threshold.
        self.total_wait += d;
        let crossed = self.slo.is_some_and(|slo| was <= slo && was + d > slo);
        let tally = self.tally_mut(owner_node, window);
        tally.wait += d;
        if crossed {
            tally.violations += 1;
        }
        if let Some(ci) = chain {
            let c = &mut self.chains[ci];
            // Only chains that emitted arrivals can anchor a stall
            // in the attribution walk.
            if c.alive && c.arrivals > 0 {
                c.events.push(Event::Stall {
                    node,
                    page,
                    start,
                    end,
                });
                c.wait += d;
                // The retained chain's wait grew, so the cached
                // weakest slot of its node may be stale.
                self.nodes[owner_node as usize].weakest = None;
            }
        }
    }
}

impl Recorder for FlightRecorder {
    const ENABLED: bool = true;

    // The dispatcher must stay small enough to inline into every
    // monomorphized engine call site: there the event variant is a
    // compile-time constant, so the match folds to the one relevant
    // arm and the dominant case — an in-window event staged, or a
    // background event discarded — costs a flag test and a push
    // instead of an outlined call moving the event by value.
    #[inline(always)]
    fn record(&mut self, event: Event) {
        match event {
            Event::Fault {
                node,
                page,
                subpage,
                class,
                at_ref,
                at,
            } => self.on_fault(CurMeta {
                node,
                page,
                subpage,
                class,
                at_ref,
                at,
                doomed: false,
            }),
            Event::Restart {
                node,
                page,
                at,
                wait,
            } => self.on_restart(node, page, at, wait),
            Event::Arrival {
                node,
                page,
                msg,
                at,
                subpages,
            } => {
                // Arrivals only ever attach to a retained chain; the
                // bloom rules most of them out with two loads, without
                // even paying the outlined call.
                match self.nodes.get(node.index() as usize) {
                    Some(ns) if ns.page_bloom & bloom_bit(page) != 0 => {
                        self.on_arrival(node, page, msg, at, subpages);
                    }
                    _ => {}
                }
            }
            Event::Stall {
                node,
                page,
                start,
                end,
            } => self.on_stall(node, page, start, end),
            // Everything else (occupancies, getpage, reliability
            // markers, …) belongs to the open fault window, if any;
            // outside a window it is background work the flight
            // recorder does not retain.
            _ => {
                if self.staging() {
                    self.cur_events.push(event);
                }
            }
        }
    }

    /// Occupancy bursts are the catch-all arm in bulk: staged wholesale
    /// into the open window, discarded without one. The single `extend`
    /// reserves once for the whole batch instead of paying a capacity
    /// check per event.
    #[inline]
    fn record_batch(&mut self, events: impl Iterator<Item = Event> + Clone) {
        if self.staging() {
            self.cur_events.extend(events);
        }
    }

    /// Background events, and those of a window a restart-wait hint
    /// doomed, are exactly what the catch-all arm above discards, so
    /// the engine may skip building them.
    #[inline]
    fn wants_background(&self) -> bool {
        self.staging()
    }

    #[inline]
    fn restart_wait_hint(&mut self, wait: Duration) {
        self.on_restart_wait_hint(wait);
    }
}

/// Schema tag of the document [`explain_json`] writes.
pub const EXPLAIN_SCHEMA: &str = "gms-explain/v1";

/// The Table-2 components of an exemplar's wait, in emission order.
/// They sum exactly to its `wait_ns`, which [`check_explain`] verifies.
const EXEMPLAR_COMPONENTS: [&str; 6] = [
    "queue_ns",
    "service_ns",
    "transit_ns",
    "retry_ns",
    "disk_ns",
    "stall_ns",
];

/// The scalar header fields of a `gms-explain/v1` document, bundled
/// so [`explain_json`] stays a renderer rather than a long call.
#[derive(Debug, Clone, Copy)]
pub struct ExplainDoc<'a> {
    /// `"run"` or `"cluster"`.
    pub kind: &'static str,
    /// The fetch policy's label.
    pub policy: &'a str,
    /// The memory configuration's label.
    pub memory: &'a str,
    /// SLO attainment over every fault of the run.
    pub slo: SloTally,
    /// SLO attainment per fault class label, in first-seen order.
    pub classes: &'a [(&'static str, SloTally)],
}

/// Renders the `gms-explain/v1` document: totals, far-tail
/// percentiles, SLO attainment (overall, per class, per node/window),
/// and one entry per exemplar whose six Table-2 `components` sum exactly
/// to its `wait_ns`.
#[must_use]
pub fn explain_json(
    doc: &ExplainDoc<'_>,
    decomposed: &[(&Exemplar<'_>, &FaultAttribution)],
    flight: &FlightRecorder,
    sketch: &QuantileSketch,
) -> String {
    let mut s = format!(
        "{{\"schema\":\"{EXPLAIN_SCHEMA}\",\"kind\":\"{}\",\"policy\":\"{}\",\"memory\":\"{}\",\
         \"worst\":{},\"window_ns\":{},\"totals\":{{\"faults\":{},\"wait_ns\":{},\
         \"retained\":{},\"retained_events\":{},\"dropped\":{}}},\"tail\":{},\"slo\":{}",
        doc.kind,
        escape_json(doc.policy),
        escape_json(doc.memory),
        flight.keep(),
        flight
            .window()
            .map_or("null".to_owned(), |w| w.as_nanos().to_string()),
        doc.slo.faults,
        flight.total_wait().as_nanos(),
        decomposed.len(),
        flight.retained_events(),
        flight.dropped(),
        tail_json(sketch),
        doc.slo.to_json(),
    );
    let classes: Vec<String> = doc
        .classes
        .iter()
        .map(|(label, t)| {
            format!(
                "{{\"class\":\"{label}\",\"faults\":{},\"under\":{}}}",
                t.faults, t.under
            )
        })
        .collect();
    let _ = write!(s, ",\"classes\":[{}]", classes.join(","));
    let nodes: Vec<String> = flight
        .windows()
        .map(|(node, windows)| {
            let faults: u64 = windows.iter().map(|w| w.faults).sum();
            let violations: u64 = windows.iter().map(|w| w.violations).sum();
            let wait: Duration = windows.iter().map(|w| w.wait).sum();
            let rendered: Vec<String> = windows
                .iter()
                .map(|w| {
                    format!(
                        "{{\"window\":{},\"faults\":{},\"violations\":{},\"wait_ns\":{}}}",
                        w.window,
                        w.faults,
                        w.violations,
                        w.wait.as_nanos()
                    )
                })
                .collect();
            format!(
                "{{\"node\":{},\"faults\":{faults},\"violations\":{violations},\
                 \"wait_ns\":{},\"windows\":[{}]}}",
                node.index(),
                wait.as_nanos(),
                rendered.join(",")
            )
        })
        .collect();
    let _ = write!(s, ",\"nodes\":[{}]", nodes.join(","));
    let rendered: Vec<String> = decomposed
        .iter()
        .enumerate()
        .map(|(rank, (ex, f))| {
            let values = [
                f.queue_total(),
                f.service_total(),
                f.transit,
                f.retry_wait,
                f.disk_service,
                f.stall_wait,
            ];
            let components: Vec<String> = EXEMPLAR_COMPONENTS
                .iter()
                .zip(values)
                .map(|(key, v)| format!("\"{key}\":{}", v.as_nanos()))
                .collect();
            format!(
                "{{\"rank\":{},\"node\":{},\"page\":{},\"subpage\":{},\"class\":\"{}\",\
                 \"at_ref\":{},\"fault_at_ns\":{},\"window\":{},\"wait_ns\":{},\"hops\":{},\
                 \"components\":{{{}}}}}",
                rank + 1,
                ex.node.index(),
                ex.page,
                ex.subpage,
                ex.class.label(),
                ex.at_ref,
                ex.fault_at.as_nanos(),
                ex.window,
                ex.wait.as_nanos(),
                f.hops.len(),
                components.join(",")
            )
        })
        .collect();
    let _ = write!(s, ",\"exemplars\":[{}]}}", rendered.join(","));
    s
}

/// Checks a `gms-explain/v1` document: a valid SLO object, per-node
/// tallies that partition the totals, one exemplar per retained chain,
/// and each exemplar's six Table-2 `components` summing to its wait.
/// Returns `"{retained} of {faults} faults retained, conserved"`.
pub fn check_explain(doc: &JsonValue) -> Result<String, String> {
    check_schema(doc, EXPLAIN_SCHEMA)?;
    let totals = doc.get("totals").ok_or("no totals object")?;
    let total_of = |key: &str| {
        totals
            .get_u64(key)
            .ok_or_else(|| format!("totals.{key} missing"))
    };
    let faults = total_of("faults")?;
    let wait = total_of("wait_ns")?;
    let retained = total_of("retained")?;
    SloTally::check(doc.get("slo").ok_or("no slo object")?, "slo")?;
    // Per-node tallies must partition the run's totals: the SLO
    // accounting covers every fault, not just the retained ones.
    let nodes = doc.get_array("nodes").ok_or("no nodes array")?;
    let (mut node_faults, mut node_wait) = (0u64, 0u64);
    for (i, n) in nodes.iter().enumerate() {
        let int_of = |key: &str| {
            n.get_u64(key)
                .ok_or_else(|| format!("node {i} missing integer {key}"))
        };
        node_faults += int_of("faults")?;
        int_of("violations")?;
        node_wait += int_of("wait_ns")?;
        let windows = n
            .get_array("windows")
            .ok_or_else(|| format!("node {i} has no windows"))?;
        for (j, w) in windows.iter().enumerate() {
            match (w.get_u64("faults"), w.get_u64("violations")) {
                (Some(wf), Some(wv)) if wv <= wf => {}
                _ => {
                    return Err(format!(
                        "node {i} window {j} has malformed fault/violation counts"
                    ))
                }
            }
        }
    }
    if node_faults != faults || node_wait != wait {
        return Err(format!(
            "node tallies ({node_faults} faults, {node_wait} ns) do not partition \
             totals ({faults} faults, {wait} ns)"
        ));
    }
    // Each exemplar's Table-2 components must sum to its recorded
    // wait, the conservation invariant `explain` promises.
    let list = doc.get_array("exemplars").ok_or("no exemplars array")?;
    if list.len() as u64 != retained {
        return Err(format!(
            "{} exemplars but totals.retained = {retained}",
            list.len()
        ));
    }
    for (i, ex) in list.iter().enumerate() {
        let wait = ex
            .get_u64("wait_ns")
            .ok_or_else(|| format!("exemplar {i} has no wait_ns"))?;
        let components = ex
            .get("components")
            .ok_or_else(|| format!("exemplar {i} has no components"))?;
        let mut sum = 0u64;
        for key in EXEMPLAR_COMPONENTS {
            sum += components
                .get_u64(key)
                .ok_or_else(|| format!("exemplar {i} missing {key}"))?;
        }
        if sum != wait {
            return Err(format!(
                "exemplar {i} components sum to {sum} ns but wait_ns is {wait}"
            ));
        }
    }
    Ok(format!("{retained} of {faults} faults retained, conserved"))
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::attribute;
    use crate::event::ResourceKind;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A minimal remote-fetch chain on `node` for `page`: fault at
    /// `start`, one CPU occupancy covering the window, restart after
    /// `wait_ns`.
    fn fetch(node: u32, page: u64, start: u64, wait_ns: u64) -> Vec<Event> {
        let node = NodeId::new(node);
        vec![
            Event::Fault {
                node,
                page,
                subpage: 0,
                class: FaultClass::Remote,
                at_ref: page,
                at: t(start),
            },
            Event::Occupancy {
                node,
                resource: ResourceKind::Cpu,
                what: "fault+request",
                ready: t(start),
                start: t(start),
                end: t(start + wait_ns),
            },
            Event::Restart {
                node,
                page,
                at: t(start + wait_ns),
                wait: Duration::from_nanos(wait_ns),
            },
        ]
    }

    fn feed(rec: &mut FlightRecorder, events: impl IntoIterator<Item = Event>) {
        for e in events {
            rec.record(e);
        }
    }

    #[test]
    fn retains_worst_k_per_node() {
        let mut rec = FlightRecorder::new(2);
        let waits = [500u64, 9_000, 100, 4_000, 7_000];
        let mut clock = 0;
        for (i, &w) in waits.iter().enumerate() {
            feed(&mut rec, fetch(0, i as u64, clock, w));
            clock += w + 10;
        }
        rec.seal();
        assert_eq!(rec.total_faults(), 5);
        assert_eq!(rec.retained(), 2);
        // 100 was dropped at close; 500 and 4000 were retained then
        // evicted by better candidates (not counted as drops).
        assert_eq!(rec.dropped(), 1);
        let ex = rec.exemplars();
        let waits: Vec<u64> = ex.iter().map(|e| e.wait.as_nanos()).collect();
        assert_eq!(waits, [9_000, 7_000], "worst first");
        assert_eq!(
            rec.total_wait(),
            Duration::from_nanos(500 + 9_000 + 100 + 4_000 + 7_000)
        );
    }

    #[test]
    fn strict_improvement_keeps_incumbent_on_ties() {
        let mut rec = FlightRecorder::new(1);
        feed(&mut rec, fetch(0, 1, 0, 1_000));
        feed(&mut rec, fetch(0, 2, 2_000, 1_000));
        rec.seal();
        let ex = rec.exemplars();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].page, 1, "tie keeps the earlier incumbent");
    }

    #[test]
    fn windows_partition_the_reservoir() {
        let mut rec = FlightRecorder::new(1).with_window(Duration::from_nanos(10_000));
        feed(&mut rec, fetch(0, 1, 0, 900)); // window 0
        feed(&mut rec, fetch(0, 2, 1_000, 400)); // window 0, weaker: dropped
        feed(&mut rec, fetch(0, 3, 12_000, 200)); // window 1
        rec.seal();
        let pages: Vec<u64> = rec.exemplars().iter().map(|e| e.page).collect();
        assert_eq!(rec.retained(), 2);
        assert!(pages.contains(&1) && pages.contains(&3), "{pages:?}");
    }

    #[test]
    fn per_node_reservoirs_are_independent() {
        let mut rec = FlightRecorder::new(1);
        feed(&mut rec, fetch(0, 1, 0, 5_000));
        feed(&mut rec, fetch(1, 1, 100, 50));
        feed(&mut rec, fetch(1, 2, 6_000, 80));
        rec.seal();
        let ex = rec.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!((ex[0].node.index(), ex[0].page), (0, 1));
        assert_eq!((ex[1].node.index(), ex[1].page), (1, 2));
    }

    #[test]
    fn exemplar_stream_replays_through_attribute() {
        let mut rec = FlightRecorder::new(2);
        let mut clock = 0;
        for (page, wait) in [(1u64, 3_000u64), (2, 8_000), (3, 500), (4, 6_000)] {
            feed(&mut rec, fetch(0, page, clock, wait));
            clock += wait + 100;
        }
        rec.seal();
        let stream = rec.exemplar_events();
        let report = attribute(&stream).expect("exemplar stream is attributable");
        assert_eq!(report.faults.len(), 2);
        let mut waits: Vec<u64> = report
            .faults
            .iter()
            .map(|f| f.total_wait().as_nanos())
            .collect();
        waits.sort_unstable();
        assert_eq!(waits, [6_000, 8_000]);
        report.check_conserved().expect("per-fault conservation");
    }

    #[test]
    fn arrivals_and_stalls_attach_to_their_chain() {
        let node = NodeId::new(0);
        let mut rec = FlightRecorder::new(1);
        feed(&mut rec, fetch(0, 7, 0, 1_000));
        rec.record(Event::Arrival {
            node,
            page: 7,
            msg: 0,
            at: t(1_500),
            subpages: 0b10,
        });
        rec.record(Event::Stall {
            node,
            page: 7,
            start: t(1_200),
            end: t(1_500),
        });
        rec.seal();
        let ex = rec.exemplars();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].wait, Duration::from_nanos(1_300), "restart + stall");
        assert_eq!(ex[0].events.len(), 5);
        let report = attribute(&rec.exemplar_events()).expect("attributable");
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].total_wait(), Duration::from_nanos(1_300));
        assert_eq!(rec.total_wait(), Duration::from_nanos(1_300));
    }

    #[test]
    fn restart_wait_hint_declines_a_losing_window() {
        let mut rec = FlightRecorder::new(1);
        feed(&mut rec, fetch(0, 1, 0, 5_000));
        let losing = fetch(0, 2, 6_000, 1_000);
        rec.record(losing[0]);
        assert!(rec.wants_background(), "open window is staged");
        rec.restart_wait_hint(Duration::from_nanos(5_000));
        assert!(!rec.wants_background(), "a tie with the weakest loses");
        feed(&mut rec, losing[1..].iter().copied());
        // A winning wait keeps staging.
        let winning = fetch(0, 3, 8_000, 9_000);
        rec.record(winning[0]);
        rec.restart_wait_hint(Duration::from_nanos(9_000));
        assert!(rec.wants_background());
        feed(&mut rec, winning[1..].iter().copied());
        rec.seal();
        assert_eq!(
            (rec.total_faults(), rec.dropped(), rec.retained()),
            (3, 1, 1)
        );
        assert_eq!(rec.exemplars()[0].events.len(), 3, "winner fully staged");
    }

    #[test]
    fn slo_tallies_cover_all_faults() {
        let mut rec = FlightRecorder::new(1)
            .with_slo(Duration::from_nanos(1_000))
            .with_window(Duration::from_nanos(100_000));
        feed(&mut rec, fetch(0, 1, 0, 500));
        feed(&mut rec, fetch(0, 2, 1_000, 2_000)); // violation
        feed(&mut rec, fetch(0, 3, 5_000, 3_000)); // violation
        feed(&mut rec, fetch(0, 4, 150_000, 800)); // window 1, attained
        rec.seal();
        let tallies: Vec<(NodeId, &[WindowTally])> = rec.windows().collect();
        assert_eq!(tallies.len(), 1);
        let (node, windows) = tallies[0];
        assert_eq!(node.index(), 0);
        assert_eq!(windows.len(), 2);
        assert_eq!((windows[0].faults, windows[0].violations), (3, 2));
        assert_eq!((windows[1].faults, windows[1].violations), (1, 0));
        assert_eq!(windows[0].wait, Duration::from_nanos(500 + 2_000 + 3_000));
    }

    #[test]
    fn memory_stays_bounded_by_k() {
        let mut rec = FlightRecorder::new(3);
        let mut clock = 0;
        for i in 0..500u64 {
            // Monotonically-increasing waits: every fault evicts.
            feed(&mut rec, fetch(0, i, clock, 100 + i));
            clock += 1_000 + i;
        }
        rec.seal();
        assert_eq!(rec.retained(), 3);
        assert_eq!(rec.retained_events(), 9, "3 chains x 3 events");
        let waits: Vec<u64> = rec.exemplars().iter().map(|e| e.wait.as_nanos()).collect();
        assert_eq!(waits, [599, 598, 597]);
        assert_eq!(rec.dropped(), 0, "every candidate was retained once");
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut rec = FlightRecorder::new(2).with_slo(Duration::from_nanos(1));
        feed(&mut rec, fetch(0, 1, 0, 5_000));
        rec.seal();
        assert_eq!(rec.retained(), 1);
        rec.clear();
        assert_eq!(rec.total_faults(), 0);
        assert_eq!(rec.retained(), 0);
        feed(&mut rec, fetch(0, 2, 0, 700));
        rec.seal();
        assert_eq!(rec.total_faults(), 1);
        assert_eq!(rec.exemplars()[0].page, 2);
        assert_eq!(rec.total_wait(), Duration::from_nanos(700));
    }

    #[test]
    fn tally_renders_and_checks() {
        let ms = Duration::from_millis(1);
        let tally = SloTally::over(ms, [ms, ms + ms, Duration::ZERO]);
        assert_eq!((tally.faults, tally.under), (3, 2));
        assert_eq!(
            tally.to_json(),
            "{\"threshold_ns\":1000000,\"faults\":3,\"under\":2,\"attainment\":0.666667}"
        );
        let doc = JsonValue::parse(&tally.to_json()).unwrap();
        assert_eq!(SloTally::check(&doc, "slo"), Ok(()));
        assert_eq!(SloTally::new(ms).attainment(), 1.0);
        let bad =
            JsonValue::parse("{\"threshold_ns\":1,\"faults\":1,\"under\":2,\"attainment\":1.0}")
                .unwrap();
        assert_eq!(
            SloTally::check(&bad, "slo"),
            Err("slo.under 2 exceeds slo.faults 1".to_owned())
        );
    }

    /// Spacing of the generated restart waits: every fault waits a
    /// whole number of units, so many faults tie.
    const UNIT: u64 = 10_000;

    /// One generated fault: `(node, page, wait units, follow-on kind,
    /// stall ns, gap before the fault ns)`.
    type FaultSpec = (u32, u64, u64, u8, u64, u64);

    /// A window tally as `(window, faults, violations, wait ns)`.
    type Tally = (u64, u64, u64, u64);

    /// What a sort-everything oracle expects of a recorder fed the
    /// stream: the retained exemplars as `(node, page, window, wait,
    /// events)` worst first, per node the window tallies, and the run's
    /// total wait.
    type Expected = (
        Vec<(u32, u64, u64, u64, Vec<Event>)>,
        BTreeMap<u32, Vec<Tally>>,
        u64,
    );

    /// The event stream of `specs`, plus the oracle's expectation.
    ///
    /// Each fault is a `Fault`, one occupancy and its `Restart`,
    /// followed by its arrivals and stalls before its node's next
    /// fault, as the engine emits them. A candidate is ranked by its
    /// wait at restart (module docs), so a stall that reaches a
    /// retained chain — one after an arrival — must not reorder it:
    /// faults of odd units get an arrival then a stall of `units` ns
    /// (the same for the whole wait class, below the class spacing).
    /// Faults of even units get nothing, an arrival alone, or a stall
    /// alone of any length; a stall without an arrival extends the
    /// fault's SLO account but not its chain.
    fn stream(specs: &[FaultSpec], keep: usize, window: u64, slo: u64) -> (Vec<Event>, Expected) {
        struct Fold {
            node: u32,
            page: u64,
            window: u64,
            seq: usize,
            chain_wait: u64,
            total_wait: u64,
            events: Vec<Event>,
        }
        let mut events = Vec::new();
        let mut faults: Vec<Fold> = Vec::new();
        let mut clocks = [0u64; 3];
        for (seq, &(n, page, units, follow, stall, gap)) in specs.iter().enumerate() {
            let node = NodeId::new(n);
            let at = clocks[n as usize] + gap;
            let wait = units * UNIT;
            let mut chain = fetch(n, page, at, wait);
            chain[0] = Event::Fault {
                node,
                page,
                subpage: 0,
                class: FaultClass::Remote,
                at_ref: seq as u64,
                at: t(at),
            };
            let end = at + wait;
            let arrival = Event::Arrival {
                node,
                page,
                msg: 1,
                at: t(end + 1),
                subpages: 0b10,
            };
            let stall_for = |ns: u64| Event::Stall {
                node,
                page,
                start: t(end),
                end: t(end + ns),
            };
            let (follow_ons, stall_ns) = match (units % 2, follow) {
                (1, _) => (vec![arrival, stall_for(units)], units),
                (_, 0) => (vec![], 0),
                (_, 1) => (vec![arrival], 0),
                _ => (vec![stall_for(stall)], stall),
            };
            events.extend_from_slice(&chain);
            events.extend_from_slice(&follow_ons);
            clocks[n as usize] = end + stall_ns + 2;
            // The chain takes its arrival, and a stall only behind one.
            let chain_stall = if follow_ons.len() == 2 { stall_ns } else { 0 };
            if follow_ons.first() == Some(&arrival) {
                chain.extend_from_slice(&follow_ons);
            }
            faults.push(Fold {
                node: n,
                page,
                window: at / window,
                seq,
                chain_wait: wait + chain_stall,
                total_wait: wait + stall_ns,
                events: chain,
            });
        }

        // Sort everything: per (node, window), the `keep` worst chains,
        // ties kept by the earlier fault.
        let mut groups: BTreeMap<(u32, u64), Vec<&Fold>> = BTreeMap::new();
        for f in &faults {
            groups.entry((f.node, f.window)).or_default().push(f);
        }
        let mut kept: Vec<&Fold> = Vec::new();
        for group in groups.values_mut() {
            group.sort_by_key(|f| (Reverse(f.chain_wait), f.seq));
            kept.extend(group.iter().take(keep));
        }
        kept.sort_by_key(|f| (Reverse(f.chain_wait), f.seq));
        let exemplars = kept
            .iter()
            .map(|f| (f.node, f.page, f.window, f.chain_wait, f.events.clone()))
            .collect();

        let mut tallies: BTreeMap<u32, BTreeMap<u64, Tally>> = BTreeMap::new();
        for f in &faults {
            let tally = tallies
                .entry(f.node)
                .or_default()
                .entry(f.window)
                .or_insert((f.window, 0, 0, 0));
            tally.1 += 1;
            tally.2 += u64::from(f.total_wait > slo);
            tally.3 += f.total_wait;
        }
        let tallies = tallies
            .into_iter()
            .map(|(node, windows)| (node, windows.into_values().collect()))
            .collect();
        let total_wait = faults.iter().map(|f| f.total_wait).sum();
        (events, (exemplars, tallies, total_wait))
    }

    fn arb_fault() -> impl Strategy<Value = FaultSpec> {
        (
            0u32..3,
            0u64..24,
            1u64..6,
            0u8..3,
            1u64..30_000,
            0u64..20_000,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bounded reservoir retains exactly what sorting every
        /// fault would: per node and window, the `keep` worst chains
        /// by final wait, ties kept by the earlier fault — with their
        /// complete event chains — and its SLO tallies and run totals
        /// count every fault.
        #[test]
        fn worst_k_matches_a_sort_everything_oracle(
            specs in prop::collection::vec(arb_fault(), 0..60),
            keep in 1usize..4,
            window in prop_oneof![Just(u64::MAX), 20_000u64..200_000],
            slo_units in 0u64..6,
            hints in prop::bool::ANY,
        ) {
            let slo = slo_units * UNIT + UNIT / 2;
            let (events, (exemplars, tallies, total_wait)) = stream(&specs, keep, window, slo);
            let mut rec = FlightRecorder::new(keep).with_slo(Duration::from_nanos(slo));
            if window != u64::MAX {
                rec = rec.with_window(Duration::from_nanos(window));
            }
            for (i, &event) in events.iter().enumerate() {
                rec.record(event);
                // As the engine does, tell the restart wait before the
                // window's occupancy: a doomed window must drop exactly
                // what the close would have dropped.
                if let (true, Event::Fault { .. }, Some(&Event::Restart { wait, .. })) =
                    (hints, event, events.get(i + 2))
                {
                    rec.restart_wait_hint(wait);
                }
            }
            rec.seal();

            let got: Vec<_> = rec
                .exemplars()
                .iter()
                .map(|e| (e.node.index(), e.page, e.window, e.wait.as_nanos(), e.events.to_vec()))
                .collect();
            prop_assert_eq!(got, exemplars);
            prop_assert_eq!(rec.total_faults(), specs.len() as u64);
            prop_assert_eq!(rec.total_wait(), Duration::from_nanos(total_wait));
            let windows: BTreeMap<u32, Vec<Tally>> = rec
                .windows()
                .map(|(node, ws)| {
                    let ws = ws
                        .iter()
                        .map(|w| (w.window, w.faults, w.violations, w.wait.as_nanos()))
                        .collect();
                    (node.index(), ws)
                })
                .collect();
            prop_assert_eq!(windows, tallies);
        }
    }
}
