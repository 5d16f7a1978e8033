//! The `Recorder` trait and its two standard implementations.

use crate::event::Event;

/// An event sink the simulation engine is generic over.
///
/// The engine guards every recording call site with
/// `if R::ENABLED { ... }`. Because `ENABLED` is an associated *const*,
/// monomorphization resolves the branch at compile time: with
/// [`NoopRecorder`] the guarded blocks — including the work that
/// *builds* the event — are dead code and compile to nothing. This is
/// what makes tracing zero-cost when disabled, and it is why the
/// engine's property tests can demand byte-identical reports with
/// tracing off and on.
pub trait Recorder {
    /// Whether this recorder observes events. Call sites must guard
    /// event construction with `if R::ENABLED` so disabled recorders
    /// pay nothing.
    const ENABLED: bool;

    /// Observe one event. Implementations must not influence the
    /// simulation: a recorder is a write-only side channel.
    fn record(&mut self, event: Event);

    /// Observe a homogeneous batch of occupancy events (the engine's
    /// network sync delivers them in bursts). Semantically identical to
    /// calling [`Recorder::record`] on each event in order — the
    /// default does exactly that — but an implementation whose
    /// occupancy handling is a plain buffer append can override it to
    /// amortize the per-event capacity checks across the batch. Callers
    /// must only pass events the recorder treats uniformly (no
    /// `Fault`/`Restart`/`Arrival`/`Stall` lifecycle edges).
    #[inline]
    fn record_batch(&mut self, events: impl Iterator<Item = Event>) {
        for event in events {
            self.record(event);
        }
    }

    /// Whether the recorder currently wants *background* events —
    /// occupancies that belong to no open fault window (no `Fault`
    /// observed without its matching `Restart`). The engine may skip
    /// constructing and forwarding such events while this returns
    /// `false`, so a recorder returning `false` must already treat them
    /// as discarded: the hint can only elide work, never change what
    /// the recorder retains. Buffering recorders keep the default
    /// `true`; the bounded flight recorder returns `false` between
    /// fault windows, which is most of a run.
    #[inline]
    fn wants_background(&self) -> bool {
        true
    }
}

/// The disabled recorder: `ENABLED = false`, `record` unreachable.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: Event) {}
}

/// Events per arena chunk. Chunks are allocated at full capacity up
/// front and never reallocated, so a push is always a bump-and-write —
/// no grow-and-memcpy of the whole history, which dominated recording
/// overhead with a single flat `Vec` at ~17k events per run.
const CHUNK: usize = 8192;

/// A recorder that buffers every event in memory, in emission order,
/// in a chunked arena (fixed-size chunks, preallocated, never moved).
///
/// [`MemoryRecorder::clear`] retains the allocated chunks, so a
/// recorder reused across runs reaches a steady state where recording
/// performs no allocation at all — profiling loops and benchmarks
/// should reuse one recorder rather than building one per run, which
/// churns the allocator (every run grows the heap by the full event
/// arena and gives it back, paying page faults each time).
#[derive(Debug, Default, Clone)]
pub struct MemoryRecorder {
    chunks: Vec<Vec<Event>>,
    /// Chunks `0..used` hold the recorded events; chunks past `used`
    /// are empty spares retained by `clear` for reuse. `used > 0`
    /// implies at least one event (the count is bumped only when a
    /// push into the chunk follows immediately).
    used: usize,
}

impl MemoryRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in emission order.
    pub fn iter(&self) -> std::iter::Flatten<std::slice::Iter<'_, Vec<Event>>> {
        self.chunks[..self.used].iter().flatten()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        // All used chunks but the last are full by construction.
        match self.used {
            0 => 0,
            used => (used - 1) * CHUNK + self.chunks[used - 1].len(),
        }
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Forget the recorded events but keep the arena's chunks, so the
    /// next recording session allocates nothing until it outgrows the
    /// high-water mark.
    pub fn clear(&mut self) {
        for chunk in &mut self.chunks {
            chunk.clear();
        }
        self.used = 0;
    }

    /// Consume the recorder, yielding the events as one contiguous
    /// vector (the only point where the arena is ever copied).
    #[must_use]
    pub fn into_events(self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in &self.chunks[..self.used] {
            out.extend(chunk);
        }
        out
    }

    /// Opens the next chunk, allocating only past the high-water mark.
    /// Outlined: it runs once per [`CHUNK`] events, and keeping it out
    /// of [`Recorder::record`]'s body leaves the hot path as a bounds
    /// check and a push.
    #[inline(never)]
    fn advance_chunk(&mut self) {
        if self.used == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.used += 1;
    }
}

impl Recorder for MemoryRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, event: Event) {
        if self.used == 0 || self.chunks[self.used - 1].len() == CHUNK {
            self.advance_chunk();
        }
        self.chunks[self.used - 1].push(event);
    }

    /// Occupancy bursts append chunk-wise: one capacity decision per
    /// chunk-sized slice of the batch instead of per event, with the
    /// bulk copy done by `extend` on a `take`-bounded iterator (which
    /// never grows the fixed-capacity chunk). Order and content are
    /// exactly those of per-event [`Recorder::record`] calls.
    #[inline]
    fn record_batch(&mut self, mut events: impl Iterator<Item = Event>) {
        loop {
            if self.used == 0 || self.chunks[self.used - 1].len() == CHUNK {
                // Pull one event before opening a chunk so an exhausted
                // batch never leaves an empty chunk counted as used
                // (`used > 0` must keep implying at least one event).
                let Some(event) = events.next() else { return };
                self.advance_chunk();
                self.chunks[self.used - 1].push(event);
            }
            let chunk = &mut self.chunks[self.used - 1];
            chunk.extend(events.by_ref().take(CHUNK - chunk.len()));
            if chunk.len() < CHUNK {
                // `take` stopped because the batch ran dry, not because
                // the chunk filled: the batch is fully absorbed.
                return;
            }
        }
    }
}

impl<'a> IntoIterator for &'a MemoryRecorder {
    type Item = &'a Event;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Vec<Event>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.chunks[..self.used].iter().flatten()
    }
}

/// `&mut R` forwards to `R`, so a recorder can be lent to an engine
/// run without giving up ownership.
impl<R: Recorder> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }

    #[inline]
    fn record_batch(&mut self, events: impl Iterator<Item = Event>) {
        (**self).record_batch(events);
    }

    #[inline]
    fn wants_background(&self) -> bool {
        (**self).wants_background()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultClass, ResourceKind};
    use gms_units::{NodeId, SimTime};

    fn sample() -> Event {
        Event::Fault {
            node: NodeId::new(0),
            page: 1,
            subpage: 0,
            class: FaultClass::Remote,
            at_ref: 10,
            at: SimTime::from_nanos(120),
        }
    }

    #[test]
    fn memory_recorder_buffers_in_order() {
        let mut rec = MemoryRecorder::new();
        assert!(rec.is_empty());
        rec.record(sample());
        rec.record(Event::Occupancy {
            node: NodeId::new(1),
            resource: ResourceKind::Cpu,
            what: "request",
            ready: SimTime::ZERO,
            start: SimTime::ZERO,
            end: SimTime::from_nanos(50),
        });
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.iter().next().unwrap(), &sample());
        let events = rec.into_events();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn arena_spans_chunk_boundaries_in_order() {
        let mut rec = MemoryRecorder::new();
        let n = CHUNK * 2 + 17;
        for i in 0..n {
            rec.record(Event::Restart {
                node: NodeId::new(0),
                page: i as u64,
                at: SimTime::from_nanos(i as u64),
                wait: gms_units::Duration::ZERO,
            });
        }
        assert_eq!(rec.len(), n);
        for (i, e) in rec.iter().enumerate() {
            match e {
                Event::Restart { page, .. } => assert_eq!(*page, i as u64),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(rec.into_events().len(), n);
    }

    #[test]
    fn clear_retains_chunks_and_reuses_them() {
        let mut rec = MemoryRecorder::new();
        let n = CHUNK + 3;
        for _ in 0..n {
            rec.record(sample());
        }
        assert_eq!(rec.len(), n);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.iter().count(), 0);
        // Refill past the old high-water mark: order and count survive
        // the round trip through retained chunks.
        for i in 0..(2 * CHUNK + 5) {
            rec.record(Event::Restart {
                node: NodeId::new(0),
                page: i as u64,
                at: SimTime::from_nanos(i as u64),
                wait: gms_units::Duration::ZERO,
            });
        }
        assert_eq!(rec.len(), 2 * CHUNK + 5);
        for (i, e) in rec.iter().enumerate() {
            match e {
                Event::Restart { page, .. } => assert_eq!(*page, i as u64),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    /// `record_batch` is byte-equivalent to per-event `record` across
    /// every chunk-boundary alignment: batches that start mid-chunk,
    /// fill a chunk exactly, span several chunks, or are empty.
    #[test]
    fn record_batch_matches_per_event_recording() {
        for (prefill, batch) in [
            (0, 0),
            (0, 1),
            (0, CHUNK),
            (0, CHUNK + 1),
            (0, 3 * CHUNK + 17),
            (5, CHUNK - 5),
            (5, CHUNK),
            (CHUNK - 1, 2),
            (CHUNK, CHUNK),
        ] {
            let event_at = |i: usize| Event::Restart {
                node: NodeId::new(0),
                page: i as u64,
                at: SimTime::from_nanos(i as u64),
                wait: gms_units::Duration::ZERO,
            };
            let mut batched = MemoryRecorder::new();
            let mut serial = MemoryRecorder::new();
            for i in 0..prefill {
                batched.record(event_at(i));
                serial.record(event_at(i));
            }
            batched.record_batch((prefill..prefill + batch).map(event_at));
            for i in prefill..prefill + batch {
                serial.record(event_at(i));
            }
            assert_eq!(
                batched.len(),
                prefill + batch,
                "prefill={prefill} batch={batch}"
            );
            assert_eq!(
                batched.into_events(),
                serial.into_events(),
                "prefill={prefill} batch={batch}"
            );
        }
    }

    #[test]
    fn empty_batch_on_empty_recorder_stays_empty() {
        let mut rec = MemoryRecorder::new();
        rec.record_batch(std::iter::empty());
        assert!(rec.is_empty());
        assert_eq!(rec.len(), 0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn noop_is_disabled() {
        assert!(!NoopRecorder::ENABLED);
        assert!(MemoryRecorder::ENABLED);
        let mut rec = NoopRecorder;
        rec.record(sample());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn mut_ref_forwards() {
        let mut rec = MemoryRecorder::new();
        {
            let mut lent = &mut rec;
            assert!(<&mut MemoryRecorder as Recorder>::ENABLED);
            // Route through the forwarding impl, not auto-deref.
            <&mut MemoryRecorder as Recorder>::record(&mut lent, sample());
        }
        assert_eq!(rec.len(), 1);
    }
}
