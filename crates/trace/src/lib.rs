//! # fasda-trace
//!
//! Cycle-level flight recorder for the FASDA simulator.
//!
//! Three layers, dependency-free by design (the workspace has no real
//! serde — `shims/serde` is a marker-trait stand-in):
//!
//! * **Events** ([`TraceEvent`]/[`EventKind`]): structured per-node
//!   records — phase begin/end, chained-sync marker handshakes, packet
//!   send/deliver, PE dispatch/eject activity, injected straggler stalls
//!   — stamped in **global cluster cycles**, so every engine
//!   configuration (serial oracle, chip-crew two-phase tick, fast-forward)
//!   emits byte-identical per-node streams. Engine-level events
//!   (fast-forward jumps) live in a
//!   separate stream because they describe how the *simulator* ran, not
//!   what the *simulated machine* did.
//! * **Stall attribution** ([`StallLedger`]/[`StallCause`]): every idle
//!   force-phase cycle of every node classified into
//!   `wait-neighbor-sync | ring-backpressure | tx-cooldown |
//!   filter-starved | drained | injected | retransmit | wait-ack`,
//!   rolled up per (node, step).
//!   The invariant `productive + stalled == force_cycles` holds exactly
//!   per step.
//! * **Exporters**: [`chrome::chrome_trace`] renders a Perfetto-loadable
//!   Chrome trace-event JSON (one process per node, one track per event
//!   class); [`json::Json`] is the shared machine-readable JSON
//!   writer/parser the bench and report emitters build on.
//!
//! Recording is zero-cost when disabled: [`NodeRecorder::enabled`] and
//! [`NodeRecorder::wants`] are inlined flag tests, so hot paths guard
//! event construction behind them and a disabled recorder never
//! allocates.

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod stall;

pub use chrome::chrome_trace;
pub use event::{ChannelId, EventKind, PhaseId, TraceEvent};
pub use json::Json;
pub use metrics::{provenance_json, stall_json, trace_summary_json, trace_summary_json_with};
pub use stall::{StallCause, StallLedger, StepStalls};

use std::collections::VecDeque;

/// How much the recorder captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceLevel {
    /// Record nothing; every recorder operation is a no-op.
    Off,
    /// Driver-level events: phases, sync handshakes, packets, stalls.
    Sync,
    /// `Sync` plus chip-internal PE dispatch/eject activity per cycle.
    Full,
}

impl TraceLevel {
    /// Ordering test without deriving `Ord` on a semantic enum.
    #[inline]
    pub fn at_least(self, other: TraceLevel) -> bool {
        (self as u8) >= (other as u8)
    }
}

/// Recorder configuration, resolved at `Cluster` construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Capture level.
    pub level: TraceLevel,
    /// Ring-buffer capacity per node stream; the oldest events are
    /// dropped (and counted) once a stream overflows.
    pub capacity: usize,
}

impl TraceConfig {
    /// Default per-node ring capacity.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Tracing disabled.
    pub const OFF: TraceConfig = TraceConfig {
        level: TraceLevel::Off,
        capacity: 0,
    };

    /// Driver-level tracing with the default ring capacity.
    pub fn sync() -> Self {
        TraceConfig {
            level: TraceLevel::Sync,
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Full tracing (including PE activity) with the default capacity.
    pub fn full() -> Self {
        TraceConfig {
            level: TraceLevel::Full,
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Override the per-node ring capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::OFF
    }
}

/// One finished event stream: what a [`NodeRecorder`] captured.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeStream {
    /// Events in emission order (oldest may have been dropped).
    pub events: Vec<TraceEvent>,
    /// Events dropped to ring-buffer overflow.
    pub dropped: u64,
}

/// Bounded per-node event recorder.
///
/// The `Off` recorder is a zero-capacity no-op; hot paths check
/// [`NodeRecorder::enabled`]/[`NodeRecorder::wants`] (inlined flag
/// tests) before building event payloads, so disabled tracing costs one
/// predictable branch.
#[derive(Clone, Debug)]
pub struct NodeRecorder {
    level: TraceLevel,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl NodeRecorder {
    /// A disabled recorder (no allocation).
    pub const fn off() -> Self {
        NodeRecorder {
            level: TraceLevel::Off,
            capacity: 0,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A recorder for a configuration (disabled when `cfg.level` is
    /// `Off`).
    pub fn new(cfg: TraceConfig) -> Self {
        if cfg.level == TraceLevel::Off {
            return Self::off();
        }
        NodeRecorder {
            level: cfg.level,
            capacity: cfg.capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Whether any recording is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// Whether events of the given level are recorded.
    #[inline]
    pub fn wants(&self, level: TraceLevel) -> bool {
        self.level != TraceLevel::Off && self.level.at_least(level)
    }

    /// Capture level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Record one event at a global cycle. No-op when disabled; drops
    /// the oldest event (counting it) when the ring is full.
    #[inline]
    pub fn push(&mut self, cycle: u64, kind: EventKind) {
        if self.level == TraceLevel::Off {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { cycle, kind });
    }

    /// Events dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded (or recording is off).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drain the captured stream, resetting the recorder for the next
    /// window (level and capacity are kept).
    pub fn take(&mut self) -> NodeStream {
        NodeStream {
            events: std::mem::take(&mut self.events).into(),
            dropped: std::mem::take(&mut self.dropped),
        }
    }
}

impl Default for NodeRecorder {
    fn default() -> Self {
        Self::off()
    }
}

/// A complete captured run: per-node streams, the engine stream, and
/// the stall ledger.
///
/// Per-node streams and the ledger are engine-invariant (byte-identical
/// across the serial oracle and every optimized engine); the `engine`
/// stream records how the simulator itself executed (fast-forward
/// jumps) and legitimately differs between engines.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Capture level the run used.
    pub level: Option<TraceLevel>,
    /// One stream per node, in node order.
    pub nodes: Vec<NodeStream>,
    /// Simulator-level events (fast-forward jumps), not part of the
    /// deterministic per-node record.
    pub engine: NodeStream,
    /// Per-(node, step) stall attribution.
    pub stalls: StallLedger,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_is_inert() {
        let mut r = NodeRecorder::off();
        assert!(!r.enabled());
        assert!(!r.wants(TraceLevel::Sync));
        r.push(3, EventKind::StepDone { step: 0 });
        assert!(r.is_empty());
        assert_eq!(r.take(), NodeStream::default());
    }

    #[test]
    fn levels_nest() {
        let sync = NodeRecorder::new(TraceConfig::sync());
        assert!(sync.wants(TraceLevel::Sync));
        assert!(!sync.wants(TraceLevel::Full));
        let full = NodeRecorder::new(TraceConfig::full());
        assert!(full.wants(TraceLevel::Sync));
        assert!(full.wants(TraceLevel::Full));
    }

    #[test]
    fn ring_drops_oldest() {
        let mut r = NodeRecorder::new(TraceConfig::sync().with_capacity(2));
        for step in 0..5 {
            r.push(step, EventKind::StepDone { step });
        }
        let s = r.take();
        assert_eq!(s.dropped, 3);
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].cycle, 3);
        assert_eq!(s.events[1].cycle, 4);
        // the recorder is reusable after take()
        r.push(9, EventKind::StepDone { step: 9 });
        let s2 = r.take();
        assert_eq!(s2.dropped, 0);
        assert_eq!(s2.events.len(), 1);
    }
}
