//! Sharded multi-process cycle engine (DESIGN.md §11).
//!
//! Partitions the simulated hyper-ring nodes into `S` contiguous shards,
//! each owned by a **worker** running the ordinary [`Cluster`] engine
//! over its slice, and reproduces the in-process oracle bit for bit:
//! same particle state, same flight-recorder streams, same folded
//! report, same checkpoint files.
//!
//! ## Why this is exact, not approximate
//!
//! The oracle's cycle loop is already two-phase: a compute phase in
//! which every chip ticks against frozen state, then serial exchange /
//! network / delivery sweeps. Cross-node influence flows **only**
//! through the switch fabrics and inboxes, and every message generated
//! at cycle `T` is due no earlier than `T + 2` (≥1 cycle of port
//! serialization plus the store-and-forward hop, observed next
//! delivery sweep). A worker can therefore run the whole cycle `T`
//! locally and admit *remote* traffic after the fact, as long as
//! admission replays the oracle's global order. That order is
//! `(stage, src)` — stage 0 for fresh sends, 1 for retransmissions, 2
//! for acks, each phase walking nodes in ascending order — which is
//! exactly how [`Cluster::admit_wire_events`] sorts the concatenated
//! per-shard buffers. Destination-port contention clocks and inbox
//! sequence numbers come out identical, so everything downstream does
//! too.
//!
//! ## Per-cycle frame protocol
//!
//! Workers are fully connected (one [`FrameLink`] per unordered pair;
//! Unix-domain sockets between processes, socketpairs between harness
//! threads). Every global cycle each worker:
//!
//! 1. checks the crash directive (owner only) and, if it fires,
//!    broadcasts a *crash* frame A so every worker fails identically;
//! 2. runs compute → exchange → network locally, then broadcasts frame
//!    **A**: the stage-0/1 wire events its nodes put on the fabric;
//! 3. merges all frames A and admits them, runs the delivery sweep,
//!    then broadcasts frame **B**: stage-2 acks plus the `stepped` /
//!    `delivered` / `done` flags and its packets-lost delta;
//! 4. merges all frames B, admits the acks, combines the flags
//!    (OR / OR / AND) and reconciles the global lost tally;
//! 5. when (and only when) the globally-agreed deadlock or
//!    fast-forward scan fires, broadcasts frame **C**: its local event
//!    horizon; the combined horizon drives an identical jump — or
//!    proves a global deadlock — on every worker.
//!
//! Every branch above is a function of globally-agreed values, so the
//! workers stay in lockstep without a central sequencer; the barrier is
//! the frame exchange itself.
//!
//! ## Coordinator
//!
//! The coordinator never simulates. It drives checkpoint-sized
//! segments ([`run_with_checkpoints`]'s loop verbatim), collects each
//! worker's segment result — records, stats, traffic, trace slices and
//! a full state container — and *splices* the owned slices into its
//! replica [`Cluster`]. Scalar tallies shared across shards (fabric
//! packet/bit/lost counters, fault and ack counts) are reconciled as
//! `base + Σ deltas`; per-link counters travel inside the spliced maps.
//! The replica is then bit-identical to an in-process cluster at the
//! same step boundary, which is what makes quiescent-step checkpoints —
//! and `--resume` across a *different* shard count — work unchanged.

use crate::ckpt::{save_checkpoint, CheckpointConfig, RunAccumulator};
use crate::crew::{self, Crew};
use crate::driver::{
    sections, Cluster, ClusterConfig, ClusterError, ClusterStalled, CrashInjected,
    DeadlockDetected, EngineConfig, ExchangeBuf, NextEvent, NodePhase, WireEvent,
    DEADLOCK_SCAN_INTERVAL, MAX_RUN_CYCLES,
};
use crate::obs::{FleetBeat, FleetObs, ObsDelta, ObsSinkConfig};
use crate::report::{ClusterRunReport, NodeStepReport, RelSummary};
use fasda_obs::model::STALL_CLASSES;
use std::collections::BTreeMap;
use fasda_ckpt::{crc32, CkptError, Container, ContainerWriter, Persist, Reader, Writer};
use fasda_net::sync::SyncMode;
use fasda_net::transport::{FrameLink, LinkError, MemLink, SocketLink, TcpLink};
use fasda_sim::StatSet;
use fasda_trace::{NodeStream, StallLedger, Trace, TraceLevel};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use fasda_core::timed::TrafficCounters;
use fasda_md::system::ParticleSystem;

/// Section label stamped on every shard frame (error messages only).
const FRAME: &str = "shard-frame";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a sharded run failed.
#[derive(Debug)]
pub enum ShardError {
    /// The simulation itself failed (stall / deadlock / injected crash)
    /// — same vocabulary as the in-process engine.
    Cluster(ClusterError),
    /// Checkpoint or frame (de)serialization failed.
    Ckpt(CkptError),
    /// A shard link failed mid-exchange (worker death, torn frame).
    Link(LinkError),
    /// Socket setup / process spawning failed.
    Io(std::io::Error),
    /// A peer sent a frame the protocol does not allow here.
    Protocol(String),
    /// The configuration cannot be sharded (see [`validate_sharding`]).
    Unsupported(String),
    /// A worker reported a transport-level failure.
    Worker(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Cluster(e) => write!(f, "sharded run failed: {e}"),
            ShardError::Ckpt(e) => write!(f, "shard checkpoint error: {e}"),
            ShardError::Link(e) => write!(f, "shard link error: {e}"),
            ShardError::Io(e) => write!(f, "shard I/O error: {e}"),
            ShardError::Protocol(m) => write!(f, "shard protocol error: {m}"),
            ShardError::Unsupported(m) => write!(f, "sharding unsupported: {m}"),
            ShardError::Worker(m) => write!(f, "shard worker failed: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<ClusterError> for ShardError {
    fn from(e: ClusterError) -> Self {
        ShardError::Cluster(e)
    }
}
impl From<CkptError> for ShardError {
    fn from(e: CkptError) -> Self {
        ShardError::Ckpt(e)
    }
}
impl From<LinkError> for ShardError {
    fn from(e: LinkError) -> Self {
        ShardError::Link(e)
    }
}
impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Partitioning and validation
// ---------------------------------------------------------------------------

/// Contiguous near-even node ranges, one per shard: the first
/// `nodes % shards` shards get one extra node. Contiguity in node-id
/// order is what lets the coordinator fold per-shard record and trace
/// slices by plain concatenation.
pub fn shard_ranges(nodes: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards >= 1 && shards <= nodes);
    let base = nodes / shards;
    let extra = nodes % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, nodes);
    ranges
}

/// Refuse configurations whose global serial state cannot be
/// partitioned across workers.
pub fn validate_sharding(
    cfg: &ClusterConfig,
    shards: usize,
    nodes: usize,
) -> Result<(), ShardError> {
    if shards == 0 {
        return Err(ShardError::Unsupported("--shards must be at least 1".into()));
    }
    if shards > nodes {
        return Err(ShardError::Unsupported(format!(
            "{shards} shards over {nodes} nodes: every shard must own at least one node"
        )));
    }
    if !matches!(cfg.sync, SyncMode::Chained) {
        return Err(ShardError::Unsupported(
            "bulk synchronization uses a central barrier and cannot be sharded; \
             use chained sync"
                .into(),
        ));
    }
    if cfg.loss.is_some() {
        return Err(ShardError::Unsupported(
            "the legacy fabric loss model draws from one global RNG whose order \
             cannot be partitioned; use --fault-plan 'drop=P,seed=S' instead"
                .into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

impl Persist for WireEvent {
    fn save(&self, w: &mut Writer) {
        w.put_u8(self.stage);
        w.put_u32(self.src);
        w.put_u32(self.dst);
        w.put_u64(self.arrive);
        w.put_u64(self.extra);
        self.msg.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(WireEvent {
            stage: r.get_u8()?,
            src: r.get_u32()?,
            dst: r.get_u32()?,
            arrive: r.get_u64()?,
            extra: r.get_u64()?,
            msg: Persist::load(r)?,
        })
    }
}

impl Persist for NextEvent {
    fn save(&self, w: &mut Writer) {
        match self {
            NextEvent::Busy => w.put_u8(0),
            NextEvent::At(t) => {
                w.put_u8(1);
                w.put_u64(*t);
            }
            NextEvent::Never => w.put_u8(2),
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        match r.get_u8()? {
            0 => Ok(NextEvent::Busy),
            1 => Ok(NextEvent::At(r.get_u64()?)),
            2 => Ok(NextEvent::Never),
            t => Err(r.malformed(format!("invalid horizon tag {t}"))),
        }
    }
}

/// Injected-crash announcement carried in a frame A: every worker
/// returns the identical [`CrashInjected`] the oracle would have.
#[derive(Clone, Copy, Debug)]
struct CrashInfo {
    at_cycle: u64,
    node: u32,
    step: u64,
    /// Global packets-lost tally as of the previous cycle's
    /// reconciliation — the oracle's loop-top value.
    lost: u64,
}

impl Persist for CrashInfo {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.at_cycle);
        w.put_u32(self.node);
        w.put_u64(self.step);
        w.put_u64(self.lost);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(CrashInfo {
            at_cycle: r.get_u64()?,
            node: r.get_u32()?,
            step: r.get_u64()?,
            lost: r.get_u64()?,
        })
    }
}

/// Worker↔worker per-cycle frames.
enum MeshFrame {
    /// Frame A: stage-0/1 wire events, or a crash announcement.
    Events {
        crash: Option<CrashInfo>,
        events: Vec<WireEvent>,
    },
    /// Frame B: stage-2 acks plus the cycle's global-progress votes.
    /// `obs` piggybacks the sender's telemetry sample on the cycles
    /// where its shard crosses a heartbeat boundary (None otherwise —
    /// the common case, one byte on the wire).
    Tally {
        events: Vec<WireEvent>,
        stepped: bool,
        delivered: bool,
        done: bool,
        lost_delta: u64,
        obs: Option<ObsDelta>,
    },
    /// Frame C: local event horizon for a deadlock / fast-forward scan.
    Horizon(NextEvent),
    /// Mesh handshake: the connecting worker announces its shard index.
    Id(u32),
}

impl MeshFrame {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            MeshFrame::Events { crash, events } => {
                w.put_u8(0);
                crash.save(&mut w);
                events.save(&mut w);
            }
            MeshFrame::Tally { events, stepped, delivered, done, lost_delta, obs } => {
                w.put_u8(1);
                events.save(&mut w);
                w.put_bool(*stepped);
                w.put_bool(*delivered);
                w.put_bool(*done);
                w.put_u64(*lost_delta);
                obs.save(&mut w);
            }
            MeshFrame::Horizon(h) => {
                w.put_u8(2);
                h.save(&mut w);
            }
            MeshFrame::Id(i) => {
                w.put_u8(3);
                w.put_u32(*i);
            }
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(bytes, FRAME);
        match r.get_u8()? {
            0 => Ok(MeshFrame::Events { crash: Persist::load(&mut r)?, events: Persist::load(&mut r)? }),
            1 => Ok(MeshFrame::Tally {
                events: Persist::load(&mut r)?,
                stepped: r.get_bool()?,
                delivered: r.get_bool()?,
                done: r.get_bool()?,
                lost_delta: r.get_u64()?,
                obs: Persist::load(&mut r)?,
            }),
            2 => Ok(MeshFrame::Horizon(Persist::load(&mut r)?)),
            3 => Ok(MeshFrame::Id(r.get_u32()?)),
            t => Err(r.malformed(format!("invalid mesh frame tag {t}"))),
        }
    }
}

/// One flight-recorder trace slice shipped by a worker: its owned node
/// streams, the (globally identical) engine stream, and the stall
/// ledger it attributed.
struct TraceShard {
    level: Option<TraceLevel>,
    nodes: Vec<NodeStream>,
    engine: NodeStream,
    stalls: StallLedger,
}

impl Persist for TraceShard {
    fn save(&self, w: &mut Writer) {
        self.level.save(w);
        self.nodes.save(w);
        self.engine.save(w);
        self.stalls.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(TraceShard {
            level: Persist::load(r)?,
            nodes: Persist::load(r)?,
            engine: Persist::load(r)?,
            stalls: Persist::load(r)?,
        })
    }
}

/// A worker's successful segment result: everything the coordinator
/// needs to fold the segment report and splice its replica.
struct SegmentOk {
    end_cycle: u64,
    skipped: u64,
    records: Vec<NodeStepReport>,
    stats: StatSet,
    /// Owned nodes' flit-level traffic counters, node order.
    traffic: Vec<TrafficCounters>,
    /// Cumulative-since-worker-start deltas of the shared scalar
    /// tallies. Admission-side counters (packets, bits) partition by
    /// destination owner; loss counters by source owner — either way
    /// the per-worker deltas sum to the oracle's global tally.
    d_pos_packets: u64,
    d_frc_packets: u64,
    d_pos_bits: u64,
    d_frc_bits: u64,
    d_pos_lost: u64,
    d_frc_lost: u64,
    d_faults: [u64; 5],
    d_acks: u64,
    d_corrupt: u64,
    trace: Option<TraceShard>,
    /// Full state container (`snapshot_into` bytes); the coordinator
    /// splices the owned slices out of it.
    container: Vec<u8>,
}

impl Persist for SegmentOk {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.end_cycle);
        w.put_u64(self.skipped);
        self.records.save(w);
        self.stats.save(w);
        self.traffic.save(w);
        w.put_u64(self.d_pos_packets);
        w.put_u64(self.d_frc_packets);
        w.put_u64(self.d_pos_bits);
        w.put_u64(self.d_frc_bits);
        w.put_u64(self.d_pos_lost);
        w.put_u64(self.d_frc_lost);
        for d in self.d_faults {
            w.put_u64(d);
        }
        w.put_u64(self.d_acks);
        w.put_u64(self.d_corrupt);
        self.trace.save(w);
        self.container.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(SegmentOk {
            end_cycle: r.get_u64()?,
            skipped: r.get_u64()?,
            records: Persist::load(r)?,
            stats: Persist::load(r)?,
            traffic: Persist::load(r)?,
            d_pos_packets: r.get_u64()?,
            d_frc_packets: r.get_u64()?,
            d_pos_bits: r.get_u64()?,
            d_frc_bits: r.get_u64()?,
            d_pos_lost: r.get_u64()?,
            d_frc_lost: r.get_u64()?,
            d_faults: {
                let mut d = [0u64; 5];
                for v in &mut d {
                    *v = r.get_u64()?;
                }
                d
            },
            d_acks: r.get_u64()?,
            d_corrupt: r.get_u64()?,
            trace: Persist::load(r)?,
            container: Persist::load(r)?,
        })
    }
}

/// A worker's failed segment: the owned share of the oracle's error.
/// The coordinator concatenates shares in shard order — which is node
/// order — to rebuild the exact in-process [`ClusterError`].
enum SegmentFail {
    Stalled {
        at_cycle: u64,
        /// Owned nodes' `(step, phase)` in node order.
        nodes: Vec<(u64, String)>,
        lost: u64,
    },
    Deadlock {
        at_cycle: u64,
        /// Owned starving nodes: `(node, step, phase)`.
        starving: Vec<(u64, u64, String)>,
        lost: u64,
        /// Flap/partition directives this worker saw latch — the
        /// coordinator unions the shares into the oracle's diagnosis.
        outages: Vec<String>,
    },
    Crashed {
        at_cycle: u64,
        node: u32,
        step: u64,
        lost: u64,
    },
    /// The worker's mesh links failed (a peer died mid-exchange).
    Link(String),
}

impl Persist for SegmentFail {
    fn save(&self, w: &mut Writer) {
        match self {
            SegmentFail::Stalled { at_cycle, nodes, lost } => {
                w.put_u8(0);
                w.put_u64(*at_cycle);
                w.put_usize(nodes.len());
                for (step, phase) in nodes {
                    w.put_u64(*step);
                    w.put_str(phase);
                }
                w.put_u64(*lost);
            }
            SegmentFail::Deadlock { at_cycle, starving, lost, outages } => {
                w.put_u8(1);
                w.put_u64(*at_cycle);
                w.put_usize(starving.len());
                for (node, step, phase) in starving {
                    w.put_u64(*node);
                    w.put_u64(*step);
                    w.put_str(phase);
                }
                w.put_u64(*lost);
                outages.save(w);
            }
            SegmentFail::Crashed { at_cycle, node, step, lost } => {
                w.put_u8(2);
                w.put_u64(*at_cycle);
                w.put_u32(*node);
                w.put_u64(*step);
                w.put_u64(*lost);
            }
            SegmentFail::Link(msg) => {
                w.put_u8(3);
                w.put_str(msg);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        match r.get_u8()? {
            0 => {
                let at_cycle = r.get_u64()?;
                let n = r.get_len()?;
                let mut nodes = Vec::with_capacity(n);
                for _ in 0..n {
                    nodes.push((r.get_u64()?, r.get_str()?));
                }
                Ok(SegmentFail::Stalled { at_cycle, nodes, lost: r.get_u64()? })
            }
            1 => {
                let at_cycle = r.get_u64()?;
                let n = r.get_len()?;
                let mut starving = Vec::with_capacity(n);
                for _ in 0..n {
                    starving.push((r.get_u64()?, r.get_u64()?, r.get_str()?));
                }
                let lost = r.get_u64()?;
                Ok(SegmentFail::Deadlock { at_cycle, starving, lost, outages: Persist::load(r)? })
            }
            2 => Ok(SegmentFail::Crashed {
                at_cycle: r.get_u64()?,
                node: r.get_u32()?,
                step: r.get_u64()?,
                lost: r.get_u64()?,
            }),
            3 => Ok(SegmentFail::Link(r.get_str()?)),
            t => Err(r.malformed(format!("invalid segment-fail tag {t}"))),
        }
    }
}

/// Coordinator↔worker control frames.
enum CtlFrame {
    /// Worker → coordinator: shard index + config fingerprint + the
    /// address peers can dial this worker's mesh listener at (a Unix
    /// socket path or a TCP `host:port`, matching the rendezvous
    /// carrier).
    Hello { index: u32, meta_crc: u32, mesh_addr: String },
    /// Coordinator → workers: proceed (optionally restoring a
    /// checkpoint first). `peers` is every worker's advertised mesh
    /// address in shard order — the connection table for the full mesh.
    Go { resume: Option<String>, peers: Vec<String> },
    /// Run one segment to the absolute step `target` under `budget`
    /// remaining cycles.
    Run { target: u64, budget: u64 },
    Done(Box<SegmentOk>),
    Fail(SegmentFail),
    Shutdown,
    /// Worker 0 → coordinator: an assembled fleet heartbeat. May arrive
    /// any time between `Run` and the segment result; the coordinator's
    /// collect loop drains them without disturbing the protocol.
    Beat(Box<FleetBeat>),
}

impl CtlFrame {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            CtlFrame::Hello { index, meta_crc, mesh_addr } => {
                w.put_u8(0);
                w.put_u32(*index);
                w.put_u32(*meta_crc);
                w.put_str(mesh_addr);
            }
            CtlFrame::Go { resume, peers } => {
                w.put_u8(1);
                resume.save(&mut w);
                peers.save(&mut w);
            }
            CtlFrame::Run { target, budget } => {
                w.put_u8(2);
                w.put_u64(*target);
                w.put_u64(*budget);
            }
            CtlFrame::Done(ok) => {
                w.put_u8(3);
                ok.save(&mut w);
            }
            CtlFrame::Fail(f) => {
                w.put_u8(4);
                f.save(&mut w);
            }
            CtlFrame::Shutdown => w.put_u8(5),
            CtlFrame::Beat(fb) => {
                w.put_u8(6);
                fb.save(&mut w);
            }
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(bytes, FRAME);
        match r.get_u8()? {
            0 => Ok(CtlFrame::Hello {
                index: r.get_u32()?,
                meta_crc: r.get_u32()?,
                mesh_addr: r.get_str()?,
            }),
            1 => Ok(CtlFrame::Go { resume: Persist::load(&mut r)?, peers: Persist::load(&mut r)? }),
            2 => Ok(CtlFrame::Run { target: r.get_u64()?, budget: r.get_u64()? }),
            3 => Ok(CtlFrame::Done(Box::new(Persist::load(&mut r)?))),
            4 => Ok(CtlFrame::Fail(Persist::load(&mut r)?)),
            5 => Ok(CtlFrame::Shutdown),
            6 => Ok(CtlFrame::Beat(Box::new(Persist::load(&mut r)?))),
            t => Err(r.malformed(format!("invalid control frame tag {t}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar reconciliation
// ---------------------------------------------------------------------------

/// Shared scalar tallies at a known-identical point (worker start /
/// coordinator start): the base the per-worker deltas are measured
/// against. Every worker restores from the same bytes (or starts
/// fresh), so all bases agree.
#[derive(Clone, Copy, Debug, Default)]
struct ScalarBase {
    pos_packets: u64,
    frc_packets: u64,
    pos_bits: u64,
    frc_bits: u64,
    pos_lost: u64,
    frc_lost: u64,
    faults: [u64; 5],
    acks: u64,
    corrupt: u64,
}

impl ScalarBase {
    fn of(cl: &Cluster) -> Self {
        ScalarBase {
            pos_packets: cl.pos_fabric.packets,
            frc_packets: cl.frc_fabric.packets,
            pos_bits: cl.pos_fabric.bits_sent,
            frc_bits: cl.frc_fabric.bits_sent,
            pos_lost: cl.pos_fabric.packets_lost,
            frc_lost: cl.frc_fabric.packets_lost,
            faults: cl.faults.as_ref().map_or([0; 5], |f| f.injected),
            acks: cl.rel.as_ref().map_or(0, |r| r.acks_sent),
            corrupt: cl.rel.as_ref().map_or(0, |r| r.corrupt_dropped),
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

fn broadcast(mesh: &mut [Box<dyn FrameLink>], frame: &MeshFrame) -> Result<(), LinkError> {
    let payload = frame.encode();
    for link in mesh.iter_mut() {
        link.send_frame(&payload)?;
    }
    Ok(())
}

fn owned_states(cl: &Cluster) -> Vec<(u64, String)> {
    cl.owned_range()
        .map(|n| (cl.state[n].step, format!("{:?}", cl.state[n].phase)))
        .collect()
}

fn owned_starving(cl: &Cluster) -> Vec<(u64, u64, String)> {
    cl.owned_range()
        .filter(|&n| cl.state[n].phase != NodePhase::Done)
        .map(|n| (n as u64, cl.state[n].step, format!("{:?}", cl.state[n].phase)))
        .collect()
}

/// Window directives this worker saw latch on its owned source links —
/// its share of the oracle's partition-vs-deadlock diagnosis.
fn owned_outages(cl: &Cluster) -> Vec<String> {
    cl.faults.as_ref().map(|f| f.fired_outages()).unwrap_or_default()
}

/// Combine per-worker event horizons exactly as the oracle's single
/// full-cluster scan would: any busy chip wins, otherwise the earliest
/// scheduled event, otherwise a proven global deadlock.
fn combine_horizons(horizons: &[NextEvent]) -> NextEvent {
    let mut best: Option<u64> = None;
    for h in horizons {
        match h {
            NextEvent::Busy => return NextEvent::Busy,
            NextEvent::At(t) => best = Some(best.map_or(*t, |b| b.min(*t))),
            NextEvent::Never => {}
        }
    }
    match best {
        Some(t) => NextEvent::At(t),
        None => NextEvent::Never,
    }
}

/// Worker-side heartbeat state. Every worker samples its own shard
/// when its slowest owned node crosses a heartbeat boundary and ships
/// the sample on that cycle's Tally frame; worker 0 additionally folds
/// everyone's samples into [`FleetBeat`]s for the coordinator. All
/// state here is wall-clock-side — the simulated run is untouched, so
/// sharded runs stay bit-identical with heartbeats on or off.
struct ObsShard {
    /// Heartbeat cadence in steps (0 = off).
    every: u64,
    /// This worker's shard index.
    index: u32,
    shards: usize,
    /// Next boundary this shard owes a sample for.
    next_due: u64,
    /// Ledger totals banked from already-completed segments (owned
    /// nodes only) — [`Cluster::arm_run`] resets the live ledger per
    /// segment, so cumulative totals are `banked + live`.
    prod_acc: u64,
    stall_acc: [u64; STALL_CLASSES],
    /// Worker 0 only: boundary → per-shard samples collected so far.
    pending: BTreeMap<u64, Vec<Option<ObsDelta>>>,
    beats: u64,
}

impl ObsShard {
    fn new(every: u64, index: u32, shards: usize) -> Self {
        ObsShard {
            every,
            index,
            shards,
            next_due: every.max(1),
            prod_acc: 0,
            stall_acc: [0; STALL_CLASSES],
            pending: BTreeMap::new(),
            beats: 0,
        }
    }

    /// Owned-node ledger totals of the current segment plus the banked
    /// totals of completed ones.
    fn owned_totals(&self, cl: &Cluster) -> (u64, [u64; STALL_CLASSES]) {
        let mut prod = self.prod_acc;
        let mut stalls = self.stall_acc;
        for node in cl.owned_range() {
            let t = cl.tr_stalls.node_total(node);
            prod += t.productive;
            for (acc, v) in stalls.iter_mut().zip(t.stalled.iter()) {
                *acc += v;
            }
        }
        (prod, stalls)
    }

    /// Retransmissions originated by owned nodes.
    fn owned_retransmits(&self, cl: &Cluster) -> u64 {
        let Some(rel) = &cl.rel else { return 0 };
        cl.owned_range()
            .map(|n| {
                rel.tx[n]
                    .iter()
                    .flat_map(|links| links.values())
                    .map(|s| s.retransmits)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Bank the finishing segment's ledger totals before the segment
    /// result (and the trace, which carries the ledger away) ships.
    fn bank_segment(&mut self, cl: &Cluster) {
        if self.every == 0 {
            return;
        }
        for node in cl.owned_range() {
            let t = cl.tr_stalls.node_total(node);
            self.prod_acc += t.productive;
            for (acc, v) in self.stall_acc.iter_mut().zip(t.stalled.iter()) {
                *acc += v;
            }
        }
    }

    /// Sample this shard if its slowest owned node has crossed the next
    /// heartbeat boundary. At most one boundary fires per cycle; a
    /// shard that somehow skipped past several catches up on the
    /// following cycles.
    fn due(&mut self, cl: &Cluster) -> Option<ObsDelta> {
        if self.every == 0 {
            return None;
        }
        let min_step = cl.owned_range().map(|n| cl.state[n].step).min()?;
        if min_step < self.next_due {
            return None;
        }
        let boundary = self.next_due;
        self.next_due += self.every;
        let (productive, stalls) = self.owned_totals(cl);
        Some(ObsDelta {
            worker: self.index,
            boundary,
            min_step,
            productive,
            stalls,
            retransmits: self.owned_retransmits(cl),
        })
    }

    /// Worker 0: fold one shard's sample; returns the completed fleet
    /// beat once every shard has answered for that boundary.
    fn note(&mut self, d: ObsDelta, cycle: u64) -> Option<FleetBeat> {
        let shards = self.shards;
        let slot = self
            .pending
            .entry(d.boundary)
            .or_insert_with(|| vec![None; shards]);
        if let Some(s) = slot.get_mut(d.worker as usize) {
            *s = Some(d);
        }
        let boundary = *self.pending.iter().find(|(_, v)| v.iter().all(Option::is_some))?.0;
        let workers: Vec<ObsDelta> = self
            .pending
            .remove(&boundary)?
            .into_iter()
            .flatten()
            .collect();
        self.beats += 1;
        Some(FleetBeat { beat: self.beats, boundary, cycle, workers })
    }
}

/// Run one segment of the global cycle loop on this worker's shard —
/// the sharded transliteration of [`Cluster::try_run_with`]'s loop.
/// `lost_total` tracks the reconciled global packets-lost tally across
/// cycles (and segments); `base_lost` is the worker-start baseline.
#[allow(clippy::too_many_arguments)]
fn run_segment(
    cl: &mut Cluster,
    engine: &EngineConfig,
    crew: &mut Crew<'_>,
    mesh: &mut [Box<dyn FrameLink>],
    ctl: &mut dyn FrameLink,
    obs: &mut ObsShard,
    target: u64,
    budget: u64,
    base_lost: u64,
    lost_total: &mut u64,
) -> Result<(), SegmentFail> {
    let link_err = |e: LinkError| SegmentFail::Link(e.to_string());
    let codec_err = |e: CkptError| SegmentFail::Link(format!("frame decode: {e}"));
    assert!(target > 0);
    let run_start = cl.cycle;
    cl.arm_run(engine);
    let mut idle_streak = 0u64;
    let crashes: Vec<_> = cl
        .cfg
        .faults
        .as_ref()
        .map(|p| p.crashes.clone())
        .unwrap_or_default();
    let owned = cl.owned_range();

    loop {
        // Crash directives, checked at the loop top exactly like the
        // oracle. Only the owner can observe one; it announces the crash
        // in place of its frame A so every worker fails identically.
        // (Peers learn one sub-cycle late — after their local compute —
        // but the divergence is unobservable: no segment result is
        // produced and the error is built from frame-consistent data.)
        // Among concurrently-due directives the lowest node fires,
        // matching the oracle's tie-break.
        let due = crashes
            .iter()
            .filter(|cp| {
                let node = cp.node as usize;
                owned.contains(&node)
                    && cl.state[node].phase == NodePhase::Force
                    && cl.state[node].step == cp.step
                    && cl.cycle > cl.state[node].phase_start
            })
            .min_by_key(|cp| cp.node)
            .copied();
        if let Some(cp) = due {
            let ci = CrashInfo {
                at_cycle: cl.cycle,
                node: cp.node,
                step: cp.step,
                lost: *lost_total,
            };
            broadcast(mesh, &MeshFrame::Events { crash: Some(ci), events: Vec::new() })
                .map_err(link_err)?;
            return Err(SegmentFail::Crashed {
                at_cycle: ci.at_cycle,
                node: ci.node,
                step: ci.step,
                lost: ci.lost,
            });
        }

        // Local cycle: compute → exchange → network, all on owned nodes.
        let stepped_local = cl.compute_phase(crew);
        if cl.tracing {
            cl.attribute_cycle();
        }
        cl.exchange_actions(target);
        cl.network_cycle();

        // Frame A: stage-0/1 events out, everyone's in, merge, admit.
        let my_events = cl.take_wire_events();
        broadcast(mesh, &MeshFrame::Events { crash: None, events: my_events.clone() })
            .map_err(link_err)?;
        let mut merged = my_events;
        for link in mesh.iter_mut() {
            match MeshFrame::decode(&link.recv_frame().map_err(link_err)?).map_err(codec_err)? {
                MeshFrame::Events { crash: Some(ci), .. } => {
                    return Err(SegmentFail::Crashed {
                        at_cycle: ci.at_cycle,
                        node: ci.node,
                        step: ci.step,
                        lost: ci.lost,
                    });
                }
                MeshFrame::Events { crash: None, events } => merged.extend(events),
                _ => return Err(SegmentFail::Link("expected events frame".into())),
            }
        }
        cl.admit_wire_events(merged);

        // Delivery sweep, then frame B: acks + global-progress votes
        // (+ this shard's telemetry sample when a heartbeat is due).
        let delivered_local = cl.deliver_due();
        let my_acks = cl.take_wire_events();
        let done_local = cl.owned_done(target);
        let lost_local = cl.pos_fabric.packets_lost + cl.frc_fabric.packets_lost;
        let my_delta = lost_local - base_lost;
        let my_obs = obs.due(cl);
        broadcast(
            mesh,
            &MeshFrame::Tally {
                events: my_acks.clone(),
                stepped: stepped_local,
                delivered: delivered_local,
                done: done_local,
                lost_delta: my_delta,
                obs: my_obs.clone(),
            },
        )
        .map_err(link_err)?;
        let mut stepped = stepped_local;
        let mut delivered = delivered_local;
        let mut done_global = done_local;
        let mut lost_sum = my_delta;
        let mut merged2 = my_acks;
        let mut samples: Vec<ObsDelta> = my_obs.into_iter().collect();
        for link in mesh.iter_mut() {
            match MeshFrame::decode(&link.recv_frame().map_err(link_err)?).map_err(codec_err)? {
                MeshFrame::Tally {
                    events,
                    stepped: s,
                    delivered: d,
                    done: dn,
                    lost_delta,
                    obs: peer_obs,
                } => {
                    merged2.extend(events);
                    stepped |= s;
                    delivered |= d;
                    done_global &= dn;
                    lost_sum += lost_delta;
                    if obs.index == 0 {
                        samples.extend(peer_obs);
                    }
                }
                _ => return Err(SegmentFail::Link("expected tally frame".into())),
            }
        }
        cl.admit_wire_events(merged2);
        *lost_total = base_lost + lost_sum;
        // Worker 0 assembles fleet beats from the collected samples and
        // ships each completed one to the coordinator out of band.
        if obs.index == 0 {
            for d in samples {
                if let Some(fb) = obs.note(d, cl.cycle) {
                    ctl.send_frame(&CtlFrame::Beat(Box::new(fb)).encode())
                        .map_err(link_err)?;
                }
            }
        }

        cl.cycle += 1;
        if cl.cycle - run_start >= budget {
            return Err(SegmentFail::Stalled {
                at_cycle: cl.cycle,
                nodes: owned_states(cl),
                lost: *lost_total,
            });
        }

        // The deadlock / fast-forward scans fire on globally-agreed
        // conditions, so every worker reaches frame C together.
        let mut dl_scan = false;
        if !engine.fast_forward {
            if stepped || delivered {
                idle_streak = 0;
            } else {
                idle_streak += 1;
                if idle_streak.is_multiple_of(DEADLOCK_SCAN_INTERVAL) {
                    dl_scan = true;
                }
            }
        }
        let ff_scan = engine.fast_forward && !stepped && !delivered && !done_global;
        if dl_scan || ff_scan {
            let mine = cl.next_event_cycle();
            broadcast(mesh, &MeshFrame::Horizon(mine)).map_err(link_err)?;
            let mut horizons = vec![mine];
            for link in mesh.iter_mut() {
                match MeshFrame::decode(&link.recv_frame().map_err(link_err)?)
                    .map_err(codec_err)?
                {
                    MeshFrame::Horizon(h) => horizons.push(h),
                    _ => return Err(SegmentFail::Link("expected horizon frame".into())),
                }
            }
            let combined = combine_horizons(&horizons);
            if ff_scan {
                let cap = run_start + budget;
                match combined {
                    NextEvent::Busy => {}
                    NextEvent::At(t) => cl.jump_to(t.min(cap)),
                    NextEvent::Never => {
                        return Err(SegmentFail::Deadlock {
                            at_cycle: cl.cycle,
                            starving: owned_starving(cl),
                            lost: *lost_total,
                            outages: owned_outages(cl),
                        });
                    }
                }
                if cl.cycle >= cap {
                    return Err(SegmentFail::Stalled {
                        at_cycle: cl.cycle,
                        nodes: owned_states(cl),
                        lost: *lost_total,
                    });
                }
            } else if matches!(combined, NextEvent::Never) {
                return Err(SegmentFail::Deadlock {
                    at_cycle: cl.cycle,
                    starving: owned_starving(cl),
                    lost: *lost_total,
                    outages: owned_outages(cl),
                });
            }
        }

        if done_global {
            return Ok(());
        }
    }
}

/// Package a completed segment for the coordinator.
fn segment_ok(cl: &mut Cluster, base: &ScalarBase) -> SegmentOk {
    let owned = cl.owned_range();
    let mut stats = StatSet::new();
    for n in owned.clone() {
        stats.merge_from(&cl.chips[n].report(0, 0).stats);
    }
    let traffic: Vec<TrafficCounters> =
        owned.clone().map(|n| cl.chips[n].traffic.clone()).collect();
    let records = std::mem::take(&mut cl.records);
    let trace = cl.take_trace().map(|t| TraceShard {
        level: t.level,
        nodes: t.nodes[owned.clone()].to_vec(),
        engine: t.engine,
        stalls: t.stalls,
    });
    let mut cw = ContainerWriter::new();
    cl.snapshot_into(&mut cw);
    let faults = cl.faults.as_ref().map_or([0; 5], |f| f.injected);
    SegmentOk {
        end_cycle: cl.cycle,
        skipped: cl.skipped_cycles,
        records,
        stats,
        traffic,
        d_pos_packets: cl.pos_fabric.packets - base.pos_packets,
        d_frc_packets: cl.frc_fabric.packets - base.frc_packets,
        d_pos_bits: cl.pos_fabric.bits_sent - base.pos_bits,
        d_frc_bits: cl.frc_fabric.bits_sent - base.frc_bits,
        d_pos_lost: cl.pos_fabric.packets_lost - base.pos_lost,
        d_frc_lost: cl.frc_fabric.packets_lost - base.frc_lost,
        d_faults: [
            faults[0] - base.faults[0],
            faults[1] - base.faults[1],
            faults[2] - base.faults[2],
            faults[3] - base.faults[3],
            faults[4] - base.faults[4],
        ],
        d_acks: cl.rel.as_ref().map_or(0, |r| r.acks_sent) - base.acks,
        d_corrupt: cl.rel.as_ref().map_or(0, |r| r.corrupt_dropped) - base.corrupt,
        trace,
        container: cw.finish(),
    }
}

/// Worker main loop: obey `Run` / `Shutdown` control frames until the
/// coordinator hangs up. `cl` must already have its `exchange` hook
/// armed with the owned range (and be restored, when resuming).
///
/// Every worker is spawned on the coordinator's host, so the workers
/// split its cores: each worker's chip crew gets at most
/// `max(1, cores / shards)` members, whatever `engine.threads` asks for.
fn worker_loop(
    mut cl: Cluster,
    engine: &EngineConfig,
    ctl: &mut dyn FrameLink,
    mesh: &mut [Box<dyn FrameLink>],
    index: usize,
    shards: usize,
) -> Result<(), ShardError> {
    let owned = cl.owned_range();
    let cores = (crew::host_cores() / shards).max(1);
    let members = crew::members(engine.threads, cores, owned.len());
    let nodes = cl.num_nodes();
    crew::run(members, owned, nodes, |crew| {
        let base = ScalarBase::of(&cl);
        let base_lost = base.pos_lost + base.frc_lost;
        let mut lost_total = base_lost;
        let mut obs = ObsShard::new(engine.heartbeat_every, index as u32, shards);
        loop {
            match CtlFrame::decode(&ctl.recv_frame()?).map_err(ShardError::Ckpt)? {
                CtlFrame::Run { target, budget } => {
                    let frame = match run_segment(
                        &mut cl,
                        engine,
                        crew,
                        mesh,
                        ctl,
                        &mut obs,
                        target,
                        budget,
                        base_lost,
                        &mut lost_total,
                    ) {
                        Ok(()) => {
                            obs.bank_segment(&cl);
                            CtlFrame::Done(Box::new(segment_ok(&mut cl, &base)))
                        }
                        Err(f) => CtlFrame::Fail(f),
                    };
                    ctl.send_frame(&frame.encode())?;
                }
                CtlFrame::Shutdown => return Ok(()),
                _ => return Err(ShardError::Protocol("unexpected control frame in worker".into())),
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Splice one worker's owned slice from `scratch` (restored from the
/// worker's container) into `replica`. Everything per-node moves by
/// swap: chips, sync machines, packetizers, inboxes, per-node driver
/// state, fabric port clocks, reliability link maps (which carry the
/// per-link retransmit / duplicate counters) and fault-plan RNG
/// streams keyed by owned sources.
fn adopt_shard(replica: &mut Cluster, scratch: &mut Cluster, owned: Range<usize>) {
    for n in owned.clone() {
        std::mem::swap(&mut replica.chips[n], &mut scratch.chips[n]);
        std::mem::swap(&mut replica.sync[n], &mut scratch.sync[n]);
        std::mem::swap(&mut replica.pos_pz[n], &mut scratch.pos_pz[n]);
        std::mem::swap(&mut replica.frc_pz[n], &mut scratch.frc_pz[n]);
        std::mem::swap(&mut replica.mig_pz[n], &mut scratch.mig_pz[n]);
        std::mem::swap(&mut replica.inbox[n], &mut scratch.inbox[n]);
        replica.state[n] = scratch.state[n].clone();
        replica.stalls[n] = scratch.stalls[n];
        let (tx, rx) = scratch.pos_fabric.port_state(n);
        replica.pos_fabric.set_port_state(n, tx, rx);
        let (tx, rx) = scratch.frc_fabric.port_state(n);
        replica.frc_fabric.set_port_state(n, tx, rx);
        if let (Some(mine), Some(theirs)) = (replica.rel.as_mut(), scratch.rel.as_mut()) {
            std::mem::swap(&mut mine.tx[n], &mut theirs.tx[n]);
            std::mem::swap(&mut mine.rx[n], &mut theirs.rx[n]);
        }
    }
    if let (Some(mine), Some(theirs)) = (replica.faults.as_mut(), scratch.faults.as_ref()) {
        let owns = move |src: u32| owned.contains(&(src as usize));
        mine.adopt_links_from(theirs, owns);
    }
}

/// Overwrite the replica's shard-shared scalar tallies with
/// `base + Σ worker deltas`.
fn reconcile_scalars(replica: &mut Cluster, base: &ScalarBase, oks: &[SegmentOk]) {
    let sum = |f: fn(&SegmentOk) -> u64| oks.iter().map(f).sum::<u64>();
    replica.pos_fabric.packets = base.pos_packets + sum(|o| o.d_pos_packets);
    replica.frc_fabric.packets = base.frc_packets + sum(|o| o.d_frc_packets);
    replica.pos_fabric.bits_sent = base.pos_bits + sum(|o| o.d_pos_bits);
    replica.frc_fabric.bits_sent = base.frc_bits + sum(|o| o.d_frc_bits);
    replica.pos_fabric.packets_lost = base.pos_lost + sum(|o| o.d_pos_lost);
    replica.frc_fabric.packets_lost = base.frc_lost + sum(|o| o.d_frc_lost);
    if let Some(f) = replica.faults.as_mut() {
        for k in 0..5 {
            f.injected[k] = base.faults[k] + oks.iter().map(|o| o.d_faults[k]).sum::<u64>();
        }
    }
    if let Some(r) = replica.rel.as_mut() {
        r.acks_sent = base.acks + sum(|o| o.d_acks);
        r.corrupt_dropped = base.corrupt + sum(|o| o.d_corrupt);
    }
}

/// Fold per-worker segment results into the segment's
/// [`ClusterRunReport`] — field for field what
/// `Cluster::assemble_report` would have produced in-process. Must run
/// *after* [`adopt_shard`] + [`reconcile_scalars`] so the replica's
/// cumulative tallies are current.
fn fold_report(
    replica: &Cluster,
    oks: &mut [SegmentOk],
    target: u64,
    seg_cycles: u64,
) -> ClusterRunReport {
    let mut records = Vec::new();
    for ok in oks.iter_mut() {
        records.append(&mut ok.records);
    }
    // `(wall_end, node)` keys are unique across the run; a stable sort
    // over the shard-order concatenation reproduces the oracle's record
    // order exactly.
    records.sort_by_key(|r| (r.wall_end, r.node));
    let mut stats = StatSet::new();
    for ok in oks.iter() {
        stats.merge_from(&ok.stats);
    }
    let mut per_node_traffic = Vec::with_capacity(replica.num_nodes());
    for ok in oks.iter_mut() {
        per_node_traffic.append(&mut ok.traffic);
    }
    ClusterRunReport {
        steps: target,
        total_cycles: seg_cycles,
        records,
        stats,
        per_node_traffic,
        pos_packets: replica.pos_fabric.packets,
        frc_packets: replica.frc_fabric.packets,
        pos_bits: replica.pos_fabric.bits_sent,
        frc_bits: replica.frc_fabric.bits_sent,
        clock_hz: replica.cfg.chip.hw.clock_hz,
        dt_fs: replica.cfg.dt_fs,
        nodes: replica.num_nodes(),
        faults_injected: replica.faults.as_ref().map_or(0, |f| f.total_injected()),
        reliability: replica.rel.as_ref().map(|r| RelSummary {
            retransmits: r.total_retransmits(),
            acks_sent: r.acks_sent,
            duplicates_dropped: r.total_duplicates(),
            corrupt_dropped: r.corrupt_dropped,
        }),
    }
}

/// Merge per-worker trace shards into the run's [`Trace`]: node
/// streams concatenate in shard order (= node order), the engine
/// stream is identical on every worker (shard 0's is used), stall
/// ledgers fold additively.
fn fold_trace(oks: &mut [SegmentOk], nodes: usize) -> Option<Trace> {
    if oks.iter().all(|o| o.trace.is_none()) {
        return None;
    }
    let mut level = None;
    let mut streams: Vec<NodeStream> = Vec::with_capacity(nodes);
    let mut engine = None;
    let mut stalls = StallLedger::new(nodes);
    for (w, ok) in oks.iter_mut().enumerate() {
        let shard = ok.trace.take()?;
        if w == 0 {
            level = shard.level;
            engine = Some(shard.engine);
        }
        streams.extend(shard.nodes);
        stalls.absorb(&shard.stalls);
    }
    Some(Trace { level, nodes: streams, engine: engine?, stalls })
}

/// Convert the per-worker failure shares into the oracle's error.
fn merge_failures(fails: Vec<SegmentFail>) -> ShardError {
    // An injected crash is announced identically to every worker.
    for f in &fails {
        if let SegmentFail::Crashed { at_cycle, node, step, lost } = f {
            return ShardError::Cluster(
                CrashInjected {
                    at_cycle: *at_cycle,
                    node: *node as usize,
                    step: *step,
                    packets_lost: *lost,
                }
                .into(),
            );
        }
    }
    let mut starving = Vec::new();
    let mut nodes = Vec::new();
    let mut outages = Vec::new();
    let mut at_cycle = 0;
    let mut lost = 0;
    let mut saw_deadlock = false;
    let mut saw_stall = false;
    for f in fails {
        match f {
            SegmentFail::Deadlock { at_cycle: c, starving: s, lost: l, outages: o } => {
                saw_deadlock = true;
                at_cycle = c;
                lost = l;
                starving.extend(
                    s.into_iter().map(|(n, step, ph)| (n as usize, step, ph)),
                );
                outages.extend(o);
            }
            SegmentFail::Stalled { at_cycle: c, nodes: n, lost: l } => {
                saw_stall = true;
                at_cycle = c;
                lost = l;
                nodes.extend(n);
            }
            SegmentFail::Link(msg) => return ShardError::Worker(msg),
            SegmentFail::Crashed { .. } => unreachable!("handled above"),
        }
    }
    if saw_deadlock {
        // Workers report the directives their own links saw latch;
        // the union, deduplicated, is the oracle's diagnosis.
        outages.sort();
        outages.dedup();
        ShardError::Cluster(
            DeadlockDetected { at_cycle, starving, packets_lost: lost, outages }.into(),
        )
    } else if saw_stall {
        ShardError::Cluster(
            ClusterStalled { at_cycle, node_states: nodes, packets_lost: lost }.into(),
        )
    } else {
        ShardError::Worker("workers failed without details".into())
    }
}

/// Drive the workers through checkpoint-sized segments — the sharded
/// mirror of [`run_with_checkpoints`] — splicing each segment's state
/// into `replica` and folding its report into `acc`.
#[allow(clippy::too_many_arguments)]
fn drive(
    ctl: &mut [Box<dyn FrameLink>],
    replica: &mut Cluster,
    scratch: &mut Cluster,
    ranges: &[Range<usize>],
    steps: u64,
    cycle_budget: u64,
    ckpt: Option<&CheckpointConfig>,
    mut acc: RunAccumulator,
    mut fleet: Option<FleetObs>,
) -> Result<(ClusterRunReport, Vec<Trace>, Vec<PathBuf>), ShardError> {
    assert!(acc.steps_done <= steps, "accumulator past the requested step count");
    let every = match ckpt {
        Some(c) => c.every,
        None => steps.saturating_sub(acc.steps_done).max(1),
    };
    let base = ScalarBase::of(replica);
    let start_cycle = replica.cycle;
    let mut traces = Vec::new();
    let mut checkpoints = Vec::new();
    while acc.steps_done < steps {
        let target = (acc.steps_done + every).min(steps);
        let seg_start = replica.cycle;
        let spent = replica.cycle - start_cycle;
        let run = CtlFrame::Run { target, budget: cycle_budget.saturating_sub(spent) };
        let payload = run.encode();
        for link in ctl.iter_mut() {
            link.send_frame(&payload)?;
        }
        let mut oks = Vec::with_capacity(ctl.len());
        let mut fails = Vec::new();
        // Worker 0's link is read first and carries the fleet beats, so
        // heartbeats stream out while the segment is still running.
        for link in ctl.iter_mut() {
            loop {
                match CtlFrame::decode(&link.recv_frame()?)? {
                    CtlFrame::Beat(fb) => {
                        if let Some(f) = fleet.as_mut() {
                            f.on_beat(&fb, ranges, steps);
                        }
                    }
                    CtlFrame::Done(ok) => {
                        oks.push(*ok);
                        break;
                    }
                    CtlFrame::Fail(f) => {
                        fails.push(f);
                        break;
                    }
                    _ => return Err(ShardError::Protocol("expected segment result".into())),
                }
            }
        }
        if !fails.is_empty() {
            shutdown(ctl);
            return Err(merge_failures(fails));
        }
        for (w, ok) in oks.iter().enumerate() {
            let container = Container::parse(&ok.container)?;
            scratch.restore_from(&container)?;
            adopt_shard(replica, scratch, ranges[w].clone());
        }
        replica.cycle = oks[0].end_cycle;
        replica.skipped_cycles = oks[0].skipped;
        reconcile_scalars(replica, &base, &oks);
        let seg_cycles = replica.cycle - seg_start;
        if let Some(t) = fold_trace(&mut oks, replica.num_nodes()) {
            traces.push(t);
        }
        let report = fold_report(replica, &mut oks, target, seg_cycles);
        acc.fold(&report);
        if let Some(c) = ckpt {
            checkpoints.push(save_checkpoint(replica, &acc, c)?);
        }
    }
    shutdown(ctl);
    Ok((acc.into_report(), traces, checkpoints))
}

/// Best-effort shutdown broadcast; link errors are ignored (a worker
/// that died is already gone).
fn shutdown(ctl: &mut [Box<dyn FrameLink>]) {
    let payload = CtlFrame::Shutdown.encode();
    for link in ctl.iter_mut() {
        let _ = link.send_frame(&payload);
    }
}

// ---------------------------------------------------------------------------
// Thread-backed harness (real socket mesh, in-process workers)
// ---------------------------------------------------------------------------

/// Options for a sharded run.
///
/// The engine each worker runs is the caller's [`EngineConfig`], with
/// one rule: every worker is spawned on the coordinator's host (harness
/// threads in [`run_sharded`], processes in [`coordinator_main_net`]), so
/// the workers split its cores — each worker's chip crew gets at most
/// `max(1, cores / shards)` members, whatever `threads` asks for.
pub struct ShardOpts {
    /// Global cycle budget across all segments.
    pub budget: u64,
    /// Coordinated quiescent-step checkpointing.
    pub ckpt: Option<CheckpointConfig>,
    /// Checkpoint file to restore before running. The shard count need
    /// not match the one that wrote it — checkpoints are full-cluster.
    pub resume: Option<PathBuf>,
    /// Fleet heartbeat sinks on the coordinator (requires
    /// `EngineConfig::heartbeat_every` > 0 for beats to be produced).
    pub obs: Option<ObsSinkConfig>,
    /// Thread harness only: carry the control channel and the worker
    /// mesh over loopback TCP instead of socketpairs, exercising the
    /// cross-host transport hermetically. The bytes on the wire are
    /// identical either way.
    pub tcp: bool,
}

impl Default for ShardOpts {
    fn default() -> Self {
        ShardOpts { budget: MAX_RUN_CYCLES, ckpt: None, resume: None, obs: None, tcp: false }
    }
}

/// A connected loopback-TCP [`TcpLink`] pair (hermetic cross-host
/// transport testing).
fn tcp_pair() -> std::io::Result<(TcpLink, TcpLink)> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let dial = std::thread::spawn(move || std::net::TcpStream::connect(addr));
    let (accepted, _) = listener.accept()?;
    let dialed = dial
        .join()
        .map_err(|_| std::io::Error::other("tcp dial thread panicked"))??;
    Ok((TcpLink::new(accepted)?, TcpLink::new(dialed)?))
}

/// A completed sharded run.
pub struct ShardedRun {
    /// Whole-run folded report — equal to the in-process oracle's.
    pub report: ClusterRunReport,
    /// One merged trace per segment (tracing on).
    pub traces: Vec<Trace>,
    /// Checkpoints written, oldest first.
    pub checkpoints: Vec<PathBuf>,
    /// The coordinator's replica, spliced to the final state —
    /// bit-identical to an in-process cluster after the same run.
    pub replica: Cluster,
}

impl std::fmt::Debug for ShardedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRun")
            .field("report", &self.report)
            .field("traces", &self.traces.len())
            .field("checkpoints", &self.checkpoints)
            .finish_non_exhaustive()
    }
}

/// Run `steps` timesteps over `shards` workers backed by harness
/// threads, exchanging frames over real Unix-domain socketpairs. The
/// process-backed path ([`coordinator_main`] / [`worker_main`]) moves
/// identical bytes over named sockets; this entry point exists so
/// tests and benches can run the full protocol hermetically.
pub fn run_sharded(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    steps: u64,
    engine: &EngineConfig,
    shards: usize,
    opts: ShardOpts,
) -> Result<ShardedRun, ShardError> {
    let mut replica = Cluster::new(cfg.clone(), sys);
    let n = replica.num_nodes();
    validate_sharding(cfg, shards, n)?;
    let ranges = shard_ranges(n, shards);

    let mut acc = RunAccumulator::new();
    let mut resume_bytes: Option<Arc<Vec<u8>>> = None;
    if let Some(path) = &opts.resume {
        let bytes = std::fs::read(path)?;
        let container = Container::parse(&bytes)?;
        replica.restore_from(&container)?;
        acc = RunAccumulator::load(&mut container.reader(sections::RUNNER)?)?;
        resume_bytes = Some(Arc::new(bytes));
    }

    // Full mesh of socketpairs plus one control channel per worker.
    let mut rows: Vec<Vec<Option<Box<dyn FrameLink>>>> =
        (0..shards).map(|_| (0..shards).map(|_| None).collect()).collect();
    // Indexes two rows at once (i's column j and j's column i), which
    // an iterator rewrite cannot express.
    #[allow(clippy::needless_range_loop)]
    for i in 0..shards {
        for j in i + 1..shards {
            if opts.tcp {
                let (a, b) = tcp_pair()?;
                rows[i][j] = Some(Box::new(a));
                rows[j][i] = Some(Box::new(b));
            } else {
                let (a, b) = SocketLink::pair()?;
                rows[i][j] = Some(Box::new(a));
                rows[j][i] = Some(Box::new(b));
            }
        }
    }
    let mut ctl: Vec<Box<dyn FrameLink>> = Vec::with_capacity(shards);
    let mut handles = Vec::with_capacity(shards);
    for (w, row) in rows.into_iter().enumerate() {
        let theirs: Box<dyn FrameLink> = if opts.tcp {
            let (mine, theirs) = tcp_pair()?;
            ctl.push(Box::new(mine));
            Box::new(theirs)
        } else {
            let (mine, theirs) = MemLink::pair();
            ctl.push(Box::new(mine));
            Box::new(theirs)
        };
        let mut mesh: Vec<Box<dyn FrameLink>> = row.into_iter().flatten().collect();
        let range = ranges[w].clone();
        let cfg = cfg.clone();
        let sys = sys.clone();
        let engine = *engine;
        let resume = resume_bytes.clone();
        handles.push(std::thread::spawn(move || -> Result<(), ShardError> {
            let mut cl = Cluster::new(cfg, &sys);
            if let Some(bytes) = resume {
                let container = Container::parse(&bytes)?;
                cl.restore_from(&container)?;
            }
            cl.exchange = Some(ExchangeBuf { owned: range, stage: 0, events: Vec::new() });
            let mut theirs = theirs;
            worker_loop(cl, &engine, &mut *theirs, &mut mesh, w, shards)
        }));
    }

    let fleet = match &opts.obs {
        Some(sinks) => Some(FleetObs::new(sinks)?),
        None => None,
    };
    let mut scratch = Cluster::new(cfg.clone(), sys);
    let res = drive(
        &mut ctl,
        &mut replica,
        &mut scratch,
        &ranges,
        steps,
        opts.budget,
        opts.ckpt.as_ref(),
        acc,
        fleet,
    );
    drop(ctl); // unblock any worker still waiting on control frames
    for h in handles {
        let _ = h.join();
    }
    let (report, traces, checkpoints) = res?;
    Ok(ShardedRun { report, traces, checkpoints, replica })
}

// ---------------------------------------------------------------------------
// Process-backed coordinator / worker (CLI `--shards` / `--worker`)
// ---------------------------------------------------------------------------

fn ctl_socket(dir: &std::path::Path) -> PathBuf {
    dir.join("ctl.sock")
}

fn peer_socket(dir: &std::path::Path, index: usize) -> PathBuf {
    dir.join(format!("peer-{index}.sock"))
}

fn meta_crc(cl: &Cluster) -> u32 {
    crc32(&cl.meta_writer().into_bytes())
}

/// How shard processes find each other.
#[derive(Clone, Debug)]
pub enum ShardNet {
    /// Same-host rendezvous: Unix-domain sockets in a directory.
    Unix(PathBuf),
    /// Cross-host rendezvous: the coordinator listens on this TCP
    /// address (`host:port`; port 0 binds an ephemeral port) and each
    /// worker connects to it, advertising its own ephemeral mesh
    /// listener in its HELLO. The bytes on every link are identical to
    /// the Unix carrier, so the carrier cannot affect results.
    Tcp(String),
}

/// Either-carrier listener for control and mesh accept loops.
enum Acceptor {
    Unix(std::os::unix::net::UnixListener),
    Tcp(std::net::TcpListener),
}

impl Acceptor {
    fn accept(&self) -> Result<Box<dyn FrameLink>, ShardError> {
        Ok(match self {
            Acceptor::Unix(l) => Box::new(SocketLink::new(l.accept()?.0)?),
            Acceptor::Tcp(l) => Box::new(TcpLink::new(l.accept()?.0)?),
        })
    }
}

/// Dial a peer's advertised mesh address on the matching carrier.
fn dial_mesh(net_is_tcp: bool, addr: &str) -> Result<Box<dyn FrameLink>, ShardError> {
    Ok(if net_is_tcp {
        Box::new(TcpLink::connect(addr)?)
    } else {
        Box::new(SocketLink::new(std::os::unix::net::UnixStream::connect(addr)?)?)
    })
}

/// [`coordinator_main_net`] over the same-host Unix-socket rendezvous.
#[allow(clippy::too_many_arguments)]
pub fn coordinator_main(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    steps: u64,
    shards: usize,
    opts: ShardOpts,
    dir: &std::path::Path,
    worker_argv: &[String],
) -> Result<ShardedRun, ShardError> {
    coordinator_main_net(
        cfg,
        sys,
        steps,
        shards,
        opts,
        &ShardNet::Unix(dir.to_path_buf()),
        worker_argv,
    )
}

/// Spawn `shards` worker processes (re-invoking `worker_argv` with
/// `--worker I` plus the rendezvous flag — `--shard-dir DIR` for the
/// Unix carrier, `--shard-connect ADDR` for TCP — appended), handshake
/// them over the control listener, and drive the run. With
/// [`ShardNet::Tcp`] the listen address may use port 0; workers are
/// told the resolved address.
#[allow(clippy::too_many_arguments)]
pub fn coordinator_main_net(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    steps: u64,
    shards: usize,
    opts: ShardOpts,
    net: &ShardNet,
    worker_argv: &[String],
) -> Result<ShardedRun, ShardError> {
    let mut replica = Cluster::new(cfg.clone(), sys);
    let n = replica.num_nodes();
    validate_sharding(cfg, shards, n)?;
    let ranges = shard_ranges(n, shards);
    // Bind the control listener and decide the rendezvous args the
    // spawned workers get.
    let (listener, rendezvous_args, unix_dir) = match net {
        ShardNet::Unix(dir) => {
            std::fs::create_dir_all(dir)?;
            let ctl_path = ctl_socket(dir);
            let _ = std::fs::remove_file(&ctl_path);
            for i in 0..shards {
                let _ = std::fs::remove_file(peer_socket(dir, i));
            }
            let l = std::os::unix::net::UnixListener::bind(&ctl_path)?;
            let args = vec!["--shard-dir".to_string(), dir.to_string_lossy().into_owned()];
            (Acceptor::Unix(l), args, Some(dir.clone()))
        }
        ShardNet::Tcp(addr) => {
            let l = std::net::TcpListener::bind(addr.as_str())?;
            let resolved = l.local_addr()?.to_string();
            let args = vec!["--shard-connect".to_string(), resolved];
            (Acceptor::Tcp(l), args, None)
        }
    };

    let exe = std::env::current_exe()?;
    let mut children = Vec::with_capacity(shards);
    for i in 0..shards {
        let child = std::process::Command::new(&exe)
            .args(worker_argv)
            .arg("--worker")
            .arg(i.to_string())
            .args(&rendezvous_args)
            .spawn()?;
        children.push(child);
    }

    let mut run = || -> Result<(ClusterRunReport, Vec<Trace>, Vec<PathBuf>), ShardError> {
        // Collect HELLOs; the fingerprint check catches a worker built
        // from different arguments before any state moves.
        let expect = meta_crc(&replica);
        let mut ctl: Vec<Option<Box<dyn FrameLink>>> = (0..shards).map(|_| None).collect();
        let mut peers: Vec<String> = vec![String::new(); shards];
        for _ in 0..shards {
            let mut link = listener.accept()?;
            match CtlFrame::decode(&link.recv_frame()?)? {
                CtlFrame::Hello { index, meta_crc, mesh_addr } => {
                    if meta_crc != expect {
                        return Err(ShardError::Protocol(format!(
                            "worker {index} config fingerprint mismatch"
                        )));
                    }
                    let slot = ctl.get_mut(index as usize).ok_or_else(|| {
                        ShardError::Protocol(format!("worker index {index} out of range"))
                    })?;
                    if slot.replace(link).is_some() {
                        return Err(ShardError::Protocol(format!(
                            "duplicate worker index {index}"
                        )));
                    }
                    peers[index as usize] = mesh_addr;
                }
                _ => return Err(ShardError::Protocol("expected hello frame".into())),
            }
        }
        let mut ctl: Vec<Box<dyn FrameLink>> = ctl.into_iter().flatten().collect();

        let mut acc = RunAccumulator::new();
        let mut resume_str = None;
        if let Some(path) = &opts.resume {
            let bytes = std::fs::read(path)?;
            let container = Container::parse(&bytes)?;
            replica.restore_from(&container)?;
            acc = RunAccumulator::load(&mut container.reader(sections::RUNNER)?)?;
            resume_str = Some(path.to_string_lossy().into_owned());
        }
        let go = CtlFrame::Go { resume: resume_str, peers }.encode();
        for link in ctl.iter_mut() {
            link.send_frame(&go)?;
        }

        let fleet = match &opts.obs {
            Some(sinks) => Some(FleetObs::new(sinks)?),
            None => None,
        };
        let mut scratch = Cluster::new(cfg.clone(), sys);
        drive(
            &mut ctl,
            &mut replica,
            &mut scratch,
            &ranges,
            steps,
            opts.budget,
            opts.ckpt.as_ref(),
            acc,
            fleet,
        )
    };
    let res = run();
    for mut child in children {
        if res.is_err() {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
    if let Some(dir) = unix_dir {
        let _ = std::fs::remove_file(ctl_socket(&dir));
        for i in 0..shards {
            let _ = std::fs::remove_file(peer_socket(&dir, i));
        }
    }
    let (report, traces, checkpoints) = res?;
    Ok(ShardedRun { report, traces, checkpoints, replica })
}

/// [`worker_main_net`] over the same-host Unix-socket rendezvous.
pub fn worker_main(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    engine: &EngineConfig,
    index: usize,
    shards: usize,
    dir: &std::path::Path,
) -> Result<(), ShardError> {
    worker_main_net(cfg, sys, engine, index, shards, &ShardNet::Unix(dir.to_path_buf()))
}

/// Worker-process entry point: rendezvous with the coordinator (a Unix
/// rendezvous directory or a TCP coordinator address), mesh with the
/// other workers, and serve segments until shutdown. The caller must
/// have built `cfg` / `sys` / `engine` from the same arguments as the
/// coordinator (it re-invokes its own argv), which the HELLO
/// fingerprint verifies.
pub fn worker_main_net(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    engine: &EngineConfig,
    index: usize,
    shards: usize,
    net: &ShardNet,
) -> Result<(), ShardError> {
    let mut cl = Cluster::new(cfg.clone(), sys);
    let n = cl.num_nodes();
    validate_sharding(cfg, shards, n)?;
    if index >= shards {
        return Err(ShardError::Protocol(format!("worker index {index} out of range")));
    }
    let ranges = shard_ranges(n, shards);

    // Bind the mesh listener before saying hello: our advertised
    // address is live before the coordinator releases anyone with GO.
    let is_tcp = matches!(net, ShardNet::Tcp(_));
    let (listener, my_addr, mut ctl): (Acceptor, String, Box<dyn FrameLink>) = match net {
        ShardNet::Unix(dir) => {
            let my_sock = peer_socket(dir, index);
            let _ = std::fs::remove_file(&my_sock);
            let l = std::os::unix::net::UnixListener::bind(&my_sock)?;
            let stream = std::os::unix::net::UnixStream::connect(ctl_socket(dir))?;
            (
                Acceptor::Unix(l),
                my_sock.to_string_lossy().into_owned(),
                Box::new(SocketLink::new(stream)?),
            )
        }
        ShardNet::Tcp(addr) => {
            // Dial the coordinator first: the local address of that
            // connection is the interface peers can reach us on.
            let stream = std::net::TcpStream::connect(addr.as_str())?;
            let ip = stream.local_addr()?.ip();
            let l = std::net::TcpListener::bind((ip, 0))?;
            let my_addr = l.local_addr()?.to_string();
            (Acceptor::Tcp(l), my_addr, Box::new(TcpLink::new(stream)?))
        }
    };
    ctl.send_frame(
        &CtlFrame::Hello { index: index as u32, meta_crc: meta_crc(&cl), mesh_addr: my_addr }
            .encode(),
    )?;
    let (resume, peers) = match CtlFrame::decode(&ctl.recv_frame()?)? {
        CtlFrame::Go { resume, peers } => (resume, peers),
        _ => return Err(ShardError::Protocol("expected go frame".into())),
    };
    if peers.len() != shards {
        return Err(ShardError::Protocol(format!(
            "go frame lists {} peers for {shards} shards",
            peers.len()
        )));
    }
    if let Some(path) = resume {
        let bytes = std::fs::read(path)?;
        let container = Container::parse(&bytes)?;
        cl.restore_from(&container)?;
    }

    // Mesh: dial lower indices (announcing who we are), accept higher.
    let mut links: Vec<Option<Box<dyn FrameLink>>> = (0..shards).map(|_| None).collect();
    for (peer, slot) in links.iter_mut().enumerate().take(index) {
        let mut link = dial_mesh(is_tcp, &peers[peer])?;
        link.send_frame(&MeshFrame::Id(index as u32).encode())?;
        *slot = Some(link);
    }
    for _ in index + 1..shards {
        let mut link = listener.accept()?;
        let peer = match MeshFrame::decode(&link.recv_frame()?)? {
            MeshFrame::Id(i) => i as usize,
            _ => return Err(ShardError::Protocol("expected id frame".into())),
        };
        if peer <= index || peer >= shards || links[peer].is_some() {
            return Err(ShardError::Protocol(format!("bad mesh peer id {peer}")));
        }
        links[peer] = Some(link);
    }
    let mut mesh: Vec<Box<dyn FrameLink>> = links.into_iter().flatten().collect();

    cl.exchange =
        Some(ExchangeBuf { owned: ranges[index].clone(), stage: 0, events: Vec::new() });
    worker_loop(cl, engine, &mut *ctl, &mut mesh, index, shards)
}
