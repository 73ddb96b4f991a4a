//! The cluster driver: chips + packetizers + fabric + synchronization.

use crate::crew::{self, Crew, Job};
use crate::report::{ClusterRunReport, NodeStepReport, RelSummary};
use crate::wire::{Cargo, Delivery, NetMsg};
use fasda_core::config::ChipConfig;
use fasda_core::geometry::{ChipCoord, ChipGeometry};
use fasda_core::timed::ring::{FrcFlit, MigFlit, PosFlit};
use fasda_core::timed::{ForceActivity, TimedChip};
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_net::encap::Packetizer;
use fasda_net::fault::{CrashPoint, FaultChannel, FaultOutcome, FaultPlan, FaultState};
use fasda_net::packet::PacketKind;
use fasda_net::reliable::{Accept, LinkReceiver, LinkSender, RelConfig};
use fasda_net::switch::SwitchFabric;
use fasda_net::sync::{BulkBarrier, ChainedSync, SyncMode};
use fasda_net::topology::Topology;
use fasda_sim::{MessageQueue, StatSet};
use fasda_trace::{
    ChannelId, EventKind, NodeRecorder, PhaseId, StallCause, StallLedger, Trace, TraceConfig,
    TraceLevel,
};
use std::collections::BTreeMap;

/// Safety cap on the global cycle loop.
pub(crate) const MAX_RUN_CYCLES: u64 = 2_000_000_000;

/// Idle-streak length between deadlock scans on engines without
/// fast-forward (which detect deadlock through their own event scan).
/// The scan is O(nodes · peers); every 256 idle cycles it is noise.
pub(crate) const DEADLOCK_SCAN_INTERVAL: u64 = 256;

/// How the cluster's cycle loop is executed. The serial reference path
/// ([`Cluster::try_run`]) and every engine configuration produce
/// bit-identical [`ClusterRunReport`]s; the engine only changes how fast
/// wall-clock time passes (see `DESIGN.md`, "Parallel deterministic cycle
/// engine").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Members of the chip crew that runs the compute phase: the thread
    /// running the cycle loop plus `threads − 1` helper threads that live
    /// for the whole run (see the `crew` module). Capped at the cores the
    /// run may use and at the nodes it steps; `1` keeps the compute phase
    /// on the caller's thread and starts no helper.
    pub threads: usize,
    /// Skip cycles in which provably nothing can happen (all nodes
    /// quiescent, only in-flight packets / timers remain) by jumping the
    /// global clock to the next scheduled event.
    pub fast_forward: bool,
    /// Enable the chips' fast-path execution: provably bit-identical
    /// shortcuts inside the cycle model (idle-SPE skipping, precomputed
    /// filter-station scans). The serial reference keeps this off so it
    /// stays the plain per-cycle interpretation the optimized engine is
    /// validated against.
    pub fast_path: bool,
    /// Evaluate filter-station scans through the chips' fused SoA kernel
    /// (`HomeSoa` banks + `ForceDatapath::fused_scan_into`) instead of
    /// one virtual comparison per cycle. Bit-identical: the per-cycle
    /// `Pe` state machine still consumes one comparison per architectural
    /// cycle. **On by default** in the optimized engine since the fused
    /// filter→force kernel eliminated the hit-materialization overhead
    /// that used to make the batch path lose on dense workloads (see
    /// `DESIGN.md` §10); the scalar per-comparison walk stays the serial
    /// oracle it is validated against.
    pub soa: bool,
    /// Flight-recorder configuration (see `fasda-trace`). Off by
    /// default; with tracing on, every engine configuration emits
    /// byte-identical per-node event streams and stall ledgers, retrieved
    /// with [`Cluster::take_trace`] after the run.
    pub trace: TraceConfig,
    /// Emit a live telemetry heartbeat every N completed steps (0 =
    /// off). The sinks (JSONL stream, Prometheus scrape file) are
    /// runtime attachments — see [`Cluster::attach_obs`] for in-process
    /// runs and `ShardOpts::obs` for sharded ones; this knob only sets
    /// the cadence, so it stays in the `Copy` engine config that shard
    /// workers replay from argv. Heartbeats read the live stall ledger,
    /// so the host enables at least `TraceLevel::Sync` alongside.
    pub heartbeat_every: u64,
}

impl EngineConfig {
    /// The serial reference engine: one thread, every cycle simulated,
    /// plain per-cycle interpretation.
    pub const fn serial() -> Self {
        EngineConfig {
            threads: 1,
            fast_forward: false,
            fast_path: false,
            soa: false,
            trace: TraceConfig::OFF,
            heartbeat_every: 0,
        }
    }

    /// The optimized engine: a chip crew with one member per available
    /// core, idle fast-forward, the chips' fast-path execution, and the
    /// fused SoA scan kernels
    /// (default-on since the fused filter→force kernel wins on dense
    /// workloads; opt out with [`EngineConfig::with_soa`]).
    pub fn parallel() -> Self {
        EngineConfig {
            threads: crew::host_cores(),
            fast_forward: true,
            fast_path: true,
            soa: true,
            trace: TraceConfig::OFF,
            heartbeat_every: 0,
        }
    }

    /// Pick an engine for the host automatically: the full optimized
    /// engine on multi-core machines, and on a single hardware thread the
    /// serial oracle compute path with idle fast-forward kept on (a
    /// one-member crew has nothing to share, while fast-forward still
    /// wins big on straggler-style idle phases and costs nothing on dense
    /// ones). Used by the CLI when no engine is requested explicitly.
    pub fn auto() -> Self {
        if crew::host_cores() > 1 {
            Self::parallel()
        } else {
            Self::serial().with_fast_forward(true)
        }
    }

    /// Enable or disable the chips' fast-path execution.
    pub fn with_fast_path(mut self, on: bool) -> Self {
        self.fast_path = on;
        self
    }

    /// Enable or disable the SoA batch-kernel scan path.
    pub fn with_soa(mut self, on: bool) -> Self {
        self.soa = on;
        self
    }

    /// Override the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enable or disable idle fast-forward.
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Set the flight-recorder configuration for the run.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Set the heartbeat cadence (completed steps between live
    /// telemetry snapshots; 0 = off).
    pub fn with_heartbeat_every(mut self, every: u64) -> Self {
        self.heartbeat_every = every;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::serial()
    }
}

/// Configuration of a multi-FPGA run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-chip architecture configuration.
    pub chip: ChipConfig,
    /// Cells per chip along each axis.
    pub block: (u32, u32, u32),
    /// Synchronization strategy (§4.4).
    pub sync: SyncMode,
    /// Inter-node topology (§4.1).
    pub topology: Topology,
    /// Port bandwidth, bits per cycle (paper: 500 = 100 Gbps @ 200 MHz).
    pub bits_per_cycle: f64,
    /// Packet-departure cooldown in cycles (§5.4).
    pub packet_cooldown: u32,
    /// Timestep in femtoseconds.
    pub dt_fs: f64,
    /// Optional straggler injection: `(node, stall_cycles)` delays that
    /// node's force phase every step (ablation for §4.4).
    pub straggler: Option<(usize, u64)>,
    /// Optional packet-loss injection `(probability, seed)` on both
    /// fabrics. UDP has no retransmission, so any loss deadlocks the
    /// chained synchronization — use with [`Cluster::try_run`] to observe
    /// the stall the paper's cooldown counters exist to prevent (§5.4).
    /// Superseded by [`ClusterConfig::faults`], which injects at the
    /// reliable-delivery boundary instead of inside the fabric.
    pub loss: Option<(f64, u64)>,
    /// Optional seeded link-fault schedule (drop / corrupt / duplicate /
    /// delay + targeted marker kills) applied at transmit time in the
    /// serial network phase — deterministic and engine-invariant.
    pub faults: Option<FaultPlan>,
    /// Optional reliable-delivery layer: per-link sequence numbers,
    /// cumulative acks, and timeout retransmission. With it on, chained
    /// sync converges under any finite fault schedule; with it off, a
    /// lost marker deadlocks the run (detected, not spun — see
    /// [`DeadlockDetected`]).
    pub reliability: Option<RelConfig>,
}

impl ClusterConfig {
    /// The paper's testbed setup for a given chip config and block.
    pub fn paper(chip: ChipConfig, block: (u32, u32, u32)) -> Self {
        ClusterConfig {
            chip,
            block,
            sync: SyncMode::Chained,
            topology: Topology::PAPER_SWITCH,
            bits_per_cycle: SwitchFabric::PAPER_BITS_PER_CYCLE,
            packet_cooldown: 2,
            dt_fs: 2.0,
            straggler: None,
            loss: None,
            faults: None,
            reliability: None,
        }
    }

    /// Attach a seeded fault schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable the reliable-delivery layer.
    pub fn with_reliability(mut self, rel: RelConfig) -> Self {
        self.reliability = Some(rel);
        self
    }
}

/// A cluster run that failed to make progress within its cycle budget —
/// e.g. a lost packet starving the chained synchronization.
#[derive(Clone, Debug)]
pub struct ClusterStalled {
    /// Cycle at which the run gave up.
    pub at_cycle: u64,
    /// Per-node `(step, phase)` snapshot at the stall.
    pub node_states: Vec<(u64, String)>,
    /// Packets lost by the fabrics so far.
    pub packets_lost: u64,
}

impl std::fmt::Display for ClusterStalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster stalled at cycle {} ({} packets lost); node states: {:?}",
            self.at_cycle, self.packets_lost, self.node_states
        )
    }
}

impl std::error::Error for ClusterStalled {}

/// A provable deadlock: every node quiescent, nothing scheduled on any
/// fabric, inbox, packetizer, barrier, or retransmission timer — the
/// cluster can never make progress again. The classic cause is a lost
/// `last` marker with the reliability layer off (§4.4).
#[derive(Clone, Debug)]
pub struct DeadlockDetected {
    /// Cycle at which the deadlock was proven.
    pub at_cycle: u64,
    /// Nodes still waiting: `(node, step, phase)`.
    pub starving: Vec<(usize, u64, String)>,
    /// Packets lost by the fabrics so far.
    pub packets_lost: u64,
    /// Flap/partition directives that latched before the deadlock —
    /// the diagnosis that separates "a partition starved the cluster"
    /// from an organic lost-marker deadlock. A window that already
    /// healed still appears: its cut traffic may be what starved us.
    pub outages: Vec<String>,
}

impl std::fmt::Display for DeadlockDetected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster deadlocked at cycle {} ({} packets lost); starving nodes:",
            self.at_cycle, self.packets_lost
        )?;
        for (node, step, phase) in &self.starving {
            write!(f, " node {node} at step {step} in {phase};")?;
        }
        if !self.outages.is_empty() {
            write!(f, " diagnosed outages: {};", self.outages.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for DeadlockDetected {}

/// A scheduled crash fired: the fault plan's `crash=NODE@STEP` directive
/// killed the run while the named node was mid-way through the step's
/// force phase. Unlike a stall or deadlock this is an *injected*
/// failure — the recovery path restores the cluster from its latest
/// checkpoint and re-runs from there (see the `ckpt` module).
#[derive(Clone, Debug)]
pub struct CrashInjected {
    /// Cycle at which the crash fired.
    pub at_cycle: u64,
    /// The node that "died".
    pub node: usize,
    /// Timestep the node was executing.
    pub step: u64,
    /// Packets lost by the fabrics so far.
    pub packets_lost: u64,
}

impl std::fmt::Display for CrashInjected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} crashed at cycle {} during step {} ({} packets lost); \
             recover by resuming from the latest checkpoint",
            self.node, self.at_cycle, self.step, self.packets_lost
        )
    }
}

impl std::error::Error for CrashInjected {}

/// Why a fallible cluster run did not complete.
#[derive(Clone, Debug)]
pub enum ClusterError {
    /// The cycle budget ran out before all steps finished.
    Stalled(ClusterStalled),
    /// The run can provably never finish (e.g. a lost sync marker with
    /// reliability off).
    Deadlock(DeadlockDetected),
    /// A `crash=NODE@STEP` fault directive killed the run mid-step.
    Crashed(CrashInjected),
}

impl ClusterError {
    /// Packets lost by the fabrics when the run gave up.
    pub fn packets_lost(&self) -> u64 {
        match self {
            ClusterError::Stalled(s) => s.packets_lost,
            ClusterError::Deadlock(d) => d.packets_lost,
            ClusterError::Crashed(c) => c.packets_lost,
        }
    }

    /// Cycle at which the run gave up.
    pub fn at_cycle(&self) -> u64 {
        match self {
            ClusterError::Stalled(s) => s.at_cycle,
            ClusterError::Deadlock(d) => d.at_cycle,
            ClusterError::Crashed(c) => c.at_cycle,
        }
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Stalled(s) => s.fmt(f),
            ClusterError::Deadlock(d) => d.fmt(f),
            ClusterError::Crashed(c) => c.fmt(f),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<CrashInjected> for ClusterError {
    fn from(c: CrashInjected) -> Self {
        ClusterError::Crashed(c)
    }
}

impl From<ClusterStalled> for ClusterError {
    fn from(s: ClusterStalled) -> Self {
        ClusterError::Stalled(s)
    }
}

impl From<DeadlockDetected> for ClusterError {
    fn from(d: DeadlockDetected) -> Self {
        ClusterError::Deadlock(d)
    }
}

/// Per-node execution state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NodePhase {
    Force,
    /// Waiting at the bulk barrier before entering MU.
    BarrierBeforeMu,
    Mu,
    /// Waiting at the bulk barrier before the next step's force phase.
    BarrierBeforeForce,
    Done,
}

/// Outcome of the fast-forward scan (see [`Cluster::try_run_with`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NextEvent {
    /// Some chip still has local work: every cycle matters.
    Busy,
    /// All nodes quiescent; the next state change is at this cycle.
    At(u64),
    /// All nodes quiescent and nothing scheduled: deadlock.
    Never,
}

#[derive(Clone, Debug)]
pub(crate) struct NodeState {
    pub(crate) step: u64,
    pub(crate) phase: NodePhase,
    pub(crate) phase_start: u64,
    pub(crate) force_cycles: u64,
    pub(crate) last_pos_flushed: bool,
    pub(crate) mig_flushed: bool,
    pub(crate) barrier_release: Option<u64>,
}

/// Channel index for the per-node reliability link maps (pos, frc, mig).
#[inline]
pub(crate) fn chan_index(kind: PacketKind) -> usize {
    match kind {
        PacketKind::Position => 0,
        PacketKind::Force => 1,
        PacketKind::Migration => 2,
    }
}

#[inline]
pub(crate) fn chan_of(kind: PacketKind) -> FaultChannel {
    match kind {
        PacketKind::Position => FaultChannel::Pos,
        PacketKind::Force => FaultChannel::Frc,
        PacketKind::Migration => FaultChannel::Mig,
    }
}

#[inline]
pub(crate) fn channel_id(kind: PacketKind) -> ChannelId {
    match kind {
        PacketKind::Position => ChannelId::Pos,
        PacketKind::Force => ChannelId::Frc,
        PacketKind::Migration => ChannelId::Mig,
    }
}

/// Runtime state of the reliable-delivery layer: one
/// [`LinkSender`]/[`LinkReceiver`] pair per *(node, channel, peer)*
/// link, created lazily on first use. All mutations happen in the
/// serial network/delivery phases, so the state (and everything derived
/// from it — stall classes, retransmit deadlines) is engine-invariant.
#[derive(Clone, Debug)]
pub(crate) struct RelState {
    cfg: RelConfig,
    /// `tx[node][channel][peer]` — outbound link senders.
    pub(crate) tx: Vec<[BTreeMap<usize, LinkSender<Delivery>>; 3]>,
    /// `rx[node][channel][peer]` — inbound link receivers.
    pub(crate) rx: Vec<[BTreeMap<usize, LinkReceiver<Delivery>>; 3]>,
    /// Cumulative acks put on the fabric.
    pub(crate) acks_sent: u64,
    /// Corrupted frames discarded at receivers (checksum failures).
    pub(crate) corrupt_dropped: u64,
}

impl RelState {
    fn new(cfg: RelConfig, nodes: usize) -> Self {
        RelState {
            cfg,
            tx: (0..nodes).map(|_| Default::default()).collect(),
            rx: (0..nodes).map(|_| Default::default()).collect(),
            acks_sent: 0,
            corrupt_dropped: 0,
        }
    }

    fn sender(&mut self, node: usize, kind: PacketKind, peer: usize) -> &mut LinkSender<Delivery> {
        let cfg = self.cfg;
        self.tx[node][chan_index(kind)]
            .entry(peer)
            .or_insert_with(|| LinkSender::new(cfg))
    }

    fn receiver(
        &mut self,
        node: usize,
        kind: PacketKind,
        peer: usize,
    ) -> &mut LinkReceiver<Delivery> {
        self.rx[node][chan_index(kind)].entry(peer).or_default()
    }

    /// Earliest retransmission deadline across one node's outbound links.
    fn next_retx_due(&self, node: usize) -> Option<u64> {
        self.tx[node]
            .iter()
            .flat_map(|links| links.values())
            .filter_map(LinkSender::next_retx_due)
            .min()
    }

    /// Whether any of the node's outbound links is actively
    /// retransmitting (head packet has ≥ 1 failed attempt).
    fn retransmitting(&self, node: usize) -> bool {
        self.tx[node]
            .iter()
            .flat_map(|links| links.values())
            .any(LinkSender::retransmitting)
    }

    /// Whether any of the node's outbound links has unacked packets.
    fn inflight(&self, node: usize) -> bool {
        self.tx[node]
            .iter()
            .flat_map(|links| links.values())
            .any(|s| s.inflight() > 0)
    }

    pub(crate) fn total_retransmits(&self) -> u64 {
        self.tx
            .iter()
            .flat_map(|n| n.iter())
            .flat_map(|links| links.values())
            .map(|s| s.retransmits)
            .sum()
    }

    pub(crate) fn total_duplicates(&self) -> u64 {
        self.rx
            .iter()
            .flat_map(|n| n.iter())
            .flat_map(|links| links.values())
            .map(|r| r.duplicates)
            .sum()
    }
}

/// The multi-FPGA FASDA system.
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    pub(crate) global: SimulationSpace,
    /// One timed chip per node, indexed in Eq.-7 order over the node
    /// grid.
    pub chips: Vec<TimedChip>,
    pub(crate) node_coord: Vec<ChipCoord>,
    /// Node grid dimensions; node ids are dense in Eq.-7 order, so the
    /// coordinate → node mapping is pure arithmetic (no hash lookup on
    /// the per-cycle path).
    grid: (u32, u32, u32),
    pub(crate) sync: Vec<ChainedSync<usize>>,
    pub(crate) pos_pz: Vec<Packetizer<usize, PosFlit>>,
    pub(crate) frc_pz: Vec<Packetizer<usize, FrcFlit>>,
    pub(crate) mig_pz: Vec<Packetizer<usize, MigFlit>>,
    /// Position-port fabric (positions + migration).
    pub pos_fabric: SwitchFabric,
    /// Force-port fabric.
    pub frc_fabric: SwitchFabric,
    pub(crate) inbox: Vec<MessageQueue<NetMsg>>,
    /// Seeded fault injection (None = clean fabric).
    pub(crate) faults: Option<FaultState>,
    /// Reliable-delivery layer (None = raw UDP semantics).
    pub(crate) rel: Option<RelState>,
    pub(crate) state: Vec<NodeState>,
    pub(crate) stalls: Vec<u64>,
    pub(crate) barrier_mu: BulkBarrier,
    pub(crate) barrier_force: BulkBarrier,
    /// Global wall-clock cycle.
    pub cycle: u64,
    /// Cycles the fast-forward engine jumped over instead of simulating
    /// (always 0 for `fast_forward: false`; cycle counts are unaffected).
    pub skipped_cycles: u64,
    /// Per-node quiescence cache (optimized engines only): `quiet[n]`
    /// means node `n`'s chip was observed locally idle and nothing has
    /// been injected into it since, so its O(CBBs) idle predicates need
    /// not be re-evaluated every cycle. Invalidated on every phase
    /// transition and every fabric delivery into the node.
    quiet: Vec<bool>,
    /// Whether the current run maintains (and may trust) `quiet`.
    use_quiet: bool,
    pub(crate) records: Vec<NodeStepReport>,
    /// Flight-recorder configuration of the current/last run.
    pub(crate) trace_cfg: TraceConfig,
    /// Hot-path gate: `trace_cfg.level != Off` for the current run.
    pub(crate) tracing: bool,
    /// Engine-level event stream (fast-forward jumps) —
    /// deliberately separate from the per-node streams, which stay
    /// byte-identical across engines.
    pub(crate) tr_engine: NodeRecorder,
    /// Per-(node, step) force-phase stall attribution.
    pub(crate) tr_stalls: StallLedger,
    /// Which chips ticked in the current compute phase (tracing only);
    /// engine-invariant because a `quiet`-skipped chip is idle and would
    /// not have ticked under the serial reference either.
    ticked: Vec<bool>,
    /// Sharded-engine capture hook. `None` (the default) keeps the
    /// in-process oracle path: sends go straight onto the fabrics and
    /// into destination inboxes. `Some` diverts every wire crossing into
    /// a per-cycle event buffer for the cross-shard merge — see the
    /// `shard` module and `DESIGN.md` §11.
    pub(crate) exchange: Option<ExchangeBuf>,
    /// Live telemetry sampler (see the `obs` module). `None` (the
    /// default) keeps the hot loop at a single `is_some()` branch per
    /// cycle. A runtime attachment like the trace sinks — never
    /// checkpointed, never part of the simulated state.
    pub(crate) obs: Option<Box<crate::obs::ObsLive>>,
}

/// One captured wire crossing: a data frame or ack that left an owned
/// node's port this cycle. `arrive` is the post-serialization arrival
/// cycle at the destination port (source-side state already advanced);
/// the destination shard completes the send with
/// [`SwitchFabric::rx_admit`] during the merge. `extra` carries a fault
/// layer delay applied *after* port admission, exactly as the oracle
/// adds it after `SwitchFabric::send`.
#[derive(Clone, Debug)]
pub(crate) struct WireEvent {
    pub(crate) stage: u8,
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) arrive: u64,
    pub(crate) extra: u64,
    pub(crate) msg: NetMsg,
}

/// Per-cycle wire-event capture state for one shard worker.
///
/// `stage` stamps each event with its generation phase — 0 for fresh
/// sends in [`Cluster::network_cycle`], 1 for retransmissions, 2 for
/// acks emitted inside [`Cluster::deliver_due`]. The oracle generates
/// events in (stage, src) order (each phase walks nodes in ascending
/// order), so a stable sort by that key over the concatenated per-shard
/// buffers reproduces the oracle's exact per-inbox admission order —
/// including the destination-port contention trajectory and the inbox
/// sequence numbers that tie-break simultaneous deliveries.
#[derive(Debug)]
pub(crate) struct ExchangeBuf {
    /// Contiguous node range this worker owns.
    pub(crate) owned: std::ops::Range<usize>,
    /// Generation stage stamped onto captured events.
    pub(crate) stage: u8,
    /// Events captured since the last [`Cluster::take_wire_events`].
    pub(crate) events: Vec<WireEvent>,
}

impl Cluster {
    /// Build the cluster over a simulation space and load the particles.
    pub fn new(cfg: ClusterConfig, sys: &ParticleSystem) -> Self {
        let global = sys.space;
        let probe = ChipGeometry::new(global, cfg.block, ChipCoord::new(0, 0, 0));
        let grid = probe.grid();
        let n = probe.num_chips() as usize;
        assert!(n >= 2, "use TimedChip::run_timestep for single-chip runs");

        // Node ids in Eq.-7 order over the chip grid.
        let mut node_coord = Vec::with_capacity(n);
        for x in 0..grid.0 {
            for y in 0..grid.1 {
                for z in 0..grid.2 {
                    node_coord.push(ChipCoord::new(x, y, z));
                }
            }
        }
        // Match Eq. 7: z fastest — the triple loop above already does
        // x-major / z-fastest ordering, so the node id of a coordinate is
        // dense arithmetic.
        let node_of = |c: &ChipCoord| ((c.x * grid.1 + c.y) * grid.2 + c.z) as usize;
        debug_assert!(node_coord.iter().enumerate().all(|(i, c)| node_of(c) == i));

        let mut chips = Vec::with_capacity(n);
        let mut sync = Vec::with_capacity(n);
        let mut pos_pz = Vec::with_capacity(n);
        let mut frc_pz = Vec::with_capacity(n);
        let mut mig_pz = Vec::with_capacity(n);
        for coord in &node_coord {
            let geo = ChipGeometry::new(global, cfg.block, *coord);
            let mut chip = TimedChip::new(cfg.chip, geo, sys.units, cfg.dt_fs);
            chip.load(sys);
            let send: Vec<usize> = chip.send_chips.iter().map(node_of).collect();
            let recv: Vec<usize> = chip.recv_chips.iter().map(node_of).collect();
            let s = ChainedSync::new(send, recv);
            pos_pz.push(Packetizer::new(
                PacketKind::Position,
                s.send_peers.clone(),
                cfg.packet_cooldown,
            ));
            frc_pz.push(Packetizer::new(
                PacketKind::Force,
                s.recv_peers.clone(),
                cfg.packet_cooldown,
            ));
            mig_pz.push(Packetizer::new(
                PacketKind::Migration,
                s.mig_peers.clone(),
                cfg.packet_cooldown,
            ));
            sync.push(s);
            chips.push(chip);
        }

        let total: usize = chips.iter().map(TimedChip::num_particles).sum();
        assert_eq!(total, sys.len(), "every particle must land on some chip");

        let bulk_latency = match cfg.sync {
            SyncMode::Bulk { latency } => latency,
            SyncMode::Chained => 0,
        };

        let pos_fabric = match cfg.loss {
            Some((p, seed)) => {
                SwitchFabric::new(cfg.topology, n, cfg.bits_per_cycle).with_loss(p, seed)
            }
            None => SwitchFabric::new(cfg.topology, n, cfg.bits_per_cycle),
        };
        let frc_fabric = match cfg.loss {
            Some((p, seed)) => SwitchFabric::new(cfg.topology, n, cfg.bits_per_cycle)
                .with_loss(p, seed.wrapping_add(1)),
            None => SwitchFabric::new(cfg.topology, n, cfg.bits_per_cycle),
        };
        let faults = cfg
            .faults
            .clone()
            .filter(|p| !p.is_none())
            .map(FaultState::new);
        let rel = cfg.reliability.map(|rc| RelState::new(rc, n));

        Cluster {
            cfg,
            global,
            chips,
            node_coord,
            grid,
            sync,
            pos_pz,
            frc_pz,
            mig_pz,
            pos_fabric,
            frc_fabric,
            inbox: (0..n).map(|_| MessageQueue::new()).collect(),
            faults,
            rel,
            state: vec![
                NodeState {
                    step: 0,
                    phase: NodePhase::Force,
                    phase_start: 0,
                    force_cycles: 0,
                    last_pos_flushed: false,
                    mig_flushed: false,
                    barrier_release: None,
                };
                n
            ],
            stalls: vec![0; n],
            barrier_mu: BulkBarrier::new(n, bulk_latency),
            barrier_force: BulkBarrier::new(n, bulk_latency),
            cycle: 0,
            skipped_cycles: 0,
            quiet: vec![false; n],
            use_quiet: false,
            records: Vec::new(),
            trace_cfg: TraceConfig::OFF,
            tracing: false,
            tr_engine: NodeRecorder::off(),
            tr_stalls: StallLedger::new(n),
            ticked: vec![false; n],
            exchange: None,
            obs: None,
        }
    }

    /// Attach a live telemetry sampler for the next run(s). The sampler
    /// fires on the cadence of [`EngineConfig::heartbeat_every`]; it is
    /// a pure observer — simulated state and reports are unaffected.
    pub fn attach_obs(&mut self, obs: Box<crate::obs::ObsLive>) {
        self.obs = Some(obs);
    }

    /// Detach the live telemetry sampler (e.g. to read its beat count).
    pub fn take_obs(&mut self) -> Option<Box<crate::obs::ObsLive>> {
        self.obs.take()
    }

    /// The node range the current execution context owns: the shard
    /// worker's slice in sharded mode, every node otherwise. All
    /// per-node driver loops iterate this range, which is what lets one
    /// code path serve both the in-process oracle and the shard workers.
    #[inline]
    pub(crate) fn owned_range(&self) -> std::ops::Range<usize> {
        match &self.exchange {
            Some(ex) => ex.owned.clone(),
            None => 0..self.num_nodes(),
        }
    }

    /// Whether every owned node has completed `steps` timesteps.
    pub(crate) fn owned_done(&self, steps: u64) -> bool {
        self.owned_range()
            .all(|n| self.state[n].phase == NodePhase::Done && self.state[n].step >= steps)
    }

    /// Drain the wire events captured since the last call (sharded mode;
    /// empty in oracle mode).
    pub(crate) fn take_wire_events(&mut self) -> Vec<WireEvent> {
        self.exchange
            .as_mut()
            .map_or_else(Vec::new, |ex| std::mem::take(&mut ex.events))
    }

    /// Merge-admit one cycle's wire events (own + every peer shard's):
    /// stable-sort by (stage, src) to reconstruct the oracle's global
    /// generation order, then complete destination-port admission and
    /// inbox insertion for the events whose destination this worker
    /// owns. Events for other shards' nodes are skipped — their owners
    /// admit them from their own copy of the same merged list.
    pub(crate) fn admit_wire_events(&mut self, mut events: Vec<WireEvent>) {
        events.sort_by_key(|e| (e.stage, e.src));
        let owned = self.owned_range();
        for e in events {
            let dst = e.dst as usize;
            if !owned.contains(&dst) {
                continue;
            }
            let kind = match &e.msg {
                NetMsg::Data(d) => d.cargo.kind(),
                NetMsg::Ack { channel, .. } => *channel,
            };
            let at = match kind {
                PacketKind::Force => self.frc_fabric.rx_admit(e.arrive, dst),
                _ => self.pos_fabric.rx_admit(e.arrive, dst),
            };
            self.inbox[dst].send(at + e.extra, e.msg);
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.chips.len()
    }

    /// Node coordinates in the logical torus.
    pub fn node_coord(&self, node: usize) -> ChipCoord {
        self.node_coord[node]
    }

    /// Node id of a chip coordinate (dense Eq.-7 index, inverse of
    /// [`Cluster::node_coord`]).
    #[inline]
    fn node_of(&self, c: ChipCoord) -> usize {
        ((c.x * self.grid.1 + c.y) * self.grid.2 + c.z) as usize
    }

    /// Run `steps` timesteps; returns the run report.
    ///
    /// # Panics
    /// If the cluster fails to converge (see [`Cluster::try_run`] for the
    /// non-panicking variant used in failure-injection studies).
    pub fn run(&mut self, steps: u64) -> ClusterRunReport {
        self.run_with(steps, &EngineConfig::serial())
    }

    /// [`Cluster::run`] under an explicit engine configuration.
    pub fn run_with(&mut self, steps: u64, engine: &EngineConfig) -> ClusterRunReport {
        match self.try_run_with(steps, MAX_RUN_CYCLES, engine) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Run `steps` timesteps with an explicit cycle budget; returns
    /// `Err(ClusterError)` instead of panicking when progress stops:
    /// [`ClusterError::Stalled`] when the budget ran out, or
    /// [`ClusterError::Deadlock`] when the driver proves no event can
    /// ever fire again (e.g. a lost sync marker with reliability off).
    pub fn try_run(&mut self, steps: u64, cycle_budget: u64) -> Result<ClusterRunReport, ClusterError> {
        self.try_run_with(steps, cycle_budget, &EngineConfig::serial())
    }

    /// [`Cluster::try_run`] under an explicit engine configuration.
    ///
    /// Every global cycle is split into a *compute phase* — each
    /// non-stalled node's chip ticks one cycle against state frozen at the
    /// cycle start, touching only that chip, so the chips may tick on the
    /// chip crew in any order — and a serial *exchange phase* that runs
    /// in node order: egress drains, packetizer offers and marker flushes,
    /// sync bookkeeping, barrier arrivals and phase transitions, then the
    /// fabric and delivery sweeps. Because no compute-phase tick observes
    /// another node's same-cycle exchange, the interleaving is equivalent
    /// to the serial reference and results are bit-identical for any
    /// thread count. With `fast_forward`, cycles in which every node is
    /// quiescent are skipped by jumping the clock to the next scheduled
    /// event (delivery, packet departure, barrier release or stall
    /// expiry); cycle counts still include the skipped span.
    pub fn try_run_with(
        &mut self,
        steps: u64,
        cycle_budget: u64,
        engine: &EngineConfig,
    ) -> Result<ClusterRunReport, ClusterError> {
        assert!(steps > 0);
        let owned = self.owned_range();
        let members = crew::members(engine.threads, crew::host_cores(), owned.len());
        crew::run(members, owned, self.num_nodes(), |crew| {
            self.cycle_loop(steps, cycle_budget, engine, crew)
        })
    }

    /// The global cycle loop of [`Cluster::try_run_with`], with the
    /// compute phase run on `crew`.
    pub(crate) fn cycle_loop(
        &mut self,
        steps: u64,
        cycle_budget: u64,
        engine: &EngineConfig,
        crew: &mut Crew<'_>,
    ) -> Result<ClusterRunReport, ClusterError> {
        let run_start = self.cycle;
        self.arm_run(engine);

        let mut idle_streak = 0u64;
        // `crash=NODE@STEP` directives: a node "dies" once its force
        // phase for that step is underway. Checked at the cycle-loop top
        // so a run resumed from a checkpoint taken at the step boundary
        // (phase still Done/armed, no force cycle executed yet) does not
        // immediately re-fire; the resume path strips fired directives
        // with `FaultPlan::without_crash`/`without_crash_at` anyway.
        // Several directives may be armed (staggered crashes); if more
        // than one is due on the same cycle, the lowest node fires —
        // the same order the sharded merge resolves concurrent crashes.
        let crashes: Vec<CrashPoint> = self
            .cfg
            .faults
            .as_ref()
            .map(|p| p.crashes.clone())
            .unwrap_or_default();

        while !self.all_done(steps) {
            let fired = crashes
                .iter()
                .filter(|cp| {
                    let node = cp.node as usize;
                    node < self.num_nodes()
                        && self.state[node].phase == NodePhase::Force
                        && self.state[node].step == cp.step
                        && self.cycle > self.state[node].phase_start
                })
                .min_by_key(|cp| cp.node);
            if let Some(cp) = fired {
                return Err(CrashInjected {
                    at_cycle: self.cycle,
                    node: cp.node as usize,
                    step: cp.step,
                    packets_lost: self.pos_fabric.packets_lost + self.frc_fabric.packets_lost,
                }
                .into());
            }
            let stepped = self.compute_phase(crew);
            if self.tracing {
                self.attribute_cycle();
            }
            self.exchange_actions(steps);
            self.network_cycle();
            let delivered = self.deliver_due();
            self.cycle += 1;
            if self.obs.is_some() {
                self.obs_beat(steps);
            }
            if self.cycle - run_start >= cycle_budget {
                return Err(self.stalled().into());
            }
            // Deadlock detection for engines without fast-forward (the
            // fast-forward scan below proves deadlock itself): on a long
            // idle streak — no chip ticked, nothing delivered — scan the
            // event horizon; when nothing is scheduled anywhere, the
            // cluster can provably never progress again.
            if !engine.fast_forward {
                if stepped || delivered {
                    idle_streak = 0;
                } else {
                    idle_streak += 1;
                    if idle_streak.is_multiple_of(DEADLOCK_SCAN_INTERVAL)
                        && matches!(self.next_event_cycle(), NextEvent::Never)
                    {
                        return Err(self.deadlocked().into());
                    }
                }
            }
            // Scan for a jump only on cycles that ticked no chip and
            // delivered nothing: a ticked chip is almost certainly still
            // busy next cycle, and a delivery can enable an exchange
            // action one cycle later. Skipping the scan is always safe —
            // it just declines a jump over cycles that would have been
            // no-ops.
            if engine.fast_forward && !stepped && !delivered && !self.all_done(steps) {
                let cap = run_start + cycle_budget;
                match self.next_event_cycle() {
                    NextEvent::Busy => {}
                    NextEvent::At(t) => self.jump_to(t.min(cap)),
                    // Nothing scheduled and nodes still waiting: a true
                    // deadlock (e.g. a lost sync marker) — report it
                    // instead of spinning out the budget.
                    NextEvent::Never => return Err(self.deadlocked().into()),
                }
                if self.cycle >= cap {
                    return Err(self.stalled().into());
                }
            }
        }

        Ok(self.assemble_report(steps, self.cycle - run_start))
    }

    /// Cold path of the per-cycle telemetry hook: hand the cluster to
    /// the attached sampler. Take/put-back so the sampler can read
    /// `&self` without aliasing its own `&mut`.
    #[cold]
    fn obs_beat(&mut self, steps: u64) {
        let Some(mut obs) = self.obs.take() else {
            return;
        };
        obs.maybe_beat(self, steps);
        self.obs = Some(obs);
    }

    /// Run prologue: reset per-run chip statistics and execution flags,
    /// initialize the flight recorder, and arm every owned node's force
    /// phase for its current step. Extracted from
    /// [`Cluster::try_run_with`] so a shard worker — which arms only the
    /// nodes it owns — executes the identical sequence.
    pub(crate) fn arm_run(&mut self, engine: &EngineConfig) {
        let owned = self.owned_range();
        for node in owned.clone() {
            let chip = &mut self.chips[node];
            chip.reset_stats();
            chip.set_fast_path(engine.fast_path);
            chip.set_soa_scan(engine.soa);
            chip.set_trace(engine.trace);
        }
        self.trace_cfg = engine.trace;
        self.tracing = engine.trace.level != TraceLevel::Off;
        self.tr_engine = NodeRecorder::new(engine.trace);
        self.tr_stalls = StallLedger::new(self.num_nodes());
        self.use_quiet = engine.fast_forward || engine.fast_path;
        self.quiet.iter_mut().for_each(|q| *q = false);
        self.records.clear();
        // arm step 0
        for node in owned {
            self.sync[node].begin_step(self.state[node].step);
            self.chips[node].begin_force_phase();
            self.state[node].phase = NodePhase::Force;
            self.state[node].phase_start = self.cycle;
            self.state[node].last_pos_flushed = false;
            if let Some((s, d)) = self.cfg.straggler {
                if s == node {
                    self.stalls[node] = d;
                }
            }
            if self.tracing {
                let cycle = self.cycle;
                let step = self.state[node].step;
                let stall = self.stalls[node];
                let tr = self.chips[node].trace_mut();
                tr.push(cycle, EventKind::PhaseBegin { phase: PhaseId::Force, step });
                if stall > 0 {
                    tr.push(cycle, EventKind::StallInjected { cycles: stall });
                }
            }
        }
    }

    /// Exchange phase for every owned node: decrement injected stalls,
    /// drain packetizers and flush sync markers, and fire barrier /
    /// phase transitions. Extracted from the [`Cluster::try_run_with`]
    /// cycle loop for reuse by the shard workers; touches only owned
    /// node state, so shard-local execution is oracle-identical.
    pub(crate) fn exchange_actions(&mut self, steps: u64) {
        for node in self.owned_range() {
            if self.stalls[node] > 0 {
                self.stalls[node] -= 1;
                continue;
            }
            match self.state[node].phase {
                NodePhase::Force => self.force_exchange(node),
                NodePhase::Mu => self.mu_exchange(node, steps),
                NodePhase::BarrierBeforeMu => {
                    if self.state[node].barrier_release.is_some_and(|r| self.cycle >= r) {
                        self.enter_mu(node);
                    }
                }
                NodePhase::BarrierBeforeForce => {
                    if self.state[node].barrier_release.is_some_and(|r| self.cycle >= r) {
                        self.enter_next_force(node);
                    }
                }
                NodePhase::Done => {}
            }
        }
    }

    fn stalled(&self) -> ClusterStalled {
        ClusterStalled {
            at_cycle: self.cycle,
            node_states: self
                .state
                .iter()
                .map(|s| (s.step, format!("{:?}", s.phase)))
                .collect(),
            packets_lost: self.pos_fabric.packets_lost + self.frc_fabric.packets_lost,
        }
    }

    fn deadlocked(&self) -> DeadlockDetected {
        DeadlockDetected {
            at_cycle: self.cycle,
            starving: self
                .state
                .iter()
                .enumerate()
                .filter(|(_, s)| s.phase != NodePhase::Done)
                .map(|(n, s)| (n, s.step, format!("{:?}", s.phase)))
                .collect(),
            packets_lost: self.pos_fabric.packets_lost + self.frc_fabric.packets_lost,
            outages: self
                .faults
                .as_ref()
                .map(|f| f.fired_outages())
                .unwrap_or_default(),
        }
    }

    fn all_done(&self, steps: u64) -> bool {
        self.state.iter().all(|s| s.phase == NodePhase::Done && s.step >= steps)
    }

    // ------------------------------------------------------------------

    /// Compute phase: tick every chip that has local work, each against
    /// its own state only, on `crew`; chip independence makes the result
    /// order-invariant. Returns whether any chip ticked this cycle.
    pub(crate) fn compute_phase(&mut self, crew: &mut Crew<'_>) -> bool {
        let tracing = self.tracing;
        let now = self.cycle;
        if tracing {
            self.ticked.iter_mut().for_each(|t| *t = false);
        }
        for node in self.owned_range() {
            let chip = &mut self.chips[node];
            let job = if self.stalls[node] > 0 || (self.use_quiet && self.quiet[node]) {
                Job::Idle
            } else {
                match self.state[node].phase {
                    NodePhase::Force if !chip.force_phase_local_idle() => Job::Force,
                    NodePhase::Mu
                        if !chip.mu_phase_local_idle() || !self.state[node].mig_flushed =>
                    {
                        Job::Mu
                    }
                    NodePhase::Force | NodePhase::Mu => {
                        if self.use_quiet {
                            self.quiet[node] = true;
                        }
                        Job::Idle
                    }
                    _ => Job::Idle,
                }
            };
            if tracing && job != Job::Idle {
                chip.set_trace_now(now);
                self.ticked[node] = true;
            }
            crew.assign(node, job);
        }
        crew.step(&mut self.chips)
    }

    // ------------------------------------------------------------------
    // Stall attribution (tracing only).

    /// Classify one global cycle for every force-phase node: *productive*
    /// when its chip ticked with a busy PE, otherwise one
    /// [`StallCause`]. Runs between the compute and exchange phases so
    /// injected stalls are observed before their per-cycle decrement, and
    /// skips a node's phase-arming cycle (`cycle == phase_start`) so the
    /// per-step totals sum exactly to the node's recorded `force_cycles`.
    pub(crate) fn attribute_cycle(&mut self) {
        for node in self.owned_range() {
            let st = &self.state[node];
            if st.phase != NodePhase::Force || self.cycle <= st.phase_start {
                continue;
            }
            let step = st.step;
            if self.ticked[node] {
                match self.chips[node].force_activity() {
                    ForceActivity::PeBusy => self.tr_stalls.productive(node, step, 1),
                    ForceActivity::OutputBackpressure => {
                        self.tr_stalls
                            .stall(node, step, StallCause::RingBackpressure, 1);
                    }
                    ForceActivity::InputStarved => {
                        self.tr_stalls
                            .stall(node, step, StallCause::FilterStarved, 1);
                    }
                }
            } else {
                let cause = self.classify_idle(node);
                self.tr_stalls.stall(node, step, cause, 1);
            }
        }
    }

    /// Why a force-phase node whose chip did not tick is idle. Checked in
    /// precedence order: an injected stall freezes the node outright; a
    /// completed sync handshake means the phase transition fires on the
    /// next exchange (drained); packets parked in a packetizer are waiting
    /// out the departure cooldown; an outbound link mid-retransmission
    /// (or merely waiting on acks) pins the wait on the reliability
    /// layer; otherwise the node is drained locally and waiting on a
    /// neighbour's markers or data.
    fn classify_idle(&self, node: usize) -> StallCause {
        if self.stalls[node] > 0 {
            return StallCause::Injected;
        }
        if self.sync[node].force_phase_complete() {
            return StallCause::Drained;
        }
        if self.pos_pz[node].pending() > 0 || self.frc_pz[node].pending() > 0 {
            return StallCause::TxCooldown;
        }
        if let Some(rel) = &self.rel {
            if rel.retransmitting(node) {
                return StallCause::Retransmit;
            }
            if rel.inflight(node) {
                return StallCause::WaitAck;
            }
        }
        StallCause::WaitNeighborSync
    }

    /// Fast-forward attribution: every node is quiescent across the
    /// jumped span and no event fires inside it, so each force-phase
    /// node's single-cycle cause holds for all `delta` skipped cycles.
    /// Must run before the jump's stall decrement (classification reads
    /// pre-decrement stalls, exactly like the per-cycle path).
    fn attribute_jump(&mut self, delta: u64) {
        for node in self.owned_range() {
            let st = &self.state[node];
            if st.phase != NodePhase::Force {
                continue;
            }
            let step = st.step;
            let cause = self.classify_idle(node);
            self.tr_stalls.stall(node, step, cause, delta);
        }
    }

    /// Drain the flight-recorder capture of the last traced run: per-node
    /// event streams, the engine stream, and the stall ledger. `None`
    /// when the last run was untraced.
    pub fn take_trace(&mut self) -> Option<Trace> {
        if self.trace_cfg.level == TraceLevel::Off {
            return None;
        }
        let nodes = self.chips.iter_mut().map(TimedChip::take_trace).collect();
        let n = self.num_nodes();
        Some(Trace {
            level: Some(self.trace_cfg.level),
            nodes,
            engine: self.tr_engine.take(),
            stalls: std::mem::replace(&mut self.tr_stalls, StallLedger::new(n)),
        })
    }

    /// Force-phase exchange for one node (everything except the chip
    /// tick, which the compute phase already performed).
    fn force_exchange(&mut self, node: usize) {
        let step = self.state[node].step;

        // Drain EX egress into the encapsulation chains.
        for (peer_coord, flit) in self.chips[node].drain_pos_egress() {
            let peer = self.node_of(peer_coord);
            self.pos_pz[node].offer(&peer, flit, step);
        }
        for (peer_coord, flit) in self.chips[node].drain_frc_egress() {
            let peer = self.node_of(peer_coord);
            self.frc_pz[node].offer(&peer, flit, step);
        }

        // Last-position markers: all local positions routed and departed.
        if !self.state[node].last_pos_flushed && self.chips[node].all_positions_departed() {
            for i in 0..self.sync[node].send_peers.len() {
                let p = self.sync[node].send_peers[i];
                self.pos_pz[node].flush_last(&p, step);
                self.sync[node].mark_last_pos_sent(p);
                if self.tracing {
                    let cycle = self.cycle;
                    self.chips[node]
                        .trace_mut()
                        .push(cycle, EventKind::LastPosSent { peer: p as u32 });
                }
            }
            self.state[node].last_pos_flushed = true;
        }

        // Last-force markers, per §4.4: answered only once every position
        // from that peer has been processed and the forces have departed.
        for i in 0..self.sync[node].recv_peers.len() {
            let p = self.sync[node].recv_peers[i];
            if self.sync[node].owes_last_frc(&p) {
                let pc = self.node_coord[p];
                if self.chips[node].outstanding_from(pc) == 0
                    && self.chips[node].frc_drained_to(pc)
                    && self.chips[node].frc_egress_empty()
                {
                    self.frc_pz[node].flush_last(&p, step);
                    self.sync[node].mark_last_frc_sent(p);
                    if self.tracing {
                        let cycle = self.cycle;
                        self.chips[node]
                            .trace_mut()
                            .push(cycle, EventKind::LastFrcSent { peer: p as u32 });
                    }
                }
            }
        }

        // Phase transition. A `quiet` node was already observed locally
        // idle by the compute phase this cycle, so skip the re-check.
        if self.sync[node].force_phase_complete()
            && ((self.use_quiet && self.quiet[node])
                || self.chips[node].force_phase_local_idle())
        {
            self.state[node].force_cycles = self.cycle - self.state[node].phase_start;
            if self.tracing {
                let cycle = self.cycle;
                let cycles = self.state[node].force_cycles;
                self.chips[node].trace_mut().push(
                    cycle,
                    EventKind::PhaseEnd { phase: PhaseId::Force, step, cycles },
                );
            }
            match self.cfg.sync {
                SyncMode::Chained => self.enter_mu(node),
                SyncMode::Bulk { .. } => {
                    self.state[node].phase = NodePhase::BarrierBeforeMu;
                    // Re-base `phase_start` at barrier entry so the wait
                    // duration is reportable (engine-invariant; nothing
                    // else reads it until the next phase re-sets it).
                    self.state[node].phase_start = self.cycle;
                    if self.tracing {
                        let cycle = self.cycle;
                        let tr = self.chips[node].trace_mut();
                        tr.push(
                            cycle,
                            EventKind::PhaseBegin { phase: PhaseId::BarrierMu, step },
                        );
                        tr.push(cycle, EventKind::BarrierArrive { step });
                    }
                    if let Some(release) = self.barrier_mu.arrive(node, self.cycle) {
                        for s in self.state.iter_mut() {
                            if s.phase == NodePhase::BarrierBeforeMu {
                                s.barrier_release = Some(release);
                            }
                        }
                        self.barrier_mu.reset();
                    }
                }
            }
        }
    }

    fn enter_mu(&mut self, node: usize) {
        self.quiet[node] = false;
        if self.tracing {
            let cycle = self.cycle;
            let step = self.state[node].step;
            let waited = cycle - self.state[node].phase_start;
            let from_barrier = self.state[node].phase == NodePhase::BarrierBeforeMu;
            let tr = self.chips[node].trace_mut();
            if from_barrier {
                tr.push(
                    cycle,
                    EventKind::PhaseEnd { phase: PhaseId::BarrierMu, step, cycles: waited },
                );
            }
            tr.push(cycle, EventKind::PhaseBegin { phase: PhaseId::MotionUpdate, step });
        }
        self.chips[node].begin_mu_phase();
        self.state[node].phase = NodePhase::Mu;
        self.state[node].phase_start = self.cycle;
        self.state[node].mig_flushed = false;
        self.state[node].barrier_release = None;
    }

    /// Motion-update exchange for one node (chip tick already done in the
    /// compute phase).
    fn mu_exchange(&mut self, node: usize, steps: u64) {
        let step = self.state[node].step;

        for (peer_coord, flit) in self.chips[node].drain_mig_egress() {
            let peer = self.node_of(peer_coord);
            self.mig_pz[node].offer(&peer, flit, step);
        }

        if !self.state[node].mig_flushed && self.chips[node].all_migrants_departed() {
            for i in 0..self.sync[node].mig_peers.len() {
                let p = self.sync[node].mig_peers[i];
                self.mig_pz[node].flush_last(&p, step);
                self.sync[node].mark_last_mig_sent(p);
                if self.tracing {
                    let cycle = self.cycle;
                    self.chips[node]
                        .trace_mut()
                        .push(cycle, EventKind::LastMigSent { peer: p as u32 });
                }
            }
            self.state[node].mig_flushed = true;
        }

        if self.state[node].mig_flushed
            && self.sync[node].mu_phase_complete()
            && ((self.use_quiet && self.quiet[node])
                || self.chips[node].mu_phase_local_idle())
        {
            let mu_cycles = self.cycle - self.state[node].phase_start;
            self.chips[node].end_mu_phase();
            self.records.push(NodeStepReport {
                node,
                step,
                force_cycles: self.state[node].force_cycles,
                mu_cycles,
                wall_end: self.cycle,
            });
            if self.tracing {
                let cycle = self.cycle;
                let tr = self.chips[node].trace_mut();
                tr.push(
                    cycle,
                    EventKind::PhaseEnd {
                        phase: PhaseId::MotionUpdate,
                        step,
                        cycles: mu_cycles,
                    },
                );
                tr.push(cycle, EventKind::StepDone { step });
            }
            self.state[node].step += 1;
            if self.state[node].step >= steps {
                self.state[node].phase = NodePhase::Done;
                return;
            }
            match self.cfg.sync {
                SyncMode::Chained => self.enter_next_force(node),
                SyncMode::Bulk { .. } => {
                    self.state[node].phase = NodePhase::BarrierBeforeForce;
                    self.state[node].phase_start = self.cycle;
                    if self.tracing {
                        let cycle = self.cycle;
                        let next = self.state[node].step;
                        let tr = self.chips[node].trace_mut();
                        tr.push(
                            cycle,
                            EventKind::PhaseBegin { phase: PhaseId::BarrierForce, step: next },
                        );
                        tr.push(cycle, EventKind::BarrierArrive { step: next });
                    }
                    if let Some(release) = self.barrier_force.arrive(node, self.cycle) {
                        for s in self.state.iter_mut() {
                            if s.phase == NodePhase::BarrierBeforeForce {
                                s.barrier_release = Some(release);
                            }
                        }
                        self.barrier_force.reset();
                    }
                }
            }
        }
    }

    fn enter_next_force(&mut self, node: usize) {
        let step = self.state[node].step;
        self.quiet[node] = false;
        if self.tracing {
            let cycle = self.cycle;
            let waited = cycle - self.state[node].phase_start;
            if self.state[node].phase == NodePhase::BarrierBeforeForce {
                self.chips[node].trace_mut().push(
                    cycle,
                    EventKind::PhaseEnd { phase: PhaseId::BarrierForce, step, cycles: waited },
                );
            }
        }
        self.sync[node].begin_step(step);
        self.chips[node].begin_force_phase();
        self.state[node].phase = NodePhase::Force;
        self.state[node].phase_start = self.cycle;
        self.state[node].last_pos_flushed = false;
        self.state[node].barrier_release = None;
        if let Some((s, d)) = self.cfg.straggler {
            if s == node {
                self.stalls[node] = d;
            }
        }
        if self.tracing {
            let cycle = self.cycle;
            let stall = self.stalls[node];
            let tr = self.chips[node].trace_mut();
            tr.push(cycle, EventKind::PhaseBegin { phase: PhaseId::Force, step });
            if stall > 0 {
                tr.push(cycle, EventKind::StallInjected { cycles: stall });
            }
        }
    }

    // ------------------------------------------------------------------
    // Idle fast-forward.

    /// Decide whether the cluster can fast-forward past `self.cycle`.
    ///
    /// A node blocks the jump (`Busy`) when its chip would tick in the
    /// next compute phase. Otherwise nothing in the cluster changes until
    /// one of the scheduled events fires: an inbox delivery, a packetizer
    /// departure, a barrier release, or a stall expiring. Exchange
    /// actions need no events of their own — they are functions of chip
    /// and sync state, which only change through chip ticks (busy) or
    /// deliveries — and the caller never invokes this scan on a cycle
    /// that delivered something, so every delivery-enabled exchange
    /// action gets its follow-up cycle before any jump is considered.
    pub(crate) fn next_event_cycle(&self) -> NextEvent {
        let mut next: Option<u64> = None;
        let mut note = |c: u64| next = Some(next.map_or(c, |n: u64| n.min(c)));
        for node in self.owned_range() {
            if self.stalls[node] > 0 {
                note(self.cycle + self.stalls[node]);
            } else {
                match self.state[node].phase {
                    NodePhase::Force => {
                        let quiet = self.use_quiet && self.quiet[node];
                        if !quiet && !self.chips[node].force_phase_local_idle() {
                            return NextEvent::Busy;
                        }
                    }
                    NodePhase::Mu => {
                        let quiet = self.use_quiet && self.quiet[node];
                        if !quiet
                            && (!self.chips[node].mu_phase_local_idle()
                                || !self.state[node].mig_flushed)
                        {
                            return NextEvent::Busy;
                        }
                    }
                    NodePhase::BarrierBeforeMu | NodePhase::BarrierBeforeForce => {
                        if let Some(r) = self.state[node].barrier_release {
                            note(r);
                        }
                    }
                    NodePhase::Done => {}
                }
            }
            if let Some(d) = self.inbox[node].next_due() {
                note(d);
            }
            if let Some(d) = self.pos_pz[node].next_departure(self.cycle) {
                note(d);
            }
            if let Some(d) = self.frc_pz[node].next_departure(self.cycle) {
                note(d);
            }
            if let Some(d) = self.mig_pz[node].next_departure(self.cycle) {
                note(d);
            }
            // Retransmission timers are event sources too: with anything
            // unacked there is always a deadline, so `Never` (deadlock)
            // is unreachable while the reliability layer still has work.
            if let Some(rel) = &self.rel {
                if let Some(d) = rel.next_retx_due(node) {
                    note(d);
                }
            }
        }
        match next {
            Some(t) => NextEvent::At(t.max(self.cycle)),
            None => NextEvent::Never,
        }
    }

    /// Jump the global clock to `target`, emulating the only side effect
    /// the skipped cycles would have had: one stall decrement per cycle.
    pub(crate) fn jump_to(&mut self, target: u64) {
        if target <= self.cycle {
            return;
        }
        let delta = target - self.cycle;
        if self.tracing {
            self.tr_engine.push(
                self.cycle,
                EventKind::FastForward { to_cycle: target, skipped: delta },
            );
            self.attribute_jump(delta);
        }
        for s in &mut self.stalls {
            *s = s.saturating_sub(delta);
        }
        self.skipped_cycles += delta;
        self.cycle = target;
    }

    pub(crate) fn network_cycle(&mut self) {
        if let Some(ex) = &mut self.exchange {
            ex.stage = 0;
        }
        for node in self.owned_range() {
            if let Some((peer, pkt)) = self.pos_pz[node].tick(self.cycle) {
                self.note_packet_sent(node, ChannelId::Pos, peer, pkt.payloads.len(), pkt.last);
                self.transmit(
                    node,
                    peer,
                    Delivery {
                        from: node,
                        cargo: Cargo::Pos(pkt.payloads),
                        last: pkt.last,
                        step: pkt.step,
                        seq: 0,
                        corrupt: false,
                    },
                );
            }
            if let Some((peer, pkt)) = self.frc_pz[node].tick(self.cycle) {
                self.note_packet_sent(node, ChannelId::Frc, peer, pkt.payloads.len(), pkt.last);
                self.transmit(
                    node,
                    peer,
                    Delivery {
                        from: node,
                        cargo: Cargo::Frc(pkt.payloads),
                        last: pkt.last,
                        step: pkt.step,
                        seq: 0,
                        corrupt: false,
                    },
                );
            }
            if let Some((peer, pkt)) = self.mig_pz[node].tick(self.cycle) {
                self.note_packet_sent(node, ChannelId::Mig, peer, pkt.payloads.len(), pkt.last);
                self.transmit(
                    node,
                    peer,
                    Delivery {
                        from: node,
                        cargo: Cargo::Mig(pkt.payloads),
                        last: pkt.last,
                        step: pkt.step,
                        seq: 0,
                        corrupt: false,
                    },
                );
            }
        }
        if self.rel.is_some() {
            if let Some(ex) = &mut self.exchange {
                ex.stage = 1;
            }
            self.poll_retransmits();
        }
    }

    /// Launch one fresh frame: assign its per-link sequence number and
    /// buffer it for retransmission (reliability on), then put it on the
    /// fabric through the fault plan.
    fn transmit(&mut self, node: usize, peer: usize, mut d: Delivery) {
        if let Some(rel) = &mut self.rel {
            let kind = d.cargo.kind();
            // The stored copy keeps seq 0; retransmissions are re-tagged
            // from the sequence `poll_retransmit` reports.
            let seq = rel.sender(node, kind, peer).launch(self.cycle, d.clone());
            d.seq = seq;
        }
        self.put_on_wire(node, peer, d);
    }

    /// Apply the fault plan to one frame and schedule its delivery (or
    /// loss) on the channel's fabric. Runs only in the serial network /
    /// delivery phases, so outcomes are engine-invariant.
    fn put_on_wire(&mut self, node: usize, peer: usize, mut d: Delivery) {
        let kind = d.cargo.kind();
        let (step, cycle) = (self.state[node].step, self.cycle);
        let outcome = match &mut self.faults {
            Some(f) => f.on_transmit(chan_of(kind), node as u32, peer as u32, step, cycle, d.last),
            None => FaultOutcome::Deliver,
        };
        let channel = channel_id(kind);
        let to = peer as u32;
        let seq = d.seq;
        if self.exchange.is_some() {
            // Sharded capture: serialize on the owned source port now,
            // defer destination-port admission to the cross-shard merge
            // so every worker admits the same global (stage, src) order
            // the oracle produces. Sharded runs refuse the legacy
            // `ClusterConfig::loss` model (its global RNG draw order
            // cannot be partitioned), so plain tx serialization matches
            // the oracle's `send_lossy` exactly.
            match outcome {
                FaultOutcome::Deliver => {
                    let arrive = self.fabric_tx(kind, node, peer);
                    self.push_wire(node, peer, arrive, 0, NetMsg::Data(d));
                }
                FaultOutcome::Drop | FaultOutcome::Kill => {
                    let kill = outcome == FaultOutcome::Kill;
                    self.fabric_drop(kind, node);
                    self.trace_node_event(node, EventKind::FaultDrop { channel, to, seq, kill });
                }
                FaultOutcome::Corrupt => {
                    let arrive = self.fabric_tx(kind, node, peer);
                    d.corrupt = true;
                    self.push_wire(node, peer, arrive, 0, NetMsg::Data(d));
                    self.trace_node_event(node, EventKind::FaultCorrupt { channel, to, seq });
                }
                FaultOutcome::Duplicate => {
                    let at1 = self.fabric_tx(kind, node, peer);
                    let at2 = self.fabric_tx(kind, node, peer);
                    self.push_wire(node, peer, at1, 0, NetMsg::Data(d.clone()));
                    self.push_wire(node, peer, at2, 0, NetMsg::Data(d));
                    self.trace_node_event(node, EventKind::FaultDuplicate { channel, to, seq });
                }
                FaultOutcome::Delay(extra) => {
                    let arrive = self.fabric_tx(kind, node, peer);
                    self.push_wire(node, peer, arrive, extra, NetMsg::Data(d));
                    self.trace_node_event(node, EventKind::FaultDelay { channel, to, seq, extra });
                }
            }
            return;
        }
        match outcome {
            FaultOutcome::Deliver => {
                // `send_lossy` preserves the legacy `ClusterConfig::loss`
                // model (plain `send` when no loss is configured).
                if let Some(at) = self.fabric_send_lossy(kind, node, peer) {
                    self.inbox[peer].send(at, NetMsg::Data(d));
                }
            }
            FaultOutcome::Drop | FaultOutcome::Kill => {
                let kill = outcome == FaultOutcome::Kill;
                self.fabric_drop(kind, node);
                self.trace_node_event(node, EventKind::FaultDrop { channel, to, seq, kill });
            }
            FaultOutcome::Corrupt => {
                let at = self.fabric_send(kind, node, peer);
                d.corrupt = true;
                self.inbox[peer].send(at, NetMsg::Data(d));
                self.trace_node_event(node, EventKind::FaultCorrupt { channel, to, seq });
            }
            FaultOutcome::Duplicate => {
                let at1 = self.fabric_send(kind, node, peer);
                let at2 = self.fabric_send(kind, node, peer);
                self.inbox[peer].send(at1, NetMsg::Data(d.clone()));
                self.inbox[peer].send(at2, NetMsg::Data(d));
                self.trace_node_event(node, EventKind::FaultDuplicate { channel, to, seq });
            }
            FaultOutcome::Delay(extra) => {
                let at = self.fabric_send(kind, node, peer) + extra;
                self.inbox[peer].send(at, NetMsg::Data(d));
                self.trace_node_event(node, EventKind::FaultDelay { channel, to, seq, extra });
            }
        }
    }

    /// Retransmit every link whose head-of-line timeout expired this
    /// cycle. Deterministic iteration (node, then channel, then peer in
    /// BTreeMap order) keeps fabric port bookkeeping engine-invariant.
    fn poll_retransmits(&mut self) {
        const KINDS: [PacketKind; 3] =
            [PacketKind::Position, PacketKind::Force, PacketKind::Migration];
        for node in self.owned_range() {
            let due = self.rel.as_ref().and_then(|r| r.next_retx_due(node));
            if due.is_none_or(|d| d > self.cycle) {
                continue;
            }
            for kind in KINDS {
                let peers: Vec<usize> = self.rel.as_ref().map_or_else(Vec::new, |r| {
                    r.tx[node][chan_index(kind)].keys().copied().collect()
                });
                for peer in peers {
                    let polled = self
                        .rel
                        .as_mut()
                        .and_then(|r| r.tx[node][chan_index(kind)].get_mut(&peer))
                        .and_then(|s| s.poll_retransmit(self.cycle));
                    if let Some((seq, mut d, attempt)) = polled {
                        d.seq = seq;
                        self.trace_node_event(
                            node,
                            EventKind::Retransmit {
                                channel: channel_id(kind),
                                to: peer as u32,
                                seq,
                                attempt,
                            },
                        );
                        self.put_on_wire(node, peer, d);
                    }
                }
            }
        }
    }

    /// Send a cumulative ack back to `peer` on the channel's fabric. Ack
    /// frames cost a full 512-bit fabric send and pass through the fault
    /// plan like any other frame (a corrupted ack is a lost ack).
    fn send_ack(&mut self, node: usize, kind: PacketKind, peer: usize, seq: u32) {
        if let Some(rel) = &mut self.rel {
            rel.acks_sent += 1;
        }
        if self.tracing && self.chips[node].trace_mut().wants(TraceLevel::Full) {
            let cycle = self.cycle;
            self.chips[node].trace_mut().push(
                cycle,
                EventKind::AckSent { channel: channel_id(kind), to: peer as u32, seq },
            );
        }
        let (step, cycle) = (self.state[node].step, self.cycle);
        let outcome = match &mut self.faults {
            Some(f) => f.on_transmit(chan_of(kind), node as u32, peer as u32, step, cycle, false),
            None => FaultOutcome::Deliver,
        };
        let channel = channel_id(kind);
        let msg = NetMsg::Ack { channel: kind, from: node, seq };
        if self.exchange.is_some() {
            match outcome {
                FaultOutcome::Deliver => {
                    let arrive = self.fabric_tx(kind, node, peer);
                    self.push_wire(node, peer, arrive, 0, msg);
                }
                FaultOutcome::Drop | FaultOutcome::Kill => {
                    self.fabric_drop(kind, node);
                    self.trace_node_event(
                        node,
                        EventKind::FaultDrop { channel, to: peer as u32, seq, kill: false },
                    );
                }
                FaultOutcome::Corrupt => {
                    self.fabric_drop(kind, node);
                    self.trace_node_event(
                        node,
                        EventKind::FaultCorrupt { channel, to: peer as u32, seq },
                    );
                }
                FaultOutcome::Duplicate => {
                    let at1 = self.fabric_tx(kind, node, peer);
                    let at2 = self.fabric_tx(kind, node, peer);
                    self.push_wire(node, peer, at1, 0, msg.clone());
                    self.push_wire(node, peer, at2, 0, msg);
                    self.trace_node_event(
                        node,
                        EventKind::FaultDuplicate { channel, to: peer as u32, seq },
                    );
                }
                FaultOutcome::Delay(extra) => {
                    let arrive = self.fabric_tx(kind, node, peer);
                    self.push_wire(node, peer, arrive, extra, msg);
                    self.trace_node_event(
                        node,
                        EventKind::FaultDelay { channel, to: peer as u32, seq, extra },
                    );
                }
            }
            return;
        }
        match outcome {
            FaultOutcome::Deliver => {
                let at = self.fabric_send(kind, node, peer);
                self.inbox[peer].send(at, msg);
            }
            FaultOutcome::Drop | FaultOutcome::Kill => {
                self.fabric_drop(kind, node);
                self.trace_node_event(
                    node,
                    EventKind::FaultDrop { channel, to: peer as u32, seq, kill: false },
                );
            }
            FaultOutcome::Corrupt => {
                // A corrupted ack frame fails the receiver's checksum —
                // observably a lost ack that still burned the tx port.
                self.fabric_drop(kind, node);
                self.trace_node_event(
                    node,
                    EventKind::FaultCorrupt { channel, to: peer as u32, seq },
                );
            }
            FaultOutcome::Duplicate => {
                let at1 = self.fabric_send(kind, node, peer);
                let at2 = self.fabric_send(kind, node, peer);
                self.inbox[peer].send(at1, msg.clone());
                self.inbox[peer].send(at2, msg);
                self.trace_node_event(
                    node,
                    EventKind::FaultDuplicate { channel, to: peer as u32, seq },
                );
            }
            FaultOutcome::Delay(extra) => {
                let at = self.fabric_send(kind, node, peer) + extra;
                self.inbox[peer].send(at, msg);
                self.trace_node_event(
                    node,
                    EventKind::FaultDelay { channel, to: peer as u32, seq, extra },
                );
            }
        }
    }

    /// The fabric a packet kind travels on: force traffic has its own
    /// QSFP port; positions and migration share the other (§5.4).
    #[inline]
    fn fabric_send(&mut self, kind: PacketKind, src: usize, dst: usize) -> u64 {
        match kind {
            PacketKind::Force => self.frc_fabric.send(self.cycle, src, dst),
            _ => self.pos_fabric.send(self.cycle, src, dst),
        }
    }

    #[inline]
    fn fabric_send_lossy(&mut self, kind: PacketKind, src: usize, dst: usize) -> Option<u64> {
        match kind {
            PacketKind::Force => self.frc_fabric.send_lossy(self.cycle, src, dst),
            _ => self.pos_fabric.send_lossy(self.cycle, src, dst),
        }
    }

    #[inline]
    fn fabric_drop(&mut self, kind: PacketKind, src: usize) {
        match kind {
            PacketKind::Force => self.frc_fabric.drop_at_tx(self.cycle, src),
            _ => self.pos_fabric.drop_at_tx(self.cycle, src),
        }
    }

    /// Source half of a sharded fabric send: burn the tx port and return
    /// the store-and-forward arrival cycle at the destination port. The
    /// destination's owner completes admission in
    /// [`Cluster::admit_wire_events`].
    #[inline]
    fn fabric_tx(&mut self, kind: PacketKind, src: usize, dst: usize) -> u64 {
        match kind {
            PacketKind::Force => self.frc_fabric.tx_serialize(self.cycle, src, dst),
            _ => self.pos_fabric.tx_serialize(self.cycle, src, dst),
        }
    }

    /// Capture one wire crossing into the shard exchange buffer.
    fn push_wire(&mut self, src: usize, dst: usize, arrive: u64, extra: u64, msg: NetMsg) {
        let ex = self.exchange.as_mut().expect("wire capture requires sharded mode");
        ex.events.push(WireEvent {
            stage: ex.stage,
            src: src as u32,
            dst: dst as u32,
            arrive,
            extra,
            msg,
        });
    }

    /// Record a sync-tier event on a node's stream at the current cycle.
    #[inline]
    fn trace_node_event(&mut self, node: usize, ev: EventKind) {
        if self.tracing {
            let cycle = self.cycle;
            self.chips[node].trace_mut().push(cycle, ev);
        }
    }

    /// Record a [`EventKind::PacketSent`] on the sending node (Full level
    /// only — packet traffic is too chatty for the sync tier).
    #[inline]
    fn note_packet_sent(&mut self, node: usize, channel: ChannelId, peer: usize, payloads: usize, last: bool) {
        if !self.tracing || !self.chips[node].trace_mut().wants(TraceLevel::Full) {
            return;
        }
        let cycle = self.cycle;
        self.chips[node].trace_mut().push(
            cycle,
            EventKind::PacketSent {
                channel,
                to: peer as u32,
                payloads: payloads as u32,
                last,
            },
        );
    }

    /// Drain every due delivery into its chip; returns whether anything
    /// was delivered. A delivery can enable an exchange action (a marker
    /// completing a sync phase, a flit re-awakening a chip) that only
    /// executes on the *next* cycle's exchange phase, so the fast-forward
    /// scan must never jump over the cycle that follows a delivery.
    pub(crate) fn deliver_due(&mut self) -> bool {
        if let Some(ex) = &mut self.exchange {
            ex.stage = 2;
        }
        let mut delivered = false;
        for node in self.owned_range() {
            while let Some(msg) = self.inbox[node].pop_due(self.cycle) {
                delivered = true;
                match msg {
                    NetMsg::Ack { channel, from, seq } => {
                        // Acks don't touch chip state: `quiet` stays as-is.
                        if let Some(rel) = &mut self.rel {
                            rel.sender(node, channel, from).on_ack(self.cycle, seq);
                        }
                    }
                    NetMsg::Data(d) => {
                        self.quiet[node] = false;
                        let kind = d.cargo.kind();
                        if self.tracing && self.chips[node].trace_mut().wants(TraceLevel::Full) {
                            let payloads = match &d.cargo {
                                Cargo::Pos(f) => f.len(),
                                Cargo::Frc(f) => f.len(),
                                Cargo::Mig(f) => f.len(),
                            } as u32;
                            let cycle = self.cycle;
                            self.chips[node].trace_mut().push(
                                cycle,
                                EventKind::PacketDelivered {
                                    channel: channel_id(kind),
                                    from: d.from as u32,
                                    payloads,
                                    last: d.last,
                                },
                            );
                        }
                        if d.corrupt {
                            // Failed checksum: the frame burned rx
                            // bandwidth but is discarded unacked, so the
                            // sender's timeout recovers it.
                            if let Some(rel) = &mut self.rel {
                                rel.corrupt_dropped += 1;
                            }
                        } else if self.rel.is_some() {
                            let from = d.from;
                            let seq = d.seq;
                            let accept = self
                                .rel
                                .as_mut()
                                .expect("checked")
                                .receiver(node, kind, from)
                                .accept(seq, d);
                            match accept {
                                Accept::Deliver { payloads, cumulative } => {
                                    for (_, dd) in payloads {
                                        self.ingest(node, dd);
                                    }
                                    self.send_ack(node, kind, from, cumulative);
                                }
                                Accept::Buffered { cumulative }
                                | Accept::Duplicate { cumulative } => {
                                    self.send_ack(node, kind, from, cumulative);
                                }
                            }
                        } else {
                            self.ingest(node, d);
                        }
                    }
                }
            }
        }
        delivered
    }

    /// Hand one in-order data frame to the destination chip and advance
    /// the chained-sync tracker on its `last` marker.
    fn ingest(&mut self, node: usize, d: Delivery) {
        let kind = d.cargo.kind();
        match d.cargo {
            Cargo::Pos(flits) => {
                for f in flits {
                    self.chips[node].ingest_remote_pos(f);
                }
            }
            Cargo::Frc(flits) => {
                for f in flits {
                    self.chips[node].ingest_remote_frc(f);
                }
            }
            Cargo::Mig(flits) => {
                for f in flits {
                    self.chips[node].ingest_remote_mig(f);
                }
            }
        }
        if d.last {
            self.sync[node].on_marker(kind, d.from, d.step);
            if self.tracing {
                let cycle = self.cycle;
                self.chips[node].trace_mut().push(
                    cycle,
                    EventKind::MarkerRecv {
                        channel: channel_id(kind),
                        from: d.from as u32,
                        step: d.step,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------

    /// Gather particle state from all chips into `sys`.
    pub fn store_into(&self, sys: &mut ParticleSystem) {
        assert_eq!(sys.space, self.global);
        for chip in &self.chips {
            chip.store_into(sys);
        }
    }

    /// Total particles across chips.
    pub fn num_particles(&self) -> usize {
        self.chips.iter().map(TimedChip::num_particles).sum()
    }

    /// The unit system in use.
    pub fn units(&self) -> UnitSystem {
        self.chips[0].units()
    }

    fn assemble_report(&mut self, steps: u64, total_cycles: u64) -> ClusterRunReport {
        // Merge per-chip utilization counters into a cluster-wide set.
        let mut stats = StatSet::new();
        for chip in &self.chips {
            stats.merge_from(&chip.report(0, 0).stats);
        }
        let per_node_traffic: Vec<_> = self.chips.iter().map(|c| c.traffic.clone()).collect();

        ClusterRunReport {
            steps,
            total_cycles,
            records: std::mem::take(&mut self.records),
            stats,
            per_node_traffic,
            pos_packets: self.pos_fabric.packets,
            frc_packets: self.frc_fabric.packets,
            pos_bits: self.pos_fabric.bits_sent,
            frc_bits: self.frc_fabric.bits_sent,
            clock_hz: self.cfg.chip.hw.clock_hz,
            dt_fs: self.cfg.dt_fs,
            nodes: self.num_nodes(),
            faults_injected: self.faults.as_ref().map_or(0, |f| f.total_injected()),
            reliability: self.rel.as_ref().map(|r| RelSummary {
                retransmits: r.total_retransmits(),
                acks_sent: r.acks_sent,
                duplicates_dropped: r.total_duplicates(),
                corrupt_dropped: r.corrupt_dropped,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (paper-level crash recovery; the `ckpt` module drives the
// file format, retention and segmented re-execution).
// ---------------------------------------------------------------------------

impl fasda_ckpt::Persist for NodePhase {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        w.put_u8(match self {
            NodePhase::Force => 0,
            NodePhase::BarrierBeforeMu => 1,
            NodePhase::Mu => 2,
            NodePhase::BarrierBeforeForce => 3,
            NodePhase::Done => 4,
        });
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        match r.get_u8()? {
            0 => Ok(NodePhase::Force),
            1 => Ok(NodePhase::BarrierBeforeMu),
            2 => Ok(NodePhase::Mu),
            3 => Ok(NodePhase::BarrierBeforeForce),
            4 => Ok(NodePhase::Done),
            t => Err(r.malformed(format!("invalid node phase tag {t}"))),
        }
    }
}

impl fasda_ckpt::Persist for NodeState {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        w.put_u64(self.step);
        self.phase.save(w);
        w.put_u64(self.phase_start);
        w.put_u64(self.force_cycles);
        w.put_bool(self.last_pos_flushed);
        w.put_bool(self.mig_flushed);
        self.barrier_release.save(w);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        Ok(NodeState {
            step: r.get_u64()?,
            phase: fasda_ckpt::Persist::load(r)?,
            phase_start: r.get_u64()?,
            force_cycles: r.get_u64()?,
            last_pos_flushed: r.get_bool()?,
            mig_flushed: r.get_bool()?,
            barrier_release: fasda_ckpt::Persist::load(r)?,
        })
    }
}

/// Checkpointing: `cfg` is configuration; the per-link sender/receiver
/// maps (sequence numbers, unacked in-flight frames, retransmission
/// deadlines, dedup cursors) and the cumulative counters are state.
impl fasda_ckpt::Snapshot for RelState {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        w.put_usize(self.tx.len());
        for node in &self.tx {
            for links in node {
                links.save(w);
            }
        }
        for node in &self.rx {
            for links in node {
                links.save(w);
            }
        }
        w.put_u64(self.acks_sent);
        w.put_u64(self.corrupt_dropped);
    }

    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
        let nodes = r.get_usize()?;
        if nodes != self.tx.len() {
            return Err(r.malformed(format!(
                "reliability node count mismatch: snapshot has {nodes}, cluster has {}",
                self.tx.len()
            )));
        }
        for node in 0..nodes {
            for chan in 0..3 {
                self.tx[node][chan] = Persist::load(r)?;
            }
        }
        for node in 0..nodes {
            for chan in 0..3 {
                self.rx[node][chan] = Persist::load(r)?;
            }
        }
        self.acks_sent = r.get_u64()?;
        self.corrupt_dropped = r.get_u64()?;
        Ok(())
    }
}

/// Section names of a cluster checkpoint container.
pub mod sections {
    /// Configuration fingerprint (guards against restoring into a
    /// differently-shaped cluster).
    pub const META: &str = "meta";
    /// Driver-level state: clock, per-node phase machines, sync.
    pub const DRIVER: &str = "driver";
    /// Per-chip microarchitectural state.
    pub const CHIPS: &str = "chips";
    /// Network state: packetizers, fabrics, inboxes, faults, reliability.
    pub const NET: &str = "net";
    /// Run-accumulator state (records and merged stats of completed
    /// segments) — written by `ckpt::save_checkpoint`.
    pub const RUNNER: &str = "runner";
}

/// Retired `u64` slots in the `driver` section, right after the clock
/// and skipped-cycle words. They held the counters of a since-removed
/// force-phase burst-stepping engine mode, which never changed simulated
/// state. Keeping the slots keeps `FORMAT_VERSION` 1 containers (and the
/// committed golden fixtures) byte-stable: the writer fills them with
/// zeros and the reader skips whatever an older checkpoint stored there.
const RETIRED_DRIVER_WORDS: usize = 6;

impl Cluster {
    /// Fingerprint of everything that must match between the snapshotting
    /// and the restoring cluster. Stored as per-field digests so a
    /// mismatch can name the offending field. The fault plan is
    /// fingerprinted **without** any crash directive (and dropped
    /// entirely when it carries no traffic faults): the resumed run
    /// strips the crash so it does not re-fire, and that must not read
    /// as a config change.
    pub(crate) fn meta_writer(&self) -> fasda_ckpt::Writer {
        use fasda_ckpt::crc32;
        let mut w = fasda_ckpt::Writer::new();
        let dbg = |s: String| crc32(s.as_bytes());
        w.put_u32(dbg(format!("{:?}", self.cfg.chip)));
        w.put_u32(self.cfg.block.0);
        w.put_u32(self.cfg.block.1);
        w.put_u32(self.cfg.block.2);
        w.put_u32(dbg(format!("{:?}", self.cfg.sync)));
        w.put_u32(dbg(format!("{:?}", self.cfg.topology)));
        w.put_f64(self.cfg.bits_per_cycle);
        w.put_u32(self.cfg.packet_cooldown);
        w.put_f64(self.cfg.dt_fs);
        w.put_u32(dbg(format!("{:?}", self.cfg.straggler)));
        w.put_u32(dbg(format!("{:?}", self.cfg.loss)));
        // Fingerprint the recovery-invariant core of the plan: resumed
        // runs strip crash directives (and, after a partition-diagnosed
        // deadlock, flap/partition windows), and a stripped plan must
        // still open the checkpoints its faulty ancestor wrote.
        let faults = self
            .cfg
            .faults
            .as_ref()
            .map(|p| p.without_outages())
            .filter(|p| !p.is_none());
        w.put_u32(dbg(format!("{faults:?}")));
        w.put_u32(dbg(format!("{:?}", self.cfg.reliability)));
        w.put_u32(dbg(format!("{:?}", self.global)));
        w.put_usize(self.num_nodes());
        w.put_usize(self.num_particles());
        w
    }

    fn check_meta(&self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        let mine = self.meta_writer().into_bytes();
        let mut me = fasda_ckpt::Reader::new(&mine, sections::META);
        const FIELDS: [&str; 16] = [
            "chip",
            "block.x",
            "block.y",
            "block.z",
            "sync",
            "topology",
            "bits_per_cycle",
            "packet_cooldown",
            "dt_fs",
            "straggler",
            "loss",
            "faults",
            "reliability",
            "space",
            "nodes",
            "particles",
        ];
        for field in FIELDS {
            let (stored, expected): (u64, u64) = match field {
                "block.x" | "block.y" | "block.z" | "chip" | "sync" | "topology"
                | "packet_cooldown" | "straggler" | "loss" | "faults" | "reliability"
                | "space" => (r.get_u32()? as u64, me.get_u32().expect("meta shape") as u64),
                "bits_per_cycle" | "dt_fs" => {
                    (r.get_f64()?.to_bits(), me.get_f64().expect("meta shape").to_bits())
                }
                _ => (r.get_usize()? as u64, me.get_usize().expect("meta shape") as u64),
            };
            if stored != expected {
                return Err(fasda_ckpt::CkptError::ConfigMismatch {
                    field: field.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Lowest in-flight step across nodes; at a step boundary (all nodes
    /// `Done`) this is the number of completed steps — the step index a
    /// checkpoint taken here is filed under.
    pub fn current_step(&self) -> u64 {
        self.state.iter().map(|s| s.step).min().unwrap_or(0)
    }

    /// Serialize the full microarchitectural state into `cw` as the
    /// `meta`/`driver`/`chips`/`net` sections of a checkpoint container.
    ///
    /// Only *inter-segment* state is captured: everything the run-start
    /// arm loop of [`Cluster::try_run_with`] rebuilds (utilization
    /// counters, traffic tallies, trace recorders, quiescence caches,
    /// phase-local broadcast schedules) is deliberately excluded, which
    /// is what keeps snapshots small and resume bit-identical — see
    /// `DESIGN.md` §9.
    pub fn snapshot_into(&self, cw: &mut fasda_ckpt::ContainerWriter) {
        use fasda_ckpt::{Persist, Snapshot};
        cw.push(sections::META, self.meta_writer());

        let mut w = fasda_ckpt::Writer::new();
        w.put_u64(self.cycle);
        w.put_u64(self.skipped_cycles);
        w.put_bytes(&[0; 8 * RETIRED_DRIVER_WORDS]);
        self.state.save(&mut w);
        self.stalls.save(&mut w);
        fasda_ckpt::snapshot_slice(&self.sync, &mut w);
        self.barrier_mu.snapshot(&mut w);
        self.barrier_force.snapshot(&mut w);
        cw.push(sections::DRIVER, w);

        let mut w = fasda_ckpt::Writer::new();
        w.put_usize(self.chips.len());
        for chip in &self.chips {
            chip.snapshot(&mut w);
        }
        cw.push(sections::CHIPS, w);

        let mut w = fasda_ckpt::Writer::new();
        fasda_ckpt::snapshot_slice(&self.pos_pz, &mut w);
        fasda_ckpt::snapshot_slice(&self.frc_pz, &mut w);
        fasda_ckpt::snapshot_slice(&self.mig_pz, &mut w);
        self.pos_fabric.snapshot(&mut w);
        self.frc_fabric.snapshot(&mut w);
        self.inbox.save(&mut w);
        w.put_bool(self.faults.is_some());
        if let Some(f) = &self.faults {
            f.snapshot(&mut w);
        }
        w.put_bool(self.rel.is_some());
        if let Some(rel) = &self.rel {
            rel.snapshot(&mut w);
        }
        cw.push(sections::NET, w);
    }

    /// Restore the cluster from a parsed checkpoint container. The
    /// receiver must be a freshly built cluster over the *same*
    /// configuration and particle system (enforced through the `meta`
    /// fingerprint — a mismatch returns
    /// [`fasda_ckpt::CkptError::ConfigMismatch`] naming the field).
    /// On error the cluster may be partially overwritten and must be
    /// discarded; no method of this type panics on corrupt input.
    pub fn restore_from(&mut self, c: &fasda_ckpt::Container<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::{Persist, Snapshot};
        self.check_meta(&mut c.reader(sections::META)?)?;

        let r = &mut c.reader(sections::DRIVER)?;
        self.cycle = r.get_u64()?;
        self.skipped_cycles = r.get_u64()?;
        r.take(8 * RETIRED_DRIVER_WORDS)?;
        let state: Vec<NodeState> = Persist::load(r)?;
        if state.len() != self.state.len() {
            return Err(r.malformed(format!(
                "node count mismatch: snapshot has {}, cluster has {}",
                state.len(),
                self.state.len()
            )));
        }
        self.state = state;
        let stalls: Vec<u64> = Persist::load(r)?;
        if stalls.len() != self.stalls.len() {
            return Err(r.malformed("stall vector length mismatch"));
        }
        self.stalls = stalls;
        fasda_ckpt::restore_slice(&mut self.sync, r)?;
        self.barrier_mu.restore(r)?;
        self.barrier_force.restore(r)?;

        let r = &mut c.reader(sections::CHIPS)?;
        let n = r.get_usize()?;
        if n != self.chips.len() {
            return Err(r.malformed(format!(
                "chip count mismatch: snapshot has {n}, cluster has {}",
                self.chips.len()
            )));
        }
        for chip in &mut self.chips {
            chip.restore(r)?;
        }

        let r = &mut c.reader(sections::NET)?;
        fasda_ckpt::restore_slice(&mut self.pos_pz, r)?;
        fasda_ckpt::restore_slice(&mut self.frc_pz, r)?;
        fasda_ckpt::restore_slice(&mut self.mig_pz, r)?;
        self.pos_fabric.restore(r)?;
        self.frc_fabric.restore(r)?;
        let inbox: Vec<fasda_sim::MessageQueue<NetMsg>> = Persist::load(r)?;
        if inbox.len() != self.inbox.len() {
            return Err(r.malformed("inbox count mismatch"));
        }
        self.inbox = inbox;
        let had_faults = r.get_bool()?;
        match (&mut self.faults, had_faults) {
            (Some(f), true) => f.restore(r)?,
            (None, false) => {}
            // Recovery tolerance: a run resumed with a stripped plan may
            // have no traffic faults left at all (the ancestor's plan
            // was outage-only), yet the snapshot carries the ancestor's
            // fault layer. Adopt it into an empty-plan fault state so
            // the injected tallies and link streams survive the splice;
            // with no directives in the plan the restored latches and
            // streams are inert.
            (None, true) => {
                let mut f = FaultState::new(FaultPlan::none());
                f.restore(r)?;
                self.faults = Some(f);
            }
            (Some(_), false) => {
                return Err(r.malformed(
                    "snapshot has no fault layer but the cluster expects one",
                ))
            }
        }
        let had_rel = r.get_bool()?;
        match (&mut self.rel, had_rel) {
            (Some(rel), true) => rel.restore(r)?,
            (None, false) => {}
            _ => {
                return Err(r.malformed(
                    "reliability-layer presence disagrees between snapshot and cluster",
                ))
            }
        }
        Ok(())
    }
}

/// Deterministic final-state dump for recovery and migration diffs: one
/// line per particle with the raw IEEE-754 bits of position/velocity and
/// the raw fixed-point force-accumulator bank bits, keyed by stable ID.
/// Two runs are bit-identical iff their dumps are byte-identical — the
/// CLI's `--dump-state`, the job service's completion dump, and every
/// recovery gate in CI all compare exactly this string.
pub fn state_dump(cluster: &Cluster, sys: &ParticleSystem) -> String {
    let mut out = sys.clone();
    cluster.store_into(&mut out);
    let mut forces = Vec::new();
    for chip in &cluster.chips {
        for cbb in &chip.cbbs {
            for i in 0..cbb.len() {
                forces.push((cbb.id[i], cbb.force[i].map(|f| f.0)));
            }
        }
    }
    forces.sort_by_key(|e| e.0);
    let mut s = String::with_capacity(forces.len() * 120);
    for (id, frc) in forces {
        let p = out.pos[id as usize];
        let v = out.vel[id as usize];
        s.push_str(&format!(
            "{id} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x}\n",
            p.x.to_bits(),
            p.y.to_bits(),
            p.z.to_bits(),
            v.x.to_bits(),
            v.y.to_bits(),
            v.z.to_bits(),
            frc[0] as u64,
            frc[1] as u64,
            frc[2] as u64,
        ));
    }
    s
}
