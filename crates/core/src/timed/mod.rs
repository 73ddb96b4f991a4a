//! The cycle-level FASDA chip model.
//!
//! [`TimedChip`] wires the CBBs of one FPGA onto per-SPE position and
//! force rings plus a motion-update ring, and steps the whole chip one
//! clock cycle at a time. Cycle counts convert to the paper's µs/day
//! metric via [`crate::config::HwParams::us_per_day`]; per-component
//! activity counters regenerate Fig. 17.
//!
//! Single-chip mode drives itself with [`TimedChip::run_timestep`].
//! In multi-chip mode `fasda-cluster` drives the phase transitions and
//! exchanges the EX-node queues ([`TimedChip::drain_pos_egress`] and
//! friends), implementing the packetization, cooldown, and chained
//! synchronization of §4.3–4.4 on top.

pub mod axi;
pub mod cbb;
pub mod pe;
pub mod ring;

use crate::config::ChipConfig;
use crate::datapath::ForceDatapath;
use crate::geometry::{ChipCoord, ChipGeometry};
use cbb::TimedCbb;
use fasda_md::element::{Element, PairTable};
use fasda_md::space::CellCoord;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::vec3::Vec3;
use fasda_sim::{Activity, Cycle, StatSet};
use fasda_trace::{EventKind, NodeRecorder, NodeStream, TraceConfig, TraceLevel};
use pe::{NbrEntry, NbrKind};
use ring::{Direction, FrcFlit, MigFlit, PosFlit, Ring};
use std::collections::{HashMap, VecDeque};

/// Safety cap for self-driven phase loops; a healthy timestep is a few
/// thousand to a few hundred thousand cycles.
const MAX_PHASE_CYCLES: u64 = 200_000_000;

/// Report for one executed phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseReport {
    /// Cycles the phase took on this chip.
    pub cycles: u64,
}

/// Report for one executed timestep on one chip.
#[derive(Clone, Debug, Default)]
pub struct TimestepReport {
    /// Force-evaluation phase cycles.
    pub force_cycles: u64,
    /// Motion-update phase cycles.
    pub mu_cycles: u64,
    /// Per-component utilization counters over the whole timestep window.
    pub stats: StatSet,
    /// Forces produced (valid pairs evaluated).
    pub valid_pairs: u64,
    /// Filter comparisons performed.
    pub comparisons: u64,
    /// Particles that migrated between cells.
    pub migrations: u64,
}

impl TimestepReport {
    /// Total cycles of the timestep.
    pub fn total_cycles(&self) -> u64 {
        self.force_cycles + self.mu_cycles
    }
}

/// Execution phase of a chip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Between timesteps.
    Idle,
    /// Force evaluation (black path of Fig. 4).
    Force,
    /// Motion update (red path of Fig. 4).
    MotionUpdate,
}

/// Per-peer traffic counters (flits; `fasda-net` packs them 4-per-packet).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Position flits sent, per destination chip.
    pub pos_sent: HashMap<ChipCoord, u64>,
    /// Force flits sent, per destination chip.
    pub frc_sent: HashMap<ChipCoord, u64>,
    /// Position flits received, per origin chip.
    pub pos_recv: HashMap<ChipCoord, u64>,
    /// Force flits received back for local particles (local + remote
    /// rings combined).
    pub frc_recv: u64,
    /// Force flits ingested from remote chips (EX-node arrivals).
    pub frc_recv_remote: u64,
    /// Migration flits sent, per destination chip.
    pub mig_sent: HashMap<ChipCoord, u64>,
}

impl TrafficCounters {
    /// Fold another window's counters into this one (per-peer sums).
    pub fn merge_from(&mut self, other: &TrafficCounters) {
        for (k, v) in &other.pos_sent {
            *self.pos_sent.entry(*k).or_default() += v;
        }
        for (k, v) in &other.frc_sent {
            *self.frc_sent.entry(*k).or_default() += v;
        }
        for (k, v) in &other.pos_recv {
            *self.pos_recv.entry(*k).or_default() += v;
        }
        self.frc_recv += other.frc_recv;
        self.frc_recv_remote += other.frc_recv_remote;
        for (k, v) in &other.mig_sent {
            *self.mig_sent.entry(*k).or_default() += v;
        }
    }
}

impl fasda_ckpt::Persist for TrafficCounters {
    fn save(&self, w: &mut fasda_ckpt::Writer) {
        self.pos_sent.save(w);
        self.frc_sent.save(w);
        self.pos_recv.save(w);
        w.put_u64(self.frc_recv);
        w.put_u64(self.frc_recv_remote);
        self.mig_sent.save(w);
    }
    fn load(r: &mut fasda_ckpt::Reader<'_>) -> Result<Self, fasda_ckpt::CkptError> {
        Ok(TrafficCounters {
            pos_sent: fasda_ckpt::Persist::load(r)?,
            frc_sent: fasda_ckpt::Persist::load(r)?,
            pos_recv: fasda_ckpt::Persist::load(r)?,
            frc_recv: r.get_u64()?,
            frc_recv_remote: r.get_u64()?,
            mig_sent: fasda_ckpt::Persist::load(r)?,
        })
    }
}

/// The cycle-level model of one FASDA FPGA.
pub struct TimedChip {
    cfg: ChipConfig,
    geo: ChipGeometry,
    dp: ForceDatapath,
    units: UnitSystem,
    dt_fs: f64,
    acc_over_mass: [f32; Element::COUNT],
    /// The CBBs, indexed by local cell ID.
    pub cbbs: Vec<TimedCbb>,
    pos_rings: Vec<Ring<PosFlit>>,
    frc_rings: Vec<Ring<FrcFlit>>,
    mig_ring: Ring<MigFlit>,
    /// Current cycle (monotonic across phases and timesteps).
    pub cycle: Cycle,
    phase: Phase,
    /// Destination masks per CBB (all particles of a cell share them).
    local_masks: Vec<u64>,
    remote_masks: Vec<u32>,
    /// Peer chips this chip sends positions to; bit `b` of a remote mask
    /// refers to `send_chips[b]`.
    pub send_chips: Vec<ChipCoord>,
    /// Peer chips this chip receives positions from.
    pub recv_chips: Vec<ChipCoord>,
    // EX-node queues (multi-chip mode).
    pos_egress: VecDeque<(ChipCoord, PosFlit)>,
    frc_egress: VecDeque<(ChipCoord, FrcFlit)>,
    mig_egress: VecDeque<(ChipCoord, MigFlit)>,
    pos_ingress: VecDeque<PosFlit>,
    frc_ingress: VecDeque<FrcFlit>,
    mig_ingress: VecDeque<MigFlit>,
    /// Remote-origin neighbour evaluations ingested but not yet complete,
    /// per origin chip (chained-sync bookkeeping, §4.4).
    remote_pos_outstanding: HashMap<ChipCoord, i64>,
    /// Force flits issued toward each remote origin (eject-time count);
    /// compared with EX-captured counts to detect full force drain.
    frc_issued_to: HashMap<ChipCoord, u64>,
    /// Cached local destination masks for remote source cells.
    halo_mask_cache: HashMap<(i32, i32, i32), u64>,
    // Ring activity counters (capacity = ring nodes).
    pr_stats: Vec<Activity>,
    fr_stats: Vec<Activity>,
    mu_ring_stats: Activity,
    migrations: u64,
    /// Last broadcast-injection cycle per (CBB, SPE), for the PC
    /// broadcast cooldown.
    last_bcast: Vec<Vec<u64>>,
    /// Effective broadcast cooldown for the current force phase.
    bcast_cooldown: u64,
    /// Traffic counters since the last stats reset.
    pub traffic: TrafficCounters,
    completed_buf: Vec<(ChipCoord, u32, u32)>,
    /// Flight recorder for this node's event stream (off by default).
    trace: NodeRecorder,
    /// Global cluster cycle to stamp chip-emitted events with. The chip's
    /// own `cycle` counter only advances while the chip is ticked, so the
    /// cluster driver keeps this field synced to the global clock.
    trace_now: u64,
    /// Last observed (dispatched, ejected) CBB counter sums, for per-cycle
    /// `PeActivity` diffs.
    pe_prev: (u64, u64),
}

/// What the chip's force-phase datapath is doing right now, as seen from
/// outside — the driver's stall-attribution probe for *ticked* chips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForceActivity {
    /// At least one PE is evaluating pairs: the cycle is productive.
    PeBusy,
    /// PEs idle, but force/broadcast traffic is still draining through
    /// `frc_out`/`bcast` queues, the force rings, or the EX egress.
    OutputBackpressure,
    /// PEs idle with input work still in transit (position rings, EX
    /// ingress) — the filter banks are starved.
    InputStarved,
}


impl TimedChip {
    /// Build a chip for a block of the simulation space.
    pub fn new(cfg: ChipConfig, geo: ChipGeometry, units: UnitSystem, dt_fs: f64) -> Self {
        cfg.validate().expect("invalid chip config");
        let mut dp = ForceDatapath::new(&PairTable::new(units), cfg.hw.table);
        if let Some(params) = cfg.electrostatics {
            dp = dp.with_electrostatics(params);
        }
        if cfg.cutoff_cells < 1.0 {
            dp = dp.with_cutoff(cfg.cutoff_cells);
        }
        let n = geo.num_cbbs();
        let multi = geo.num_chips() > 1;
        let nodes = n + usize::from(multi);
        let send_chips = geo.send_chips();
        let recv_chips = geo.recv_chips();
        assert!(
            send_chips.len() <= 32,
            "remote destination mask is u32: at most 32 peer chips"
        );

        // Destination masks per CBB.
        let mut local_masks = vec![0u64; n];
        let mut remote_masks = vec![0u32; n];
        for cbb in 0..n as u16 {
            for d in geo.halfshell_dests(cbb) {
                if d.chip == geo.chip {
                    local_masks[cbb as usize] |= 1 << d.cbb;
                } else {
                    let b = send_chips
                        .iter()
                        .position(|c| *c == d.chip)
                        .expect("dest chip in send list");
                    remote_masks[cbb as usize] |= 1 << b;
                }
            }
        }

        let mut acc_over_mass = [0.0f32; Element::COUNT];
        for e in Element::ALL {
            acc_over_mass[e.index()] = (units.acc_factor() / e.mass()) as f32;
        }

        let spes = cfg.spes_per_cbb as usize;
        TimedChip {
            dp,
            units,
            dt_fs,
            acc_over_mass,
            cbbs: (0..n as u16)
                .map(|i| TimedCbb::new(&cfg, geo.cbb_gcell(i)))
                .collect(),
            pos_rings: (0..spes)
                .map(|_| Ring::new(nodes, Direction::Clockwise))
                .collect(),
            frc_rings: (0..spes)
                .map(|_| Ring::new(nodes, Direction::CounterClockwise))
                .collect(),
            mig_ring: Ring::new(nodes, Direction::Clockwise),
            cycle: 0,
            phase: Phase::Idle,
            local_masks,
            remote_masks,
            send_chips,
            recv_chips,
            pos_egress: VecDeque::new(),
            frc_egress: VecDeque::new(),
            mig_egress: VecDeque::new(),
            pos_ingress: VecDeque::new(),
            frc_ingress: VecDeque::new(),
            mig_ingress: VecDeque::new(),
            remote_pos_outstanding: HashMap::new(),
            frc_issued_to: HashMap::new(),
            halo_mask_cache: HashMap::new(),
            pr_stats: vec![Activity::with_capacity(nodes as u64); spes],
            fr_stats: vec![Activity::with_capacity(nodes as u64); spes],
            mu_ring_stats: Activity::with_capacity(nodes as u64),
            migrations: 0,
            last_bcast: vec![vec![0; spes]; n],
            bcast_cooldown: 0,
            traffic: TrafficCounters::default(),
            completed_buf: Vec::new(),
            trace: NodeRecorder::off(),
            trace_now: 0,
            pe_prev: (0, 0),
            cfg,
            geo,
        }
    }

    /// Chip configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Chip geometry.
    pub fn geometry(&self) -> &ChipGeometry {
        &self.geo
    }

    /// Shared datapath.
    pub fn datapath(&self) -> &ForceDatapath {
        &self.dp
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// EX-node index on the rings (only meaningful multi-chip).
    fn ex_node(&self) -> usize {
        self.cbbs.len()
    }

    /// Load this chip's share of a particle system (the cells inside its
    /// block).
    pub fn load(&mut self, sys: &ParticleSystem) {
        assert_eq!(sys.space, self.geo.global, "system/geometry mismatch");
        for cbb in &mut self.cbbs {
            cbb.id.clear();
            cbb.elem.clear();
            cbb.offset.clear();
            cbb.vel.clear();
            cbb.force.clear();
        }
        for i in 0..sys.len() {
            let cc = sys.space.cell_of(sys.pos[i]);
            let Some(cbb_idx) = self.geo.cbb_of_gcell(cc) else {
                continue;
            };
            let off = sys.pos[i] - Vec3::new(cc.x as f64, cc.y as f64, cc.z as f64);
            let v = sys.vel[i];
            self.cbbs[cbb_idx as usize].push_particle(
                sys.id[i],
                sys.element[i],
                crate::functional::quantize_offset(off),
                [v.x as f32, v.y as f32, v.z as f32],
            );
        }
    }

    /// Install (or disable) the flight recorder on this chip. Resets the
    /// recorder and re-bases the `PeActivity` diff counters.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.trace = NodeRecorder::new(cfg);
        self.trace_now = 0;
        self.pe_prev = self.pe_counters();
    }

    /// Sync the global-cycle stamp used for chip-emitted events. The
    /// cluster driver calls this before every tick: the chip's own
    /// `cycle` counter only advances while the chip runs, so it diverges
    /// from the global clock on skipped cycles.
    #[inline]
    pub fn set_trace_now(&mut self, cycle: u64) {
        self.trace_now = cycle;
    }

    /// The chip's recorder (the driver appends its per-node events here
    /// so each node has exactly one ordered stream).
    pub fn trace_mut(&mut self) -> &mut NodeRecorder {
        &mut self.trace
    }

    /// Drain the captured event stream.
    pub fn take_trace(&mut self) -> NodeStream {
        self.trace.take()
    }

    fn pe_counters(&self) -> (u64, u64) {
        let mut dispatched = 0;
        let mut ejected = 0;
        for cbb in &self.cbbs {
            dispatched += cbb.dispatched;
            ejected += cbb.ejected;
        }
        (dispatched, ejected)
    }

    /// Classify what the force-phase datapath is doing (stall-attribution
    /// probe; see [`ForceActivity`]). Meaningful right after a force tick.
    pub fn force_activity(&self) -> ForceActivity {
        for cbb in &self.cbbs {
            for spe in &cbb.spes {
                if spe.pes.iter().any(|pe| !pe.is_idle()) {
                    return ForceActivity::PeBusy;
                }
            }
        }
        let output_live = self
            .cbbs
            .iter()
            .flat_map(|c| c.spes.iter())
            .any(|s| !s.frc_out.is_empty() || !s.bcast.is_empty())
            || self.frc_rings.iter().any(|r| !r.is_empty())
            || !self.frc_egress.is_empty()
            || !self.pos_egress.is_empty();
        if output_live {
            ForceActivity::OutputBackpressure
        } else {
            ForceActivity::InputStarved
        }
    }

    /// Enable/disable the CBBs' fast-path execution (idle-SPE skipping,
    /// precomputed station scans). Bit-identical to the reference
    /// per-cycle walk; off by default so the plain interpretation stays
    /// the oracle the fast path is validated against.
    pub fn set_fast_path(&mut self, on: bool) {
        for cbb in &mut self.cbbs {
            cbb.set_fast_path(on);
        }
    }

    /// Enable/disable the SoA scan path on every CBB (see
    /// [`TimedCbb::set_soa_scan`]). Bit-identical to the scalar path.
    pub fn set_soa_scan(&mut self, on: bool) {
        for cbb in &mut self.cbbs {
            cbb.set_soa_scan(on);
        }
    }

    /// Total particles on this chip.
    pub fn num_particles(&self) -> usize {
        self.cbbs.iter().map(TimedCbb::len).sum()
    }

    /// Write this chip's particles back into `sys` by stable ID.
    pub fn store_into(&self, sys: &mut ParticleSystem) {
        for cbb in &self.cbbs {
            let base = Vec3::new(
                cbb.gcell.x as f64,
                cbb.gcell.y as f64,
                cbb.gcell.z as f64,
            );
            for i in 0..cbb.len() {
                let idx = cbb.id[i] as usize;
                let [ox, oy, oz] = cbb.offset[i].to_f64();
                sys.pos[idx] = base + Vec3::new(ox, oy, oz);
                sys.vel[idx] = Vec3::new(
                    cbb.vel[i][0] as f64,
                    cbb.vel[i][1] as f64,
                    cbb.vel[i][2] as f64,
                );
                sys.force[idx] = Vec3::new(
                    cbb.force[i][0].to_f64(),
                    cbb.force[i][1].to_f64(),
                    cbb.force[i][2].to_f64(),
                );
                sys.element[idx] = cbb.elem[i];
            }
        }
    }

    /// Reset all utilization and traffic counters (start of a measurement
    /// window).
    pub fn reset_stats(&mut self) {
        let nodes = (self.cbbs.len() + usize::from(self.geo.num_chips() > 1)) as u64;
        for a in self.pr_stats.iter_mut().chain(self.fr_stats.iter_mut()) {
            *a = Activity::with_capacity(nodes);
        }
        self.mu_ring_stats = Activity::with_capacity(nodes);
        for cbb in &mut self.cbbs {
            cbb.mu_stats = Activity::with_capacity(1);
            for spe in &mut cbb.spes {
                for pe in &mut spe.pes {
                    pe.filter_stats = Activity::with_capacity(self.cfg.hw.filters_per_pe as u64);
                    pe.pe_stats = Activity::with_capacity(1);
                }
            }
        }
        self.migrations = 0;
        self.traffic = TrafficCounters::default();
        self.frc_issued_to.clear();
    }

    /// Begin the force-evaluation phase.
    pub fn begin_force_phase(&mut self) {
        assert!(self.phase != Phase::Force, "already in force phase");
        self.phase = Phase::Force;
        for i in 0..self.cbbs.len() {
            let (lm, rm) = (self.local_masks[i], self.remote_masks[i]);
            self.cbbs[i].begin_force_phase(self.geo.chip, i as u16, lm, rm);
        }
        self.bcast_cooldown = if self.cfg.hw.bcast_cooldown > 0 {
            self.cfg.hw.bcast_cooldown as u64
        } else {
            // Auto: pace the PC to the rate its 13 receivers retire
            // positions (scan + pipeline-drain over the SPE filter bank).
            let total: usize = self.cbbs.iter().map(TimedCbb::len).sum();
            let avg_home = (total / self.cbbs.len().max(1)).max(1) as u64;
            let filters_per_spe =
                (self.cfg.hw.filters_per_pe * self.cfg.pes_per_spe) as u64;
            (13 * (avg_home + self.cfg.hw.force_pipe_latency as u64) / filters_per_spe).max(1)
        };
        for row in &mut self.last_bcast {
            row.iter_mut().for_each(|c| *c = 0);
        }
    }

    /// One force-phase cycle.
    pub fn step_force_cycle(&mut self) {
        debug_assert_eq!(self.phase, Phase::Force);
        let multi = self.geo.num_chips() > 1;
        let ex = self.ex_node();
        let n = self.cbbs.len();

        // 1. Rotate rings, recording activity.
        for k in 0..self.pos_rings.len() {
            let occ = self.pos_rings[k].occupancy() as u64;
            self.pr_stats[k].record(occ, occ > 0);
            self.pos_rings[k].rotate();
            let occ = self.frc_rings[k].occupancy() as u64;
            self.fr_stats[k].record(occ, occ > 0);
            self.frc_rings[k].rotate();
        }

        // 2. Ring-node processing.
        for k in 0..self.pos_rings.len() {
            // Position ring: PRN delivery at CBB nodes.
            for node in 0..n {
                let deliver = match self.pos_rings[k].at(node) {
                    Some(f) => f.local_mask & (1 << node) != 0,
                    None => false,
                };
                if deliver && !self.cbbs[node].spes[k].pos_in.is_full() {
                    let slot_ref = self.pos_rings[k].at_mut(node);
                    let flit_ref = slot_ref.as_mut().expect("checked");
                    flit_ref.local_mask &= !(1 << node);
                    let flit = *flit_ref;
                    if flit.exhausted() {
                        *slot_ref = None;
                    }
                    let rcid = self.geo.rcid(flit.src_gcell, self.cbbs[node].gcell);
                    let remote = flit.owner_chip != self.geo.chip;
                    let entry = NbrEntry {
                        concat: ForceDatapath::concat(rcid, flit.offset),
                        elem: flit.elem,
                        scan_from: 0,
                        kind: NbrKind::Ring {
                            owner_chip: flit.owner_chip,
                            owner_cbb: flit.owner_cbb,
                            slot: flit.slot,
                            remote,
                        },
                    };
                    self.cbbs[node].spes[k]
                        .pos_in
                        .push(entry).expect("room checked");
                }
                // else: flit keeps rotating and retries next lap
            }
            // EX capture of remote-destined positions.
            if multi {
                let capture = matches!(self.pos_rings[k].at(ex), Some(f) if f.remote_mask != 0);
                if capture {
                    let slot_ref = self.pos_rings[k].at_mut(ex);
                    let flit_ref = slot_ref.as_mut().expect("checked");
                    let mask = flit_ref.remote_mask;
                    flit_ref.remote_mask = 0;
                    let flit = *flit_ref;
                    if flit.exhausted() {
                        *slot_ref = None;
                    }
                    for b in 0..self.send_chips.len() {
                        if mask & (1 << b) != 0 {
                            let peer = self.send_chips[b];
                            *self.traffic.pos_sent.entry(peer).or_default() += 1;
                            self.pos_egress.push_back((peer, flit));
                        }
                    }
                }
            }

            // Force ring: owner delivery, EX capture of remote-owned.
            for node in 0..n {
                let deliver = matches!(
                    self.frc_rings[k].at(node),
                    Some(f) if f.owner_chip == self.geo.chip && f.owner_cbb as usize == node
                );
                if deliver {
                    let flit = self.frc_rings[k].take(node).expect("checked");
                    self.cbbs[node].accumulate_ring_force(&flit);
                    self.traffic.frc_recv += 1;
                }
            }
            if multi {
                let capture =
                    matches!(self.frc_rings[k].at(ex), Some(f) if f.owner_chip != self.geo.chip);
                if capture {
                    let flit = self.frc_rings[k].take(ex).expect("checked");
                    *self.traffic.frc_sent.entry(flit.owner_chip).or_default() += 1;
                    self.frc_egress.push_back((flit.owner_chip, flit));
                }
            }
        }

        // 3. CBB internals, completion records in CBB index order.
        self.completed_buf.clear();
        let mut buf = std::mem::take(&mut self.completed_buf);
        for cbb in &mut self.cbbs {
            cbb.step_force_collect(self.cycle, &self.dp, &mut buf);
        }
        for &(origin, completed, issued) in &buf {
            *self.remote_pos_outstanding.entry(origin).or_default() -= completed as i64;
            if issued > 0 {
                *self.frc_issued_to.entry(origin).or_default() += issued as u64;
            }
        }
        self.completed_buf = buf;

        // 4. Injections.
        for k in 0..self.pos_rings.len() {
            for (i, cbb) in self.cbbs.iter_mut().enumerate() {
                let spe = &mut cbb.spes[k];
                let cooled = self.cycle >= self.last_bcast[i][k] + self.bcast_cooldown
                    || self.last_bcast[i][k] == 0;
                if cooled {
                    if let Some(flit) = spe.bcast.front().copied() {
                        if self.pos_rings[k].inject(i, flit).is_ok() {
                            spe.bcast.pop_front();
                            self.last_bcast[i][k] = self.cycle.max(1);
                        }
                    }
                }
                if let Some(&flit) = spe.frc_out.peek() {
                    if self.frc_rings[k].inject(i, flit).is_ok() {
                        spe.frc_out.pop();
                    }
                }
            }
            if multi {
                // EX ingress: one flit per ring per cycle, ring chosen by
                // slot parity (the PC0/PC1 interleave of §4.6).
                if let Some(pos) = self.pos_ingress.front() {
                    if pos.slot as usize % self.pos_rings.len() == k {
                        let flit = *pos;
                        if self.pos_rings[k].inject(ex, flit).is_ok() {
                            self.pos_ingress.pop_front();
                        }
                    }
                }
                if let Some(frc) = self.frc_ingress.front() {
                    if frc.slot as usize % self.frc_rings.len() == k {
                        let flit = *frc;
                        if self.frc_rings[k].inject(ex, flit).is_ok() {
                            self.frc_ingress.pop_front();
                        }
                    }
                }
            }
        }

        if self.trace.wants(TraceLevel::Full) {
            let (dispatched, ejected) = self.pe_counters();
            let (pd, pj) = self.pe_prev;
            if dispatched != pd || ejected != pj {
                self.trace.push(
                    self.trace_now,
                    EventKind::PeActivity {
                        dispatched: (dispatched - pd) as u32,
                        ejected: (ejected - pj) as u32,
                    },
                );
                self.pe_prev = (dispatched, ejected);
            }
        }

        self.cycle += 1;
    }

    /// True when this chip has no local force-phase work left. In
    /// multi-chip mode remote work may still arrive; the cluster combines
    /// this with the chained-synchronization handshakes.
    pub fn force_phase_local_idle(&self) -> bool {
        self.cbbs.iter().all(TimedCbb::force_idle)
            && self.pos_rings.iter().all(Ring::is_empty)
            && self.frc_rings.iter().all(Ring::is_empty)
            && self.pos_ingress.is_empty()
            && self.frc_ingress.is_empty()
    }

    /// True when all positions destined to peer chips have left the chip
    /// (broadcast queues empty and no remote-masked flit on a ring).
    pub fn all_positions_departed(&self) -> bool {
        self.cbbs
            .iter()
            .flat_map(|c| c.spes.iter())
            .all(|s| s.bcast.is_empty())
            && self
                .pos_rings
                .iter()
                .all(|r| (0..r.len()).all(|i| r.at(i).is_none_or(|f| f.remote_mask == 0)))
            && self.pos_egress.is_empty()
    }

    /// Outstanding remote-origin work from one peer (ingested position
    /// deliveries not yet fully evaluated).
    pub fn outstanding_from(&self, origin: ChipCoord) -> i64 {
        self.remote_pos_outstanding
            .get(&origin)
            .copied()
            .unwrap_or(0)
    }

    /// True when force flits owed to peers have all left the EX queue.
    pub fn frc_egress_empty(&self) -> bool {
        self.frc_egress.is_empty()
    }

    /// True when every force flit this chip ever issued toward `origin`
    /// has been captured by the EX node (none remain in frc-out FIFOs or
    /// on the force rings).
    pub fn frc_drained_to(&self, origin: ChipCoord) -> bool {
        let issued = self.frc_issued_to.get(&origin).copied().unwrap_or(0);
        let captured = self.traffic.frc_sent.get(&origin).copied().unwrap_or(0);
        debug_assert!(captured <= issued);
        issued == captured
    }

    /// True when this chip's own MU streaming and remote-migrant
    /// dispatch are finished (sending side of the MU handshake).
    pub fn all_migrants_departed(&self) -> bool {
        self.cbbs.iter().all(|c| c.mu_idle()) && {
            // no remote-destined flit still on the MU ring
            (0..self.mig_ring.len()).all(|i| {
                self.mig_ring
                    .at(i)
                    .is_none_or(|m| self.geo.chip_of_gcell(m.dest_gcell) == self.geo.chip)
            })
        } && self.mig_egress.is_empty()
    }

    /// Begin the motion-update phase.
    pub fn begin_mu_phase(&mut self) {
        assert_eq!(self.phase, Phase::Force, "MU follows force evaluation");
        self.phase = Phase::MotionUpdate;
        for cbb in &mut self.cbbs {
            cbb.begin_mu_phase();
        }
    }

    /// One motion-update cycle.
    pub fn step_mu_cycle(&mut self) {
        debug_assert_eq!(self.phase, Phase::MotionUpdate);
        let multi = self.geo.num_chips() > 1;
        let ex = self.ex_node();
        let n = self.cbbs.len();

        let occ = self.mig_ring.occupancy() as u64;
        self.mu_ring_stats.record(occ, occ > 0);
        self.mig_ring.rotate();

        // deliveries
        for node in 0..n {
            let deliver = matches!(
                self.mig_ring.at(node),
                Some(m) if self.geo.cbb_of_gcell(m.dest_gcell) == Some(node as u16)
            );
            if deliver {
                let m = self.mig_ring.take(node).expect("checked");
                self.cbbs[node].receive_migrant(m);
            }
        }
        if multi {
            let capture = matches!(
                self.mig_ring.at(ex),
                Some(m) if self.geo.chip_of_gcell(m.dest_gcell) != self.geo.chip
            );
            if capture {
                let m = self.mig_ring.take(ex).expect("checked");
                let peer = self.geo.chip_of_gcell(m.dest_gcell);
                *self.traffic.mig_sent.entry(peer).or_default() += 1;
                self.mig_egress.push_back((peer, m));
            }
        }

        // MU units
        for cbb in &mut self.cbbs {
            cbb.step_mu(self.cycle, self.dt_fs, &self.acc_over_mass, &self.geo.global);
        }

        // injections
        for (i, cbb) in self.cbbs.iter_mut().enumerate() {
            if let Some(m) = cbb.mig_out.front().copied() {
                if self.mig_ring.inject(i, m).is_ok() {
                    cbb.mig_out.pop_front();
                    self.migrations += 1;
                }
            }
        }
        if multi {
            if let Some(m) = self.mig_ingress.front().copied() {
                if self.mig_ring.inject(ex, m).is_ok() {
                    self.mig_ingress.pop_front();
                }
            }
        }

        self.cycle += 1;
    }

    /// True when local MU work is finished (remote migrants may still be
    /// in flight cluster-wide).
    pub fn mu_phase_local_idle(&self) -> bool {
        self.cbbs.iter().all(TimedCbb::mu_idle)
            && self.mig_ring.is_empty()
            && self.mig_ingress.is_empty()
            && self.mig_egress.is_empty()
    }

    /// Finish the MU phase: compact cell arrays and return to idle.
    pub fn end_mu_phase(&mut self) {
        assert_eq!(self.phase, Phase::MotionUpdate);
        for cbb in &mut self.cbbs {
            cbb.end_mu_phase();
        }
        self.phase = Phase::Idle;
        // remote_pos_outstanding intentionally persists: a fast neighbour
        // may already have delivered next-step positions while this chip
        // was still in motion update (the chained-sync head start).
    }

    // ------------------------------------------------------------------
    // EX-node interfaces for the cluster driver.
    // ------------------------------------------------------------------

    /// Drain position flits departing to peer chips.
    pub fn drain_pos_egress(&mut self) -> Vec<(ChipCoord, PosFlit)> {
        self.pos_egress.drain(..).collect()
    }

    /// Drain force flits departing to peer chips.
    pub fn drain_frc_egress(&mut self) -> Vec<(ChipCoord, FrcFlit)> {
        self.frc_egress.drain(..).collect()
    }

    /// Drain migration flits departing to peer chips.
    pub fn drain_mig_egress(&mut self) -> Vec<(ChipCoord, MigFlit)> {
        self.mig_egress.drain(..).collect()
    }

    /// Ingest a position flit from a peer chip: compute its local
    /// destination mask (the GCID→LCID conversion point, §4.2) and queue
    /// it for EX-node injection.
    pub fn ingest_remote_pos(&mut self, mut flit: PosFlit) {
        let key = (flit.src_gcell.x, flit.src_gcell.y, flit.src_gcell.z);
        let mask = match self.halo_mask_cache.get(&key) {
            Some(&m) => m,
            None => {
                let m = self.local_mask_for_source(flit.src_gcell);
                self.halo_mask_cache.insert(key, m);
                m
            }
        };
        assert!(mask != 0, "received a position with no local destinations");
        flit.local_mask = mask;
        flit.remote_mask = 0;
        *self
            .remote_pos_outstanding
            .entry(flit.owner_chip)
            .or_default() += mask.count_ones() as i64;
        *self.traffic.pos_recv.entry(flit.owner_chip).or_default() += 1;
        self.pos_ingress.push_back(flit);
    }

    /// Ingest a force flit owned by this chip.
    pub fn ingest_remote_frc(&mut self, flit: FrcFlit) {
        debug_assert_eq!(flit.owner_chip, self.geo.chip);
        self.traffic.frc_recv_remote += 1;
        self.frc_ingress.push_back(flit);
    }

    /// Ingest a migrating particle owned by this chip's block.
    pub fn ingest_remote_mig(&mut self, flit: MigFlit) {
        debug_assert_eq!(self.geo.chip_of_gcell(flit.dest_gcell), self.geo.chip);
        self.mig_ingress.push_back(flit);
    }

    /// Local CBBs (as a mask) that must evaluate particles from a given
    /// source cell: the intersection of the source's half-shell
    /// destinations with this chip's block.
    fn local_mask_for_source(&self, src: CellCoord) -> u64 {
        let mut mask = 0u64;
        for off in fasda_md::celllist::HALF_SHELL_OFFSETS {
            let dest = self.geo.global.wrap_coord(src.offset(off));
            if let Some(cbb) = self.geo.cbb_of_gcell(dest) {
                mask |= 1 << cbb;
            }
        }
        mask
    }

    // ------------------------------------------------------------------
    // Single-chip convenience driver.
    // ------------------------------------------------------------------

    /// Run one complete timestep (single-chip mode only) and report.
    pub fn run_timestep(&mut self) -> TimestepReport {
        assert_eq!(
            self.geo.num_chips(),
            1,
            "run_timestep drives a single chip; use fasda-cluster for multi-chip"
        );
        self.reset_stats();
        self.begin_force_phase();
        let start = self.cycle;
        while !self.force_phase_local_idle() {
            self.step_force_cycle();
            assert!(
                self.cycle - start < MAX_PHASE_CYCLES,
                "force phase failed to converge"
            );
        }
        let force_cycles = self.cycle - start;

        self.begin_mu_phase();
        let mu_start = self.cycle;
        while !self.mu_phase_local_idle() {
            self.step_mu_cycle();
            assert!(
                self.cycle - mu_start < MAX_PHASE_CYCLES,
                "MU phase failed to converge"
            );
        }
        let mu_cycles = self.cycle - mu_start;
        self.end_mu_phase();

        self.report(force_cycles, mu_cycles)
    }

    /// Assemble the utilization report for a window of
    /// `force_cycles + mu_cycles` cycles.
    pub fn report(&self, force_cycles: u64, mu_cycles: u64) -> TimestepReport {
        let mut stats = StatSet::new();
        for a in &self.pr_stats {
            stats.add("PR", *a);
        }
        for a in &self.fr_stats {
            stats.add("FR", *a);
        }
        stats.add("MUR", self.mu_ring_stats);
        let mut valid_pairs = 0;
        let mut comparisons = 0;
        for cbb in &self.cbbs {
            stats.add("MU", cbb.mu_stats);
            for spe in &cbb.spes {
                for pe in &spe.pes {
                    stats.add("Filter", pe.filter_stats);
                    stats.add("PE", pe.pe_stats);
                    valid_pairs += pe.pe_stats.work;
                    comparisons += pe.filter_stats.work;
                }
            }
        }
        TimestepReport {
            force_cycles,
            mu_cycles,
            stats,
            valid_pairs,
            comparisons,
            migrations: self.migrations,
        }
    }

    /// The unit system in use.
    pub fn units(&self) -> UnitSystem {
        self.units
    }
}

/// Checkpointing: the configuration, geometry, datapath tables, and every
/// mask/peer list derived from them are rebuilt by [`TimedChip::new`].
/// Captured state is the CBBs, the three ring classes, the cycle counter
/// and phase, the EX-node queues, and the chained-sync outstanding-work
/// map (which intentionally survives phase boundaries — the head-start
/// bookkeeping of §4.4). *Not* captured, by design: utilization/traffic
/// counters and `frc_issued_to` (reset by [`TimedChip::reset_stats`] at
/// every measurement-window start, which is where checkpoints are cut),
/// the broadcast-cooldown clocks and phase-local caches (rebuilt by
/// [`TimedChip::begin_force_phase`]), the halo-mask cache (a pure
/// memoization), and the flight recorder (re-armed per window).
impl fasda_ckpt::Snapshot for TimedChip {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        fasda_ckpt::snapshot_slice(&self.cbbs, w);
        fasda_ckpt::snapshot_slice(&self.pos_rings, w);
        fasda_ckpt::snapshot_slice(&self.frc_rings, w);
        self.mig_ring.snapshot(w);
        w.put_u64(self.cycle);
        w.put_u8(match self.phase {
            Phase::Idle => 0,
            Phase::Force => 1,
            Phase::MotionUpdate => 2,
        });
        self.pos_egress.save(w);
        self.frc_egress.save(w);
        self.mig_egress.save(w);
        self.pos_ingress.save(w);
        self.frc_ingress.save(w);
        self.mig_ingress.save(w);
        self.remote_pos_outstanding.save(w);
    }
    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        use fasda_ckpt::Persist;
        fasda_ckpt::restore_slice(&mut self.cbbs, r)?;
        fasda_ckpt::restore_slice(&mut self.pos_rings, r)?;
        fasda_ckpt::restore_slice(&mut self.frc_rings, r)?;
        self.mig_ring.restore(r)?;
        self.cycle = r.get_u64()?;
        self.phase = match r.get_u8()? {
            0 => Phase::Idle,
            1 => Phase::Force,
            2 => Phase::MotionUpdate,
            t => return Err(r.malformed(format!("invalid phase tag {t}"))),
        };
        self.pos_egress = Persist::load(r)?;
        self.frc_egress = Persist::load(r)?;
        self.mig_egress = Persist::load(r)?;
        self.pos_ingress = Persist::load(r)?;
        self.frc_ingress = Persist::load(r)?;
        self.mig_ingress = Persist::load(r)?;
        self.remote_pos_outstanding = Persist::load(r)?;
        Ok(())
    }
}
