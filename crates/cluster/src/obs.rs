//! Live-telemetry glue: the in-run heartbeat sampler attached to a
//! [`Cluster`], the engine-invariant final-totals builder, and the
//! conversion from [`ClusterConfig`] to the §5 model's input.
//!
//! The split of responsibilities (see `DESIGN.md` §12):
//!
//! * [`ObsLive`] samples the cluster at step boundaries from inside the
//!   cycle loop and writes `beat` records + the Prometheus scrape
//!   file. Beats mix simulated counters with wall-clock gauges — they
//!   are a *progress view*, not an identity artifact.
//! * [`final_registry`] / [`final_totals_json`] are pure functions of
//!   the finished run's [`ClusterRunReport`] and stall ledger — both
//!   bit-identical across engines and shard counts — so the final
//!   totals they produce are too. Every surface that emits final
//!   totals (the `final` heartbeat record, `--obs-out`, the metrics
//!   document's `obs` section) goes through them.
//! * [`model_input`] + [`measured_from`] feed `fasda_obs::model`'s
//!   §5 prediction/divergence machinery from a run.

use crate::driver::{Cluster, ClusterConfig};
use crate::report::ClusterRunReport;
use fasda_ckpt::{CkptError, Persist, Reader, Writer};
use fasda_obs::model::{Measured, ModelInput, STALL_CLASSES};
use fasda_obs::{prom_write, Hist, JsonlSink, Registry};
use fasda_trace::{Json, StallCause, StallLedger};
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

/// Fixed force-phase duration histogram bounds (cycles, inclusive):
/// powers of two so every engine and shard count bins identically.
pub const FORCE_HIST_BOUNDS: [u64; 12] = [
    256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288,
];

/// Where heartbeats go. Both sinks optional so `--heartbeat-every`
/// alone still drives the fleet view in sharded runs.
#[derive(Clone, Debug, Default)]
pub struct ObsSinkConfig {
    /// JSONL heartbeat stream path.
    pub heartbeat_out: Option<PathBuf>,
    /// Prometheus text-format scrape file path.
    pub prom_out: Option<PathBuf>,
}

impl ObsSinkConfig {
    /// True when any sink is configured.
    pub fn any(&self) -> bool {
        self.heartbeat_out.is_some() || self.prom_out.is_some()
    }
}

/// In-run heartbeat sampler. Attach with [`Cluster::attach_obs`];
/// the cycle loop calls [`ObsLive::maybe_beat`] behind an
/// `obs.is_some()` gate (the zero-cost-off pattern). Survives
/// checkpoint segment boundaries: the per-segment stall ledger and
/// record buffer resets are detected and re-based, so the heartbeat
/// counters stay monotonic across an entire multi-segment run.
pub struct ObsLive {
    every: u64,
    sink: Option<JsonlSink>,
    prom_path: Option<PathBuf>,
    started: Instant,
    last_wall: Instant,
    last_step: u64,
    last_cycle: u64,
    next_due: u64,
    records_seen: usize,
    /// Finalized ledger totals from segments already torn down.
    stall_acc: [u64; STALL_CLASSES],
    prod_acc: u64,
    /// Last observed ledger totals of the *current* segment.
    stall_seen: [u64; STALL_CLASSES],
    prod_seen: u64,
    beats: u64,
}

impl ObsLive {
    /// Build a sampler firing every `every` completed steps.
    pub fn new(every: u64, sinks: &ObsSinkConfig) -> std::io::Result<Self> {
        let sink = match &sinks.heartbeat_out {
            Some(p) => Some(JsonlSink::create(p)?),
            None => None,
        };
        let now = Instant::now();
        Ok(ObsLive {
            every: every.max(1),
            sink,
            prom_path: sinks.prom_out.clone(),
            started: now,
            last_wall: now,
            last_step: 0,
            last_cycle: 0,
            next_due: every.max(1),
            records_seen: 0,
            stall_acc: [0; STALL_CLASSES],
            prod_acc: 0,
            stall_seen: [0; STALL_CLASSES],
            prod_seen: 0,
            beats: 0,
        })
    }

    /// Beats emitted so far.
    pub fn beats(&self) -> u64 {
        self.beats
    }

    /// Called from the cycle loop (after the cycle increment). The
    /// fast path out is one length comparison: step boundaries only
    /// move when a `NodeStepReport` is pushed.
    pub(crate) fn maybe_beat(&mut self, cl: &Cluster, steps: u64) {
        if cl.records.len() == self.records_seen {
            return;
        }
        if cl.records.len() < self.records_seen {
            // Segment reset (checkpointed run): the record buffer was
            // drained into the previous segment's report.
            self.records_seen = 0;
        }
        self.records_seen = cl.records.len();
        let cur = cl.current_step();
        if cur < self.next_due {
            return;
        }
        self.next_due = cur + self.every;
        self.emit_beat(cl, cur, steps);
    }

    /// Sample the cluster and write one `beat` record + scrape file.
    fn emit_beat(&mut self, cl: &Cluster, cur: u64, steps: u64) {
        self.beats += 1;
        let mut reg = Registry::new(true);
        self.fold_ledger(&cl.tr_stalls);
        fill_live(&mut reg, cl, cur, &self.live_stalls(), self.live_productive());

        // Wall-clock gauges (progress view only; never in totals).
        let now = Instant::now();
        let wall = now.duration_since(self.started).as_secs_f64();
        let dt = now.duration_since(self.last_wall).as_secs_f64().max(1e-9);
        let steps_per_s = (cur - self.last_step) as f64 / dt;
        let cycles_per_s = cl.cycle.saturating_sub(self.last_cycle) as f64 / dt;
        let eta_s = if steps_per_s > 0.0 {
            steps.saturating_sub(cur) as f64 / steps_per_s
        } else {
            0.0
        };
        reg.gauge_set("wall_s", wall);
        reg.gauge_set("steps_per_s", steps_per_s);
        reg.gauge_set("cycles_per_s", cycles_per_s);
        reg.gauge_set("eta_s", eta_s);
        reg.gauge_set("progress", cur as f64 / steps.max(1) as f64);
        self.last_wall = now;
        self.last_step = cur;
        self.last_cycle = cl.cycle;

        let record = beat_record("beat", self.beats, cur, steps, &reg.snapshot_json());
        if let Some(sink) = &mut self.sink {
            let _ = sink.emit(&record);
        }
        if let Some(path) = &self.prom_path {
            let _ = prom_write(&reg, "fasda", path);
        }
    }

    /// Fold the current segment's ledger totals into the reset-tolerant
    /// accumulators.
    fn fold_ledger(&mut self, ledger: &StallLedger) {
        let mut stalls = [0u64; STALL_CLASSES];
        let mut prod = 0u64;
        for node in 0..ledger.num_nodes() {
            let t = ledger.node_total(node);
            for (acc, v) in stalls.iter_mut().zip(t.stalled.iter()) {
                *acc += v;
            }
            prod += t.productive;
        }
        let seen: u64 = self.stall_seen.iter().sum::<u64>() + self.prod_seen;
        let now: u64 = stalls.iter().sum::<u64>() + prod;
        if now < seen {
            // A new segment re-armed the ledger: bank the old totals.
            for (acc, v) in self.stall_acc.iter_mut().zip(self.stall_seen.iter()) {
                *acc += v;
            }
            self.prod_acc += self.prod_seen;
        }
        self.stall_seen = stalls;
        self.prod_seen = prod;
    }

    fn live_stalls(&self) -> [u64; STALL_CLASSES] {
        let mut out = self.stall_acc;
        for (acc, v) in out.iter_mut().zip(self.stall_seen.iter()) {
            *acc += v;
        }
        out
    }

    fn live_productive(&self) -> u64 {
        self.prod_acc + self.prod_seen
    }
}

// ---------------------------------------------------------------------------
// Fleet telemetry (sharded runs)
// ---------------------------------------------------------------------------

/// One shard's compact telemetry sample, piggybacked on a per-cycle
/// Tally mesh frame when the shard's slowest owned node crosses a
/// heartbeat boundary. Totals are cumulative since worker start (owned
/// nodes only), so per-worker samples sum to the fleet view and stay
/// monotonic across checkpoint segments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsDelta {
    /// Shard index of the sampling worker.
    pub worker: u32,
    /// The heartbeat boundary (absolute step, a multiple of the
    /// cadence) this sample answers for.
    pub boundary: u64,
    /// Minimum current step over the worker's owned nodes.
    pub min_step: u64,
    /// Productive force-phase cycles attributed to owned nodes.
    pub productive: u64,
    /// Stall cycles by cause (StallCause index order), owned nodes.
    pub stalls: [u64; STALL_CLASSES],
    /// Retransmissions originated by owned nodes (0 without `--rel`).
    pub retransmits: u64,
}

impl Persist for ObsDelta {
    fn save(&self, w: &mut Writer) {
        w.put_u32(self.worker);
        w.put_u64(self.boundary);
        w.put_u64(self.min_step);
        w.put_u64(self.productive);
        for s in self.stalls {
            w.put_u64(s);
        }
        w.put_u64(self.retransmits);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(ObsDelta {
            worker: r.get_u32()?,
            boundary: r.get_u64()?,
            min_step: r.get_u64()?,
            productive: r.get_u64()?,
            stalls: {
                let mut s = [0u64; STALL_CLASSES];
                for v in &mut s {
                    *v = r.get_u64()?;
                }
                s
            },
            retransmits: r.get_u64()?,
        })
    }
}

/// A complete fleet heartbeat: every shard's sample for one boundary.
/// Assembled by worker 0 (which sees all Tally frames) and shipped to
/// the coordinator on the control link as a `Beat` frame.
#[derive(Clone, Debug)]
pub struct FleetBeat {
    /// Monotonic beat counter (worker 0's).
    pub beat: u64,
    /// The heartbeat boundary all samples answer for.
    pub boundary: u64,
    /// Worker 0's global cycle when the last sample arrived.
    pub cycle: u64,
    /// One sample per shard, shard order.
    pub workers: Vec<ObsDelta>,
}

impl Persist for FleetBeat {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.beat);
        w.put_u64(self.boundary);
        w.put_u64(self.cycle);
        self.workers.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(FleetBeat {
            beat: r.get_u64()?,
            boundary: r.get_u64()?,
            cycle: r.get_u64()?,
            workers: Persist::load(r)?,
        })
    }
}

/// Coordinator-side fleet heartbeat sink: turns [`FleetBeat`] frames
/// into `fleet` JSONL records (and a Prometheus scrape file) naming the
/// lagging shard. Purely observational — the coordinator never
/// simulates, so this cannot perturb the run.
pub struct FleetObs {
    sink: Option<JsonlSink>,
    prom_path: Option<PathBuf>,
    started: Instant,
    last_wall: Instant,
    last_step: u64,
    beats: u64,
}

impl FleetObs {
    /// Open the configured sinks (truncating an existing JSONL stream).
    pub fn new(sinks: &ObsSinkConfig) -> std::io::Result<Self> {
        let sink = match &sinks.heartbeat_out {
            Some(p) => Some(JsonlSink::create(p)?),
            None => None,
        };
        let now = Instant::now();
        Ok(FleetObs {
            sink,
            prom_path: sinks.prom_out.clone(),
            started: now,
            last_wall: now,
            last_step: 0,
            beats: 0,
        })
    }

    /// Fleet heartbeats emitted so far.
    pub fn beats(&self) -> u64 {
        self.beats
    }

    /// Handle one fleet beat: emit the `fleet` record and refresh the
    /// scrape file. `ranges` are the shard → owned-node ranges (shard
    /// order), `steps` the run's step target.
    pub fn on_beat(&mut self, fb: &FleetBeat, ranges: &[Range<usize>], steps: u64) {
        self.beats += 1;
        let fleet_min = fb.workers.iter().map(|d| d.min_step).min().unwrap_or(0);
        let fleet_max = fb.workers.iter().map(|d| d.min_step).max().unwrap_or(0);
        let lagging = fb
            .workers
            .iter()
            .min_by_key(|d| d.min_step)
            .map(|d| d.worker)
            .unwrap_or(0);

        let now = Instant::now();
        let wall = now.duration_since(self.started).as_secs_f64();
        let dt = now.duration_since(self.last_wall).as_secs_f64().max(1e-9);
        let steps_per_s = fleet_min.saturating_sub(self.last_step) as f64 / dt;
        self.last_wall = now;
        self.last_step = fleet_min;

        let mut reg = Registry::new(true);
        let mut shards = Vec::with_capacity(fb.workers.len());
        for d in &fb.workers {
            let span = ranges
                .get(d.worker as usize)
                .map_or_else(|| "?".into(), |r| format!("{}..{}", r.start, r.end));
            shards.push(
                Json::obj()
                    .field("shard", Json::uint(d.worker as u64))
                    .field("nodes", span)
                    .field("min_step", Json::uint(d.min_step))
                    .field("productive_cycles", Json::uint(d.productive))
                    .field("stall_cycles", Json::uint(d.stalls.iter().sum::<u64>()))
                    .field("retransmits", Json::uint(d.retransmits))
                    .build(),
            );
            reg.counter_set_labeled(
                "shard_min_step",
                "shard",
                &d.worker.to_string(),
                d.min_step,
            );
        }
        let mut fleet_stalls = [0u64; STALL_CLASSES];
        let mut fleet_prod = 0u64;
        for d in &fb.workers {
            for (acc, v) in fleet_stalls.iter_mut().zip(d.stalls.iter()) {
                *acc += v;
            }
            fleet_prod += d.productive;
        }
        set_stalls(&mut reg, &fleet_stalls, fleet_prod);
        reg.counter_set("steps_done", fleet_min);
        reg.counter_set("cycles", fb.cycle);
        reg.gauge_set("wall_s", wall);
        reg.gauge_set("steps_per_s", steps_per_s);
        reg.gauge_set("progress", fleet_min as f64 / steps.max(1) as f64);
        reg.gauge_set("lag_steps", (fleet_max - fleet_min) as f64);

        let record = Json::obj()
            .field("type", "fleet")
            .field("beat", Json::uint(fb.beat))
            .field("step", Json::uint(fleet_min))
            .field("steps", Json::uint(steps))
            .field("cycle", Json::uint(fb.cycle))
            .field("lagging_shard", Json::uint(lagging as u64))
            .field("lag_steps", Json::uint(fleet_max - fleet_min))
            .field("shards", Json::Arr(shards))
            .field("counters", reg.totals_json().get("counters").cloned().unwrap_or(Json::Null))
            .field("gauges", reg.snapshot_json().get("gauges").cloned().unwrap_or(Json::Null))
            .build();
        if let Some(sink) = &mut self.sink {
            let _ = sink.emit(&record);
        }
        if let Some(path) = &self.prom_path {
            let _ = prom_write(&reg, "fasda_fleet", path);
        }
    }
}

/// One heartbeat record: envelope fields + the registry snapshot's
/// `counters`/`hists`/`gauges` sections spliced in.
fn beat_record(kind: &str, beat: u64, step: u64, steps: u64, snapshot: &Json) -> Json {
    let mut rec = Json::obj()
        .field("type", kind)
        .field("beat", Json::uint(beat))
        .field("step", Json::uint(step))
        .field("steps", Json::uint(steps));
    if let Json::Obj(fields) = snapshot {
        for (k, v) in fields {
            rec = rec.field(k, v.clone());
        }
    }
    rec.build()
}

/// Live counters sampled mid-run. Engine-private quantities keep the
/// `engine_` prefix so cross-engine heartbeat diffs can exclude them
/// the same way the metrics gate does.
fn fill_live(
    reg: &mut Registry,
    cl: &Cluster,
    step: u64,
    stalls: &[u64; STALL_CLASSES],
    productive: u64,
) {
    reg.counter_set("steps_done", step);
    reg.counter_set("cycles", cl.cycle);
    reg.counter_set("engine_skipped_cycles", cl.skipped_cycles);
    reg.counter_set("pos_packets", cl.pos_fabric.packets);
    reg.counter_set("frc_packets", cl.frc_fabric.packets);
    reg.counter_set(
        "packets_lost",
        cl.pos_fabric.packets_lost + cl.frc_fabric.packets_lost,
    );
    if let Some(rel) = &cl.rel {
        reg.counter_set("retransmits", rel.total_retransmits());
        reg.counter_set("acks_sent", rel.acks_sent);
    }
    reg.counter_set(
        "faults_injected",
        cl.faults.as_ref().map_or(0, |f| f.total_injected()),
    );
    set_stalls(reg, stalls, productive);
}

fn set_stalls(reg: &mut Registry, stalls: &[u64; STALL_CLASSES], productive: u64) {
    for cause in StallCause::ALL {
        reg.counter_set_labeled(
            "stall_cycles",
            "cause",
            cause.label(),
            stalls[cause as usize],
        );
    }
    reg.counter_set("productive_cycles", productive);
}

/// Final totals as a registry — a pure function of the run report and
/// (optionally) the folded stall ledger. Both inputs are bit-identical
/// across {serial, multi-threaded, sharded} runs, so these totals are the
/// identity artifact the CI gates byte-diff. Engine-private counters
/// (fast-forward) are deliberately excluded.
pub fn final_registry(report: &ClusterRunReport, stalls: Option<&StallLedger>) -> Registry {
    let mut reg = Registry::new(true);
    reg.counter_set("nodes", report.nodes as u64);
    reg.counter_set("steps_done", report.steps);
    reg.counter_set("cycles", report.total_cycles);
    reg.counter_set("pos_packets", report.pos_packets);
    reg.counter_set("frc_packets", report.frc_packets);
    reg.counter_set("pos_bits", report.pos_bits);
    reg.counter_set("frc_bits", report.frc_bits);
    reg.counter_set("faults_injected", report.faults_injected);
    if let Some(rel) = &report.reliability {
        reg.counter_set("retransmits", rel.retransmits);
        reg.counter_set("acks_sent", rel.acks_sent);
        reg.counter_set("duplicates_dropped", rel.duplicates_dropped);
        reg.counter_set("corrupt_dropped", rel.corrupt_dropped);
    }
    let mut force_total = 0u64;
    let mut mu_total = 0u64;
    let mut force_hist = Hist::new(&FORCE_HIST_BOUNDS);
    for r in &report.records {
        force_total += r.force_cycles;
        mu_total += r.mu_cycles;
        force_hist.observe(r.force_cycles);
    }
    reg.counter_set("force_cycles", force_total);
    reg.counter_set("mu_cycles", mu_total);
    reg.hist_set("step_force_cycles", force_hist);
    if let Some(ledger) = stalls {
        let mut totals = [0u64; STALL_CLASSES];
        let mut productive = 0u64;
        for node in 0..ledger.num_nodes() {
            let t = ledger.node_total(node);
            for (acc, v) in totals.iter_mut().zip(t.stalled.iter()) {
                *acc += v;
            }
            productive += t.productive;
        }
        set_stalls(&mut reg, &totals, productive);
    }
    reg
}

/// Final totals JSON (see [`final_registry`]).
pub fn final_totals_json(report: &ClusterRunReport, stalls: Option<&StallLedger>) -> Json {
    final_registry(report, stalls).totals_json()
}

/// Append the `final` heartbeat record to an existing JSONL stream and
/// refresh the scrape file with the final registry. Called once by the
/// host after the run completes (the in-run sampler only ever emits
/// `beat` records).
pub fn emit_final(
    sinks: &ObsSinkConfig,
    report: &ClusterRunReport,
    stalls: Option<&StallLedger>,
) -> std::io::Result<()> {
    let reg = final_registry(report, stalls);
    if let Some(path) = &sinks.heartbeat_out {
        let mut sink = JsonlSink::append(path)?;
        let record = beat_record(
            "final",
            0,
            report.steps,
            report.steps,
            &reg.totals_json(),
        );
        sink.emit(&record)?;
    }
    if let Some(path) = &sinks.prom_out {
        prom_write(&reg, "fasda", path)?;
    }
    Ok(())
}

/// Build the §5 model input from a cluster configuration, the global
/// cell-space dimensions, and the mean particles-per-cell of the
/// workload. Pure configuration — nothing measured.
pub fn model_input(cfg: &ClusterConfig, space: (u32, u32, u32), per_cell: f64) -> ModelInput {
    let grid = (
        space.0 / cfg.block.0,
        space.1 / cfg.block.1,
        space.2 / cfg.block.2,
    );
    let nodes = (grid.0 * grid.1 * grid.2) as u64;
    // Mean one-way transit over distinct node pairs.
    let mut lat_sum = 0u64;
    let mut pairs = 0u64;
    for a in 0..nodes as usize {
        for b in 0..nodes as usize {
            if a != b {
                lat_sum += cfg.topology.path_latency(a, b);
                pairs += 1;
            }
        }
    }
    let path_latency = if pairs > 0 {
        lat_sum as f64 / pairs as f64
    } else {
        0.0
    };
    ModelInput {
        grid,
        block: cfg.block,
        per_cell,
        filters_per_pe: cfg.chip.hw.filters_per_pe,
        pes_per_spe: cfg.chip.pes_per_spe,
        spes_per_cbb: cfg.chip.spes_per_cbb,
        force_pipe_latency: cfg.chip.hw.force_pipe_latency,
        mu_latency: cfg.chip.hw.mu_latency,
        bcast_cooldown: cfg.chip.hw.bcast_cooldown,
        cutoff_cells: cfg.chip.cutoff_cells,
        packet_cooldown: cfg.packet_cooldown,
        path_latency,
        straggler_cycles: cfg
            .straggler
            .map_or(0.0, |(_, d)| d as f64 / nodes.max(1) as f64),
    }
}

/// Distill the §5 model's ground truth from a finished run.
pub fn measured_from(report: &ClusterRunReport, stalls: Option<&StallLedger>) -> Measured {
    let recs = report.records.len().max(1) as f64;
    let force_cycles = report.records.iter().map(|r| r.force_cycles).sum::<u64>() as f64 / recs;
    let mu_cycles = report.records.iter().map(|r| r.mu_cycles).sum::<u64>() as f64 / recs;
    let steps = report.steps.max(1) as f64;
    let mut meas = Measured {
        steps: report.steps,
        nodes: report.nodes as u64,
        cycles_per_step: report.cycles_per_step(),
        force_cycles,
        mu_cycles,
        pos_packets_per_step: report.pos_packets as f64 / steps,
        frc_packets_per_step: report.frc_packets as f64 / steps,
        ..Measured::default()
    };
    if let Some(ledger) = stalls {
        let mut totals = [0u64; STALL_CLASSES];
        let mut productive = 0u64;
        for node in 0..ledger.num_nodes() {
            let t = ledger.node_total(node);
            for (acc, v) in totals.iter_mut().zip(t.stalled.iter()) {
                *acc += v;
            }
            productive += t.productive;
        }
        let idle: u64 = totals.iter().sum();
        let attributed = productive + idle;
        if attributed > 0 {
            meas.occupancy = productive as f64 / attributed as f64;
        }
        if idle > 0 {
            for (share, v) in meas.stall_shares.iter_mut().zip(totals.iter()) {
                *share = *v as f64 / idle as f64;
            }
        }
        meas.sync_tail = (totals[StallCause::WaitNeighborSync as usize]
            + totals[StallCause::Drained as usize]) as f64
            / recs;
    }
    meas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::NodeStepReport;
    use fasda_sim::StatSet;

    fn tiny_report() -> ClusterRunReport {
        ClusterRunReport {
            steps: 2,
            total_cycles: 1000,
            records: vec![
                NodeStepReport { node: 0, step: 0, force_cycles: 400, mu_cycles: 80, wall_end: 480 },
                NodeStepReport { node: 1, step: 0, force_cycles: 420, mu_cycles: 80, wall_end: 500 },
                NodeStepReport { node: 0, step: 1, force_cycles: 410, mu_cycles: 80, wall_end: 990 },
                NodeStepReport { node: 1, step: 1, force_cycles: 400, mu_cycles: 80, wall_end: 1000 },
            ],
            stats: StatSet::new(),
            per_node_traffic: Vec::new(),
            pos_packets: 40,
            frc_packets: 60,
            pos_bits: 40 * 512,
            frc_bits: 60 * 512,
            clock_hz: 200.0e6,
            dt_fs: 2.0,
            nodes: 2,
            faults_injected: 0,
            reliability: None,
        }
    }

    fn tiny_ledger() -> StallLedger {
        let mut l = StallLedger::new(2);
        for node in 0..2 {
            for step in 0..2 {
                l.productive(node, step, 300);
                l.stall(node, step, StallCause::Drained, 80);
                l.stall(node, step, StallCause::WaitNeighborSync, 20);
                l.stall(node, step, StallCause::TxCooldown, 10);
            }
        }
        l
    }

    #[test]
    fn final_totals_are_a_pure_function() {
        let report = tiny_report();
        let ledger = tiny_ledger();
        let a = final_totals_json(&report, Some(&ledger));
        let b = final_totals_json(&report.clone(), Some(&ledger.clone()));
        assert_eq!(a.compact(), b.compact());
        let counters = a.get("counters").unwrap();
        assert_eq!(counters.get("cycles").unwrap().as_i64(), Some(1000));
        assert_eq!(counters.get("force_cycles").unwrap().as_i64(), Some(1630));
        assert_eq!(
            counters
                .get("stall_cycles")
                .unwrap()
                .get("drained")
                .unwrap()
                .as_i64(),
            Some(320)
        );
        assert_eq!(counters.get("productive_cycles").unwrap().as_i64(), Some(1200));
        // Histogram present with the fixed bounds.
        let hist = a.get("hists").unwrap().get("step_force_cycles").unwrap();
        assert_eq!(hist.get("count").unwrap().as_i64(), Some(4));
        // No engine-private counters in the identity artifact.
        assert!(counters.get("engine_skipped_cycles").is_none());
    }

    #[test]
    fn measured_distills_report_and_ledger() {
        let m = measured_from(&tiny_report(), Some(&tiny_ledger()));
        assert_eq!(m.cycles_per_step, 500.0);
        assert_eq!(m.force_cycles, 407.5);
        assert_eq!(m.mu_cycles, 80.0);
        assert_eq!(m.pos_packets_per_step, 20.0);
        assert!((m.occupancy - 1200.0 / 1640.0).abs() < 1e-12);
        // drained share: 320 of 440 idle cycles
        assert!((m.stall_shares[StallCause::Drained as usize] - 320.0 / 440.0).abs() < 1e-12);
        assert_eq!(m.sync_tail, 100.0);
    }

    #[test]
    fn model_input_from_config() {
        let cfg = ClusterConfig::paper(fasda_core::config::ChipConfig::baseline(), (1, 1, 2));
        let input = model_input(&cfg, (1, 1, 4), 4.0);
        assert_eq!(input.grid, (1, 1, 2));
        assert_eq!(input.block, (1, 1, 2));
        assert_eq!(input.path_latency, 200.0); // paper switch
        assert_eq!(input.filters_per_pe, 6);
        let pred = fasda_obs::model::predict(&input);
        assert!(pred.cycles_per_step > 0.0);
    }
}
