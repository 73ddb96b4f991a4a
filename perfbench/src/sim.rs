//! The simulation workloads (`dense`, `straggler`, `sharded`) and the
//! cluster-level probes of the traced run.
//!
//! All three run the fig16 input: 6×6×6 cells at 64 Na/cell (13,824
//! atoms) over 8 nodes of 3×3×3 cells with chained sync. One *run call*
//! is `WorkloadSpec::generate` + `Cluster::new` (the set-up) followed by
//! [`STEPS`] timesteps under `EngineConfig::auto()`, through
//! `Cluster::run_with` — or, for `sharded`, through `run_sharded` over
//! two shards.

use crate::check::{self, Tally};
use crate::host::{self, median, quantile, timed, windowed, Timed};
use crate::spans::{span, untraced};
use crate::{Layers, Metric, Outcome};
use fasda_cluster::{
    drain_to_container, final_registry, load_checkpoint, run_sharded, save_checkpoint,
    CheckpointConfig, Cluster, ClusterConfig, ClusterRunReport, EngineConfig, RunAccumulator,
    ShardOpts,
};
use fasda_core::config::ChipConfig;
use fasda_core::geometry::ChipGeometry;
use fasda_core::timed::TimedChip;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::workload::WorkloadSpec;
use std::path::Path;
use std::time::{Duration, Instant};

/// Timesteps per run call.
pub const STEPS: u64 = 1;
/// Stall of node 0 at the start of every force phase (`straggler`).
pub const STRAGGLER_STALL: u64 = 200_000;
/// Worker shards of the `sharded` workload.
pub const SHARDS: usize = 2;
/// Fewest run calls a measurement takes, however long they last.
const MIN_REPS: usize = 5;
/// Windows of the run-call series that `job_p95_ms` and
/// `svc_drain_jobs_per_s` take their median over.
const WINDOWS: usize = 5;
/// Share of the CPU time the host's cores offered during a run call
/// above which the hypervisor's steal makes the call a sample of the
/// host rather than of the program. Undisturbed calls show well under
/// 1%; during the host's steal spells calls lose 5–20%.
const STEAL_MAX: f64 = 0.03;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Dense,
    Straggler,
    Sharded,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Dense => "dense",
            Kind::Straggler => "straggler",
            Kind::Sharded => "sharded",
        }
    }
}

/// One simulation input: what to generate, how to build the cluster, and
/// how many steps a run call takes.
#[derive(Clone)]
pub struct Input {
    pub spec: WorkloadSpec,
    pub cfg: ClusterConfig,
    pub steps: u64,
}

/// A finished run call.
pub struct Finished {
    pub sys: ParticleSystem,
    pub cluster: Cluster,
    pub cfg: ClusterConfig,
    pub report: ClusterRunReport,
    pub digest: String,
    /// Wall seconds of `generate` + `Cluster::new`.
    pub setup: f64,
    /// Wall and CPU time of the run call itself.
    pub t: Timed,
}

impl Input {
    /// The fig16 input of a simulation workload. Every kind generates
    /// the same particles for the same seed.
    pub fn fig16(kind: Kind, seed: u64) -> Input {
        let spec = WorkloadSpec::paper(SimulationSpace::cubic(6), mix(seed));
        let mut cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
        if kind == Kind::Straggler {
            cfg.straggler = Some((0, STRAGGLER_STALL));
        }
        Input {
            spec,
            cfg,
            steps: STEPS,
        }
    }

    /// `md` + `cluster` set-up of one run call.
    pub fn build(&self) -> (ParticleSystem, Cluster) {
        let sys = {
            let _s = span("md.generate");
            self.spec.generate()
        };
        let cluster = {
            let _s = span("cluster.build");
            Cluster::new(self.cfg.clone(), &sys)
        };
        (sys, cluster)
    }

    /// In-process run under `engine` on a freshly built cluster.
    pub fn run(&self, engine: &EngineConfig, name: &'static str) -> Finished {
        let ((sys, mut cluster), setup) = timed(|| self.build());
        let (report, t) = timed(|| {
            let _s = span(name);
            cluster.run_with(self.steps, engine)
        });
        let digest = check::run_digest(&cluster, &sys, &report);
        Finished {
            sys,
            cluster,
            cfg: self.cfg.clone(),
            report,
            digest,
            setup: setup.wall,
            t,
        }
    }

    /// `run_sharded` over [`SHARDS`] workers; the finished cluster is the
    /// coordinator's replica at the final state.
    pub fn run_sharded(&self) -> Result<Finished, String> {
        // `run_sharded` builds its clusters itself; the set-up time is
        // still that of the in-process build of the same input.
        let ((sys, built), setup) = timed(|| self.build());
        drop(built);
        let (run, t) = timed(|| {
            let _s = span("shard.run");
            let engine = shard_engine();
            run_sharded(
                &self.cfg,
                &sys,
                self.steps,
                &engine,
                SHARDS,
                ShardOpts::default(),
            )
        });
        let run = run.map_err(|e| format!("sharded run: {e}"))?;
        let digest = check::run_digest(&run.replica, &sys, &run.report);
        let cfg = self.cfg.clone();
        Ok(Finished {
            sys,
            cluster: run.replica,
            cfg,
            report: run.report,
            digest,
            setup: setup.wall,
            t,
        })
    }

    /// The serial oracle's digest: committed when the seed is in the
    /// table, computed in-process otherwise.
    pub fn oracle_digest(&self, workload: &str, seed: u64) -> String {
        check::committed(workload, seed, self.steps).unwrap_or_else(|| {
            self.run(&EngineConfig::serial(), "cluster.serial_run")
                .digest
        })
    }
}

/// Seed of the generated particles for a workload seed (SplitMix64).
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether the hypervisor stole `share` of the cores' time from a call.
/// A host without a steal counter reads NaN, which disturbs nothing.
fn disturbed(share: f64) -> bool {
    share > STEAL_MAX
}

/// Set-up and run timings of the run calls of one measurement, and
/// the share of the cores' time the hypervisor stole during each call.
#[derive(Default)]
struct Reps {
    setup: Vec<f64>,
    run: Vec<Timed>,
    steal: Vec<f64>,
}

impl Reps {
    fn walls(&self) -> Vec<f64> {
        self.run.iter().map(|t| t.wall).collect()
    }

    fn push(&mut self, done: &Finished, steal: f64) {
        self.setup.push(done.setup);
        self.run.push(done.t);
        self.steal.push(steal);
    }

    fn undisturbed(&self) -> usize {
        self.steal.iter().filter(|&&s| !disturbed(s)).count()
    }

    /// The calls the hypervisor did not disturb, in order; all calls
    /// when fewer than [`MIN_REPS`] were undisturbed.
    fn clean(&self) -> Reps {
        let mut out = Reps::default();
        let all = self.undisturbed() < MIN_REPS;
        for i in 0..self.run.len() {
            if all || !disturbed(self.steal[i]) {
                out.setup.push(self.setup[i]);
                out.run.push(self.run[i]);
                out.steal.push(self.steal[i]);
            }
        }
        out
    }
}

/// Run calls back to back for `seconds`, after one untimed warm-up call.
/// Past `seconds` it goes on, for at most `seconds` more, until at least
/// [`MIN_REPS`] calls ran undisturbed by the hypervisor. With
/// `alternate`, every second call runs with span recording paused so the
/// traced run can compare traced and untraced timings. Returns the
/// traced and untraced timings, every digest, and the last report.
fn measure(
    kind: Kind,
    input: &Input,
    seconds: f64,
    alternate: bool,
) -> Result<(Reps, Reps, Vec<String>, ClusterRunReport), String> {
    let (mut on, mut off, mut digests) = (Reps::default(), Reps::default(), Vec::new());
    let call = || match kind {
        Kind::Sharded => input.run_sharded(),
        _ => Ok(input.run(&EngineConfig::auto(), "cluster.run")),
    };
    // One untimed call first, so lazy set-up and cold caches are not
    // in the samples; its output is checked like every other.
    digests.push(untraced(call)?.digest);
    let length = Duration::from_secs_f64(seconds);
    let deadline = Instant::now() + length;
    let cores = host::nproc() as f64;
    let mut report = None;
    let mut n = 0;
    loop {
        let now = Instant::now();
        let done_timing = n >= MIN_REPS && now >= deadline;
        if done_timing && (on.undisturbed() >= MIN_REPS || now >= deadline + length) {
            break;
        }
        let paused = alternate && n % 2 == 1;
        let steal0 = host::steal_s();
        let done = if paused { untraced(call)? } else { call()? };
        let stolen = (host::steal_s() - steal0) / ((done.setup + done.t.wall) * cores);
        let reps = if paused { &mut off } else { &mut on };
        reps.push(&done, stolen);
        digests.push(done.digest);
        report = Some(done.report);
        n += 1;
    }
    Ok((on, off, digests, report.expect("at least one run call")))
}

/// One simulation workload: end-to-end metrics, or with `trace` the
/// per-layer ones.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let input = Input::fig16(kind, seed);
    let mut tally = Tally::default();
    let root = trace.then(|| span("bench.e2e"));
    let (reps, off, digests, report) = match measure(kind, &input, seconds, trace) {
        Ok(m) => m,
        Err(e) => {
            tally.record(Err(e));
            return Outcome {
                metrics: Vec::new(),
                tally,
            };
        }
    };
    // The sharded run must match the in-process oracle of the same input.
    {
        let _s = span("bench.check");
        let oracle = if kind == Kind::Sharded {
            "dense"
        } else {
            kind.name()
        };
        let expected = input.oracle_digest(oracle, seed);
        for d in &digests {
            tally.record(check::verdict(kind.name(), &expected, d));
        }
    }
    if !trace {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("# run-call wall seconds: {}", list(&reps.walls()));
        println!("# run-call set-up seconds: {}", list(&reps.setup));
        println!("# run-call steal shares: {}", list(&reps.steal));
        let clean = reps.clean();
        println!(
            "# run calls counted: {} of {} (a call the hypervisor stole over {}% of the cores' time from is not counted)",
            clean.run.len(),
            reps.run.len(),
            STEAL_MAX * 100.0
        );
        return Outcome {
            metrics: end_to_end(&input, &clean, &report),
            tally,
        };
    }
    let mut layers = Layers::default();
    let own = layer_probes(&input, &mut layers, &mut tally);
    ckpt_probe(&own, &CKPT[0], &mut layers, work);
    let job = untraced(|| crate::svc::job_input(seed).run(&EngineConfig::serial(), "cluster.run"));
    ckpt_probe(&job, &CKPT[1], &mut layers, work);
    crate::svc::probe(seed, &mut layers, &mut tally, work);
    drop(root);
    let overhead = median(&reps.walls()) / median(&off.walls());
    layers.put(
        "bench.trace_overhead",
        overhead,
        "ratio",
        reps.run.len() + off.run.len(),
    );
    Outcome {
        metrics: layers.finish(kind.name(), seed, work),
        tally,
    }
}

fn end_to_end(input: &Input, reps: &Reps, report: &ClusterRunReport) -> Vec<Metric> {
    let n = reps.run.len();
    let steps = input.steps as f64;
    let wall = reps.walls();
    let cpu: Vec<f64> = reps.run.iter().map(|t| t.cpu.total()).collect();
    let busy: Vec<f64> = wall.iter().zip(&reps.setup).map(|(w, s)| w + s).collect();
    let rate = |w: &[f64]| w.len() as f64 / w.iter().sum::<f64>();
    vec![
        Metric::new("steps_per_s", steps / median(&wall), "1/s", n),
        Metric::new("cpu_s_per_step", median(&cpu) / steps, "s", n),
        Metric::new("setup_s", median(&reps.setup), "s", reps.setup.len()),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MiB", 1),
        Metric::new("sim_us_per_day", report.us_per_day(), "us/day", 1),
        Metric::new("job_p50_ms", quantile(&wall, 0.5) * 1e3, "ms", n),
        Metric::new(
            "job_p95_ms",
            windowed(&wall, WINDOWS, |w| quantile(w, 0.95)) * 1e3,
            "ms",
            n,
        ),
        Metric::new(
            "svc_drain_jobs_per_s",
            windowed(&busy, WINDOWS, rate),
            "1/s",
            n,
        ),
    ]
}

/// Cluster-level probes at `input`'s size: one run call each under the
/// serial oracle, the default engine and `run_sharded`, checked against
/// each other; one chip; the report emitters. Returns the default
/// engine's finished run.
pub fn layer_probes(input: &Input, layers: &mut Layers, tally: &mut Tally) -> Finished {
    let serial = input.run(&EngineConfig::serial(), "cluster.serial_run");
    let auto = input.run(&EngineConfig::auto(), "cluster.run");
    tally.record(check::verdict(
        "default engine probe",
        &serial.digest,
        &auto.digest,
    ));
    match input.run_sharded() {
        Ok(s) => {
            layers.put("shard.sys_cpu_s", s.t.cpu.sys, "s", 1);
            tally.record(check::verdict("sharded probe", &serial.digest, &s.digest));
        }
        Err(e) => tally.record(Err(e)),
    }
    let r = &serial.report;
    let cycles = r.total_cycles as f64;
    let skipped = auto.cluster.skipped_cycles as f64;
    layers.put("cluster.sim_cycles", cycles, "count", 1);
    layers.put("cluster.skipped_cycles", skipped, "count", 1);
    layers.put("cluster.skipped_frac", skipped / cycles, "ratio", 1);
    let filter = r.stats.work("Filter") as f64;
    let forces = r.stats.work("PE") as f64;
    layers.put("core.filter_pairs", filter, "count", 1);
    layers.put("core.pe_forces", forces, "count", 1);
    layers.put("core.force_ratio", forces / filter, "ratio", 1);
    let steps = r.steps as f64;
    layers.put(
        "net.pos_packets",
        r.pos_packets as f64 / steps,
        "count/step",
        1,
    );
    layers.put(
        "net.frc_packets",
        r.frc_packets as f64 / steps,
        "count/step",
        1,
    );
    layers.nodes = r.nodes as f64;
    layers.steps = steps;
    chip_step(input);
    for _ in 0..5 {
        let _s = span("obs.metrics_json");
        std::hint::black_box(r.metrics_json().compact());
        std::hint::black_box(final_registry(r, None).totals_json());
    }
    auto
}

/// `TimedChip::new`/`load`/`run_timestep` of one chip over a 3×3×3
/// single-chip space at the input's density, three times.
fn chip_step(input: &Input) {
    let space = SimulationSpace::cubic(3);
    let sys = untraced(|| {
        WorkloadSpec {
            space,
            ..input.spec
        }
        .generate()
    });
    for _ in 0..3 {
        let _s = span("core.chip_step");
        let geo = ChipGeometry::single_chip(space);
        let mut chip = TimedChip::new(input.cfg.chip, geo, UnitSystem::PAPER, input.cfg.dt_fs);
        chip.load(&sys);
        chip.run_timestep();
    }
}

/// Metric names of one checkpoint probe size.
pub struct CkptNames {
    pub drain: &'static str,
    pub save: &'static str,
    pub load: &'static str,
    pub bytes: &'static str,
}

/// Checkpoint probes at the fig16 size and at the service-job size.
pub const CKPT: [CkptNames; 2] = [
    CkptNames {
        drain: "ckpt.drain",
        save: "ckpt.save",
        load: "ckpt.load",
        bytes: "ckpt.bytes",
    },
    CkptNames {
        drain: "ckpt.job_drain",
        save: "ckpt.job_save",
        load: "ckpt.job_load",
        bytes: "ckpt.job_bytes",
    },
];

/// `drain_to_container`, `save_checkpoint` and `load_checkpoint` of a
/// finished run, three times each.
pub fn ckpt_probe(done: &Finished, names: &CkptNames, layers: &mut Layers, work: &Path) {
    let mut acc = RunAccumulator::new();
    acc.fold(&done.report);
    let dir = work.join(names.save);
    let cfg = CheckpointConfig::new(1, &dir);
    let mut bytes = 0;
    for _ in 0..3 {
        bytes = {
            let _s = span(names.drain);
            drain_to_container(&done.cluster, &acc).len()
        };
        let path = {
            let _s = span(names.save);
            save_checkpoint(&done.cluster, &acc, &cfg).expect("checkpoint save")
        };
        let mut fresh = untraced(|| Cluster::new(done.cfg.clone(), &done.sys));
        let _s = span(names.load);
        load_checkpoint(&mut fresh, &path).expect("checkpoint load");
    }
    layers.put(names.bytes, bytes as f64, "bytes", 1);
    let _ = std::fs::remove_dir_all(dir);
}

/// Engine of each shard: the default engine on one thread. `auto()` as
/// is would start `nproc` threads in every shard, so on a 2-core host
/// the two shards would run four compute threads on two cores and
/// measure the kernel's scheduler more than the frame exchange.
fn shard_engine() -> EngineConfig {
    EngineConfig::auto().with_threads(1)
}
