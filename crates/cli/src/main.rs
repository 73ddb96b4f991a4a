//! `fasda` — command-line driver mirroring the paper artifact's flow.
//!
//! The artifact configures a build with `./compile.sh 222 444` (2×2×2
//! cells per FPGA, 4×4×4 total) and runs it with
//! `python run.py <scheduler> <dump_group> <num_iterations>`. This CLI
//! reproduces both steps against the cycle-level simulator:
//!
//! ```text
//! fasda run --per-fpga 222 --total 444 --steps 10 [--variant A|B|C]
//!           [--sync chained|bulk] [--dump-group N] [--per-cell 64]
//! fasda generate --total 444 --out system.pdb [--per-cell 64]
//! fasda info --per-fpga 222 --total 444 [--variant C]
//! ```

use fasda_cluster::ckpt::{
    latest_checkpoint, load_checkpoint, resume_latest, run_with_checkpoints, run_with_recovery,
    CheckpointConfig, RecoveryPolicy, RunAccumulator,
};
use fasda_cluster::{
    chrome_trace, coordinator_main_net, emit_final, final_totals_json, shard_ranges, stall_json,
    state_dump, trace_summary_json_with, worker_main_net, Cluster, ClusterConfig,
    ClusterRunReport, EngineConfig, FaultPlan, HostController, Json, ObsLive, ObsSinkConfig,
    RelConfig, ShardNet, ShardOpts, StallLedger, Trace, TraceConfig, TraceLevel,
};
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_core::geometry::{ChipCoord, ChipGeometry};
use fasda_core::resources::{estimate, ALVEO_U280};
use fasda_md::pdb::to_pdb;
use fasda_md::space::SimulationSpace;
use fasda_md::workload::WorkloadSpec;
use fasda_net::sync::SyncMode;
use fasda_svc::server::{bench_recovery_costs, policy_interval};
use fasda_svc::{Client, JobSpec, Listen, Server, ServerConfig};
use std::process::ExitCode;

/// Parse the artifact's `222`-style dimension triple.
fn parse_dims(s: &str) -> Result<(u32, u32, u32), String> {
    let digits: Vec<u32> = s
        .chars()
        .map(|c| c.to_digit(10).ok_or_else(|| format!("bad dims '{s}'")))
        .collect::<Result<_, _>>()?;
    match digits.as_slice() {
        [x, y, z] => Ok((*x, *y, *z)),
        _ => Err(format!(
            "dims must be three digits like the artifact's '222'/'444', got '{s}'"
        )),
    }
}

struct Opts {
    args: Vec<String>,
}

impl Opts {
    fn get(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    fn has(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }

    /// Every value of a repeatable flag, in order.
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.args
            .iter()
            .enumerate()
            .filter(|(_, a)| *a == key)
            .filter_map(|(i, _)| self.args.get(i + 1))
            .map(String::as_str)
            .collect()
    }
}

/// `--serial` / `--threads N` → engine configuration. The default is
/// [`EngineConfig::auto`], which probes the host: multi-core machines
/// get the full parallel engine with a chip crew of one member per
/// core, single-core ones run the compute phase on the main thread but
/// keep idle fast-forward. `--threads N` asks for an N-member crew; the
/// engine caps it at the host's cores, and under `--shards S` each
/// worker process gets at most `max(1, cores / S)` members. Every choice
/// yields a bit-identical run, only wall-clock time differs.
fn engine(opts: &Opts) -> Result<EngineConfig, String> {
    let mut e = if opts.has("--serial") {
        EngineConfig::serial()
    } else {
        let mut e = EngineConfig::auto();
        if let Some(t) = opts.get("--threads") {
            e = e.with_threads(t.parse().map_err(|_| "bad --threads")?);
        }
        e
    };
    e = e.with_trace(trace_config(opts)?);
    e = e.with_heartbeat_every(obs_opts(opts)?.every);
    Ok(e)
}

/// Live-telemetry options (see DESIGN.md §12). `--heartbeat-out` /
/// `--prom-out` without an explicit `--heartbeat-every` default to a
/// beat per step; `--obs-out` writes the engine-invariant final totals
/// document after the run.
struct ObsOpts {
    /// Heartbeat cadence in completed steps (0 = off).
    every: u64,
    sinks: ObsSinkConfig,
    obs_out: Option<String>,
}

impl ObsOpts {
    /// Whether any obs surface was requested — gates the optional
    /// metrics sections so obs-free runs stay byte-identical to
    /// pre-telemetry output.
    fn armed(&self) -> bool {
        self.every > 0 || self.obs_out.is_some()
    }
}

fn obs_opts(opts: &Opts) -> Result<ObsOpts, String> {
    let sinks = ObsSinkConfig {
        heartbeat_out: opts.get("--heartbeat-out").map(std::path::PathBuf::from),
        prom_out: opts.get("--prom-out").map(std::path::PathBuf::from),
    };
    let every = match opts.get("--heartbeat-every") {
        Some(n) => {
            let n: u64 = n.parse().map_err(|_| "bad --heartbeat-every")?;
            if n == 0 {
                return Err("--heartbeat-every must be >= 1 (omit the flag to disable)".into());
            }
            n
        }
        None if sinks.any() => 1,
        None => 0,
    };
    Ok(ObsOpts { every, sinks, obs_out: opts.get("--obs-out").map(String::from) })
}

/// Whether any obs flag is present — used before [`ObsOpts`] parsing to
/// pick the implied trace level (heartbeat stall breakdowns and the
/// final totals need the live ledger, i.e. at least `sync` tracing).
fn obs_flags_present(opts: &Opts) -> bool {
    ["--heartbeat-every", "--heartbeat-out", "--prom-out", "--obs-out"]
        .iter()
        .any(|f| opts.has(f))
}

/// Fold per-segment stall ledgers into whole-run totals (checkpointed
/// and sharded runs produce one trace per segment).
fn folded_stalls(traces: &[Trace], nodes: usize) -> Option<StallLedger> {
    if traces.is_empty() {
        return None;
    }
    let mut folded = StallLedger::new(nodes);
    for t in traces {
        folded.absorb(&t.stalls);
    }
    Some(folded)
}

/// Post-run obs surfaces: append the `final` record to the heartbeat
/// stream, refresh the scrape file, and write the `--obs-out` totals
/// document. All three derive from [`final_totals_json`] — a pure
/// function of the (engine- and shard-invariant) report and ledger, so
/// the artifacts byte-match across engines and shard counts.
fn finish_obs(
    obs: &ObsOpts,
    report: &ClusterRunReport,
    stalls: Option<&StallLedger>,
) -> Result<(), String> {
    if !obs.armed() {
        return Ok(());
    }
    emit_final(&obs.sinks, report, stalls).map_err(|e| e.to_string())?;
    if let Some(out) = &obs.obs_out {
        std::fs::write(out, final_totals_json(report, stalls).pretty())
            .map_err(|e| e.to_string())?;
        println!("wrote final live-metrics totals to {out}");
    }
    Ok(())
}

/// `--trace-level off|sync|full` → flight-recorder configuration. When
/// the level is not given explicitly, asking for a trace output file
/// implies the `sync` tier (phases, handshakes, stall attribution);
/// `--metrics-out` alone keeps the recorder off — the run section of
/// the metrics document needs no events.
fn trace_config(opts: &Opts) -> Result<TraceConfig, String> {
    let level = match opts.get("--trace-level") {
        Some("off") => TraceLevel::Off,
        Some("sync") => TraceLevel::Sync,
        Some("full") => TraceLevel::Full,
        Some(other) => return Err(format!("unknown trace level '{other}'")),
        None if opts.get("--trace-out").is_some() => TraceLevel::Sync,
        None if obs_flags_present(opts) => TraceLevel::Sync,
        None => TraceLevel::Off,
    };
    Ok(TraceConfig {
        level,
        ..TraceConfig::full()
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fasda run --per-fpga 222 --total 444 [--steps N] [--variant A|B|C]\n\
         \x20           [--sync chained|bulk] [--dump-group N] [--per-cell 64] [--seed S]\n\
         \x20           [--threads N] [--serial] [--shards S] [--shard-dir DIR]\n\
         \x20           [--fault-plan SPEC] [--drop-rate P] [--fault-seed S] [--unreliable]\n\
         \x20           [--checkpoint-every N --checkpoint-dir DIR] [--checkpoint-keep K]\n\
         \x20           [--resume FILE|latest] [--recover N] [--dump-state FILE]\n\
         \x20           [--trace-out run.trace.json] [--metrics-out run.metrics.json]\n\
         \x20           [--trace-level off|sync|full]\n\
         \x20           [--heartbeat-every N] [--heartbeat-out beats.jsonl]\n\
         \x20           [--prom-out scrape.prom] [--obs-out totals.json]\n\
         \x20 fasda generate --total 444 --out system.pdb [--per-cell 64] [--seed S]\n\
         \x20 fasda info --per-fpga 222 --total 444 [--variant A|B|C]\n\
         \x20 fasda ckpt policy --step-ms T --failure-rate L\n\
         \x20           [--save-ms S --restore-ms R | --bench BENCH_engine.json]\n\
         \x20           [--interval K]\n\
         \x20 fasda serve [--dir DIR] [--listen unix:PATH|tcp:HOST:PORT] [--workers N]\n\
         \x20           [--default-ckpt-every N | --policy-bench BENCH.json\n\
         \x20            --step-ms T --failure-rate L]\n\
         \x20           [--tenant NAME:WEIGHT[:MAX]]... [--max-restarts N]\n\
         \x20 fasda job submit --connect ADDR [--spec FILE.json | --name S --tenant T\n\
         \x20           --priority P --total 633 --per-fpga 333 --per-cell 64 --seed S\n\
         \x20           --steps N --fault-plan SPEC --unreliable --ckpt-every N\n\
         \x20           --dump-state FILE] [--wait [--timeout SECS]]\n\
         \x20 fasda job status|cancel|logs|migrate|wait --connect ADDR [--id N]\n\
         \x20 fasda job metrics|shutdown --connect ADDR\n\
         \n\
         fault-plan grammar: drop=P,corrupt=P,dup=P,delay=P:MAX,seed=N,\n\
         \x20                   kill=CHAN:SRC->DST:N,crash=NODE@STEP (repeatable),\n\
         \x20                   burst=P_ENTER:P_EXIT:P_DROP,\n\
         \x20                   flap=CHAN:SRC->DST:@STEP+DURATION,\n\
         \x20                   partition=NODESET|NODESET:@STEP+DURATION\n\
         (NODESET is '/'-separated nodes or half-open ranges, e.g. 0/2..5;\n\
         \x20faults enable the reliable-delivery layer unless --unreliable is given;\n\
         \x20a crash aborts the run — recover with --resume latest, which strips the\n\
         \x20crash directives, or let --recover N restart automatically up to N times,\n\
         \x20stripping exactly the directive that fired each time)\n\
         \n\
         --threads N sets the compute-phase crew size (at most one member per\n\
         core). --shards S partitions the nodes across S worker processes\n\
         exchanging boundary traffic over Unix-domain sockets; the run is\n\
         bit-identical to a single process, and the workers split the host's\n\
         cores (each crew gets at most max(1, cores / S) members). --worker I\n\
         --shard-dir DIR is the internal re-invocation the coordinator spawns —\n\
         not for direct use.\n\
         \n\
         live telemetry: --heartbeat-out streams one JSONL progress record every\n\
         --heartbeat-every N steps (default 1 when a sink is given); --prom-out\n\
         keeps a Prometheus text-format scrape file current; --obs-out writes the\n\
         engine- and shard-invariant final totals document. Sharded runs emit\n\
         fleet heartbeats naming the lagging shard. Any obs flag implies\n\
         --trace-level sync (the stall breakdown reads the live ledger)."
    );
    ExitCode::from(2)
}

/// `--fault-plan` / `--drop-rate` / `--fault-seed` → the seeded link-fault
/// schedule injected at the switch boundary. Any faults turn the
/// reliable-delivery layer (acks + retransmission) on, because chained
/// sync deadlocks on a lost marker otherwise; `--unreliable` opts back
/// out to study that failure mode.
fn fault_plan(opts: &Opts) -> Result<Option<FaultPlan>, String> {
    let mut plan = match opts.get("--fault-plan") {
        Some(spec) => Some(FaultPlan::parse(spec)?),
        None => None,
    };
    if let Some(p) = opts.get("--drop-rate") {
        let p: f64 = p.parse().map_err(|_| "bad --drop-rate")?;
        if !(0.0..1.0).contains(&p) {
            return Err(format!("--drop-rate {p} out of [0,1)"));
        }
        plan = Some(plan.unwrap_or_else(FaultPlan::none).with_rate(|r| r.drop = p));
    }
    if let Some(s) = opts.get("--fault-seed") {
        let s: u64 = s.parse().map_err(|_| "bad --fault-seed")?;
        plan = Some(plan.unwrap_or_else(FaultPlan::none).with_seed(s));
    }
    Ok(plan)
}

fn variant(opts: &Opts) -> Result<DesignVariant, String> {
    match opts.get_or("--variant", "A") {
        "A" | "a" => Ok(DesignVariant::A),
        "B" | "b" => Ok(DesignVariant::B),
        "C" | "c" => Ok(DesignVariant::C),
        other => Err(format!("unknown variant '{other}'")),
    }
}

fn workload(opts: &Opts) -> Result<(SimulationSpace, fasda_md::system::ParticleSystem), String> {
    let total = parse_dims(opts.get("--total").ok_or("--total required")?)?;
    let space = SimulationSpace::new(total.0, total.1, total.2);
    let per_cell: u32 = opts
        .get_or("--per-cell", "64")
        .parse()
        .map_err(|_| "bad --per-cell")?;
    let seed: u64 = opts.get_or("--seed", "64205").parse().map_err(|_| "bad --seed")?;
    let spec = WorkloadSpec {
        per_cell,
        ..WorkloadSpec::paper(space, seed)
    };
    Ok((space, spec.generate()))
}

/// `--checkpoint-every` / `--checkpoint-dir` / `--checkpoint-keep` → the
/// periodic snapshot schedule. Both of the first two are required to
/// turn checkpointing on.
fn checkpoint_config(opts: &Opts) -> Result<Option<CheckpointConfig>, String> {
    match (opts.get("--checkpoint-every"), opts.get("--checkpoint-dir")) {
        (Some(n), Some(dir)) => {
            let every: u64 = n.parse().map_err(|_| "bad --checkpoint-every")?;
            if every == 0 {
                return Err("--checkpoint-every must be >= 1".into());
            }
            let keep: usize = opts
                .get_or("--checkpoint-keep", "3")
                .parse()
                .map_err(|_| "bad --checkpoint-keep")?;
            Ok(Some(CheckpointConfig::new(every, dir).with_keep(keep)))
        }
        (None, None) => Ok(None),
        _ => Err("--checkpoint-every and --checkpoint-dir must be given together".into()),
    }
}

// Deterministic final-state dump (`--dump-state`): shared with the job
// service so a migrated job's dump and a direct run's dump are the same
// byte stream. See `fasda_cluster::state_dump`.

/// The checkpoint/resume run path: drives the cluster in segments via
/// `run_with_checkpoints` instead of the host controller. Selected only
/// when a checkpoint or resume flag is present, so plain runs keep the
/// exact pre-checkpointing code path.
#[allow(clippy::too_many_arguments)]
fn run_checkpointed(
    opts: &Opts,
    cfg: ClusterConfig,
    sys: &fasda_md::system::ParticleSystem,
    steps: u64,
    eng: &EngineConfig,
    ckpt: Option<CheckpointConfig>,
    resume: Option<&str>,
) -> Result<(), String> {
    let mut cluster = Cluster::new(cfg, sys);
    println!("{} FPGA node(s) configured; running...", cluster.num_nodes());
    let acc = match resume {
        None => RunAccumulator::new(),
        Some("latest") => {
            let dir = ckpt
                .as_ref()
                .map(|c| c.dir.clone())
                .ok_or("--resume latest needs --checkpoint-dir")?;
            match resume_latest(&mut cluster, &dir).map_err(|e| e.to_string())? {
                Some((path, acc)) => {
                    println!("resumed from {} (step {})", path.display(), acc.steps_done);
                    acc
                }
                None => {
                    println!("no checkpoint in {}; starting from step 0", dir.display());
                    RunAccumulator::new()
                }
            }
        }
        Some(path) => {
            let acc = load_checkpoint(&mut cluster, std::path::Path::new(path))
                .map_err(|e| e.to_string())?;
            println!("resumed from {path} (step {})", acc.steps_done);
            acc
        }
    };
    let obs = obs_opts(opts)?;
    if obs.every > 0 && obs.sinks.any() {
        let live = ObsLive::new(obs.every, &obs.sinks).map_err(|e| e.to_string())?;
        cluster.attach_obs(Box::new(live));
    }
    let run = run_with_checkpoints(
        &mut cluster,
        steps,
        2_000_000_000,
        eng,
        ckpt.as_ref(),
        acc,
    )
    .map_err(|e| e.to_string())?;
    let folded = folded_stalls(&run.traces, cluster.num_nodes());
    finish_obs(&obs, &run.report, folded.as_ref())?;

    println!(
        "\nsimulation rate: {:.2} µs/day ({:.0} cycles/step at 200 MHz)",
        run.report.us_per_day(),
        run.report.cycles_per_step()
    );
    if !run.checkpoints.is_empty() {
        println!(
            "wrote {} checkpoint(s), latest {}",
            run.checkpoints.len(),
            run.checkpoints.last().expect("non-empty").display()
        );
    }
    if run.report.faults_injected > 0 {
        println!("faults injected: {}", run.report.faults_injected);
    }
    if let Some(rel) = &run.report.reliability {
        println!(
            "reliable delivery: {} retransmits, {} acks, {} duplicates dropped, {} corrupt dropped",
            rel.retransmits, rel.acks_sent, rel.duplicates_dropped, rel.corrupt_dropped
        );
    }
    if let Some(out) = opts.get("--trace-out") {
        let trace = run
            .traces
            .last()
            .ok_or("--trace-out needs tracing on (drop --trace-level off)")?;
        std::fs::write(out, chrome_trace(trace)).map_err(|e| e.to_string())?;
        println!("wrote final-segment trace to {out} (earlier segments are not retained)");
    }
    if let Some(out) = opts.get("--metrics-out") {
        let nodes = cluster.num_nodes() as u64;
        let mut doc = Json::obj().field("run", run.report.metrics_json());
        if let Some(trace) = run.traces.last() {
            doc = doc
                .field("stalls", stall_json(&trace.stalls))
                .field("trace", trace_summary_json_with(trace, &[(0, 0, nodes)]));
        }
        if obs.armed() {
            doc = doc.field("obs", final_totals_json(&run.report, folded.as_ref()));
        }
        std::fs::write(out, doc.build().pretty()).map_err(|e| e.to_string())?;
        println!("wrote metrics to {out}");
    }
    if let Some(out) = opts.get("--dump-state") {
        std::fs::write(out, state_dump(&cluster, sys)).map_err(|e| e.to_string())?;
        println!("wrote state dump to {out}");
    }
    Ok(())
}

/// The `--recover N` run path: [`run_with_recovery`] builds (and after
/// each failure rebuilds) the cluster itself, stripping exactly the
/// fault directive that fired before resuming from the newest
/// checkpoint — so this path owns no resume flags, only the checkpoint
/// schedule, which it requires.
fn run_recovering(
    opts: &Opts,
    cfg: ClusterConfig,
    sys: &fasda_md::system::ParticleSystem,
    steps: u64,
    eng: &EngineConfig,
    ckpt: CheckpointConfig,
    max_restarts: u32,
) -> Result<(), String> {
    println!("recovery armed: up to {max_restarts} automatic restart(s)");
    let rec = run_with_recovery(
        sys,
        &cfg,
        steps,
        2_000_000_000,
        eng,
        &ckpt,
        &RecoveryPolicy::new(max_restarts),
    )
    .map_err(|e| e.to_string())?;
    for line in &rec.restarts {
        println!("recovered: {line}");
    }
    if rec.restarts.is_empty() {
        println!("no failure fired; the run completed on the first attempt");
    }
    println!(
        "\nsimulation rate: {:.2} µs/day ({:.0} cycles/step at 200 MHz)",
        rec.run.report.us_per_day(),
        rec.run.report.cycles_per_step()
    );
    if rec.run.report.faults_injected > 0 {
        println!("faults injected: {}", rec.run.report.faults_injected);
    }
    if let Some(out) = opts.get("--metrics-out") {
        let doc = Json::obj()
            .field("run", rec.run.report.metrics_json())
            .field(
                "restarts",
                Json::Arr(rec.restarts.iter().map(|s| Json::Str(s.clone())).collect()),
            );
        std::fs::write(out, doc.build().pretty()).map_err(|e| e.to_string())?;
        println!("wrote metrics to {out}");
    }
    if let Some(out) = opts.get("--dump-state") {
        std::fs::write(out, state_dump(&rec.cluster, sys)).map_err(|e| e.to_string())?;
        println!("wrote state dump to {out}");
    }
    Ok(())
}

/// The `--shards S` run path: spawn S worker processes (re-invoking our
/// own argv with `--worker I --shard-dir DIR` appended), drive the
/// global step barrier over the control socket, and fold their reports,
/// traces, and checkpoints into the same artifacts a one-process run
/// writes.
fn run_sharded_cli(
    opts: &Opts,
    cfg: ClusterConfig,
    sys: &fasda_md::system::ParticleSystem,
    steps: u64,
    shards: usize,
    ckpt: Option<CheckpointConfig>,
    resume: Option<&str>,
) -> Result<(), String> {
    let resume_path = match resume {
        None => None,
        Some("latest") => {
            let dir = ckpt
                .as_ref()
                .map(|c| c.dir.clone())
                .ok_or("--resume latest needs --checkpoint-dir")?;
            match latest_checkpoint(&dir).map_err(|e| e.to_string())? {
                Some(path) => {
                    println!("resuming from {}", path.display());
                    Some(path)
                }
                None => {
                    println!("no checkpoint in {}; starting from step 0", dir.display());
                    None
                }
            }
        }
        Some(path) => Some(std::path::PathBuf::from(path)),
    };
    // Rendezvous carrier: `--shard-listen ADDR` puts the control socket
    // and worker mesh on TCP (cross-host capable; loopback in CI), the
    // default stays Unix sockets in `--shard-dir`.
    let net = match opts.get("--shard-listen") {
        Some(addr) => ShardNet::Tcp(addr.to_string()),
        None => ShardNet::Unix(match opts.get("--shard-dir") {
            Some(d) => std::path::PathBuf::from(d),
            None => std::env::temp_dir().join(format!("fasda-shard-{}", std::process::id())),
        }),
    };
    // Workers rebuild config and workload by replaying this exact argv.
    let mut worker_argv = vec!["run".to_string()];
    worker_argv.extend(opts.args.iter().cloned());

    match &net {
        ShardNet::Unix(dir) => println!(
            "sharding across {shards} worker process(es); rendezvous in {}",
            dir.display()
        ),
        ShardNet::Tcp(addr) => {
            println!("sharding across {shards} worker process(es); listening on tcp {addr}")
        }
    }
    let obs = obs_opts(opts)?;
    let run = coordinator_main_net(
        &cfg,
        sys,
        steps,
        shards,
        ShardOpts {
            budget: 2_000_000_000,
            ckpt,
            resume: resume_path,
            obs: (obs.every > 0 && obs.sinks.any()).then(|| obs.sinks.clone()),
            tcp: false,
        },
        &net,
        &worker_argv,
    )
    .map_err(|e| e.to_string())?;
    let nodes = run.replica.num_nodes();
    let folded = folded_stalls(&run.traces, nodes);
    finish_obs(&obs, &run.report, folded.as_ref())?;
    // Shard provenance for the trace summary: which worker owned which
    // node span.
    let prov: Vec<(u32, u64, u64)> = shard_ranges(nodes, shards)
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u32, r.start as u64, r.end as u64))
        .collect();

    println!(
        "\nsimulation rate: {:.2} µs/day ({:.0} cycles/step at 200 MHz)",
        run.report.us_per_day(),
        run.report.cycles_per_step()
    );
    if !run.checkpoints.is_empty() {
        println!(
            "wrote {} checkpoint(s), latest {}",
            run.checkpoints.len(),
            run.checkpoints.last().expect("non-empty").display()
        );
    }
    if run.report.faults_injected > 0 {
        println!("faults injected: {}", run.report.faults_injected);
    }
    if let Some(rel) = &run.report.reliability {
        println!(
            "reliable delivery: {} retransmits, {} acks, {} duplicates dropped, {} corrupt dropped",
            rel.retransmits, rel.acks_sent, rel.duplicates_dropped, rel.corrupt_dropped
        );
    }
    if let Some(out) = opts.get("--trace-out") {
        let trace = run
            .traces
            .last()
            .ok_or("--trace-out needs tracing on (drop --trace-level off)")?;
        std::fs::write(out, chrome_trace(trace)).map_err(|e| e.to_string())?;
        println!("wrote final-segment trace to {out} (earlier segments are not retained)");
    }
    if let Some(out) = opts.get("--metrics-out") {
        let mut doc = Json::obj().field("run", run.report.metrics_json());
        if let Some(trace) = run.traces.last() {
            doc = doc
                .field("stalls", stall_json(&trace.stalls))
                .field("trace", trace_summary_json_with(trace, &prov));
        }
        if obs.armed() {
            doc = doc.field("obs", final_totals_json(&run.report, folded.as_ref()));
        }
        std::fs::write(out, doc.build().pretty()).map_err(|e| e.to_string())?;
        println!("wrote metrics to {out}");
    }
    if let Some(out) = opts.get("--dump-state") {
        std::fs::write(out, state_dump(&run.replica, sys)).map_err(|e| e.to_string())?;
        println!("wrote state dump to {out}");
    }
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let per_fpga = parse_dims(opts.get("--per-fpga").ok_or("--per-fpga required")?)?;
    let (space, sys) = workload(opts)?;
    let steps: u64 = opts.get_or("--steps", "5").parse().map_err(|_| "bad --steps")?;
    let v = variant(opts)?;
    let mut cfg = ClusterConfig::paper(ChipConfig::variant(v), per_fpga);
    cfg.sync = match opts.get_or("--sync", "chained") {
        "chained" => SyncMode::Chained,
        "bulk" => SyncMode::Bulk { latency: 2_000 },
        other => return Err(format!("unknown sync mode '{other}'")),
    };
    if let Some(plan) = fault_plan(opts)? {
        cfg = cfg.with_faults(plan);
        if !opts.has("--unreliable") {
            cfg = cfg.with_reliability(RelConfig::DEFAULT);
        }
    }
    // A resumed run must not re-fire the crash directive that killed the
    // original process.
    let resume = opts.get("--resume");
    if resume.is_some() {
        if let Some(plan) = &cfg.faults {
            cfg.faults = Some(plan.without_crash());
        }
    }

    // Shard-worker mode: this process was spawned by a `--shards`
    // coordinator re-invoking its own argv. Rendezvous and serve — all
    // output belongs to the coordinator.
    if let Some(w) = opts.get("--worker") {
        let index: usize = w.parse().map_err(|_| "bad --worker")?;
        let shards: usize = opts
            .get("--shards")
            .ok_or("--worker needs --shards")?
            .parse()
            .map_err(|_| "bad --shards")?;
        let net = match opts.get("--shard-connect") {
            Some(addr) => ShardNet::Tcp(addr.to_string()),
            None => ShardNet::Unix(
                opts.get("--shard-dir")
                    .ok_or("--worker needs --shard-dir or --shard-connect")?
                    .into(),
            ),
        };
        let eng = engine(opts)?;
        return worker_main_net(&cfg, &sys, &eng, index, shards, &net).map_err(|e| e.to_string());
    }

    println!(
        "FASDA: {}x{}x{} cells ({} atoms) on {}x{}x{} cells/FPGA, variant {} ({}), {} steps",
        space.dx,
        space.dy,
        space.dz,
        sys.len(),
        per_fpga.0,
        per_fpga.1,
        per_fpga.2,
        match v {
            DesignVariant::A => "A",
            DesignVariant::B => "B",
            DesignVariant::C => "C",
        },
        v.label(),
        steps
    );

    let eng = engine(opts)?;
    let ckpt = checkpoint_config(opts)?;
    if let Some(n) = opts.get("--recover") {
        let n: u32 = n.parse().map_err(|_| "bad --recover")?;
        if opts.get("--shards").is_some() {
            return Err("--recover drives a single-process run (each restart rebuilds the cluster in-process)".into());
        }
        if resume.is_some() {
            return Err("--recover and --resume are exclusive (recovery resumes by itself)".into());
        }
        let ckpt = ckpt.ok_or("--recover needs --checkpoint-every and --checkpoint-dir")?;
        return run_recovering(opts, cfg, &sys, steps, &eng, ckpt, n);
    }
    if let Some(s) = opts.get("--shards") {
        let shards: usize = s.parse().map_err(|_| "bad --shards")?;
        return run_sharded_cli(opts, cfg, &sys, steps, shards, ckpt, resume);
    }
    if ckpt.is_some() || resume.is_some() {
        return run_checkpointed(opts, cfg, &sys, steps, &eng, ckpt, resume);
    }
    let mut cluster = Cluster::new(cfg, &sys);
    println!("{} FPGA node(s) configured; running...", cluster.num_nodes());
    let obs = obs_opts(opts)?;
    if obs.every > 0 && obs.sinks.any() {
        let live = ObsLive::new(obs.every, &obs.sinks).map_err(|e| e.to_string())?;
        cluster.attach_obs(Box::new(live));
    }
    let mut host = HostController::new(cluster);
    let run = host
        .run_iterations_with(steps, &eng)
        .map_err(|e| e.to_string())?;

    println!("\nAXI-Lite result registers (per node):");
    println!(
        "{:<6}{:>16}{:>14}{:>12}{:>12}{:>12}{:>12}",
        "node",
        "operation_cyc",
        "PE_cyc",
        "out_pos",
        "out_frc",
        "in_pos",
        "in_frc"
    );
    for (n, regs) in run.regs.iter().enumerate() {
        println!(
            "{:<6}{:>16}{:>14}{:>12}{:>12}{:>12}{:>12}",
            n,
            regs.operation_cycle_cnt,
            regs.PE_cycle_cnt,
            regs.out_traffic_packets_pos,
            regs.out_traffic_packets_frc,
            regs.in_traffic_packets_pos,
            regs.in_traffic_packets_frc
        );
    }
    println!(
        "\nsimulation rate: {:.2} µs/day ({:.0} cycles/step at 200 MHz)",
        run.report.us_per_day(),
        run.report.cycles_per_step()
    );
    println!(
        "bandwidth demand: pos {:.2} Gbps, frc {:.2} Gbps per node",
        run.report.pos_gbps_per_node(),
        run.report.frc_gbps_per_node()
    );
    if run.report.faults_injected > 0 {
        println!("faults injected: {}", run.report.faults_injected);
    }
    if let Some(rel) = &run.report.reliability {
        println!(
            "reliable delivery: {} retransmits, {} acks, {} duplicates dropped, {} corrupt dropped",
            rel.retransmits, rel.acks_sent, rel.duplicates_dropped, rel.corrupt_dropped
        );
    }

    let trace = host.take_trace();
    finish_obs(&obs, &run.report, trace.as_ref().map(|t| &t.stalls))?;
    if let Some(out) = opts.get("--trace-out") {
        let trace = trace
            .as_ref()
            .ok_or("--trace-out needs tracing on (drop --trace-level off)")?;
        std::fs::write(out, chrome_trace(trace)).map_err(|e| e.to_string())?;
        let events: u64 = trace.nodes.iter().map(|n| n.events.len() as u64).sum();
        println!("wrote {events} trace events to {out} (load at https://ui.perfetto.dev)");
    }
    if let Some(out) = opts.get("--metrics-out") {
        let nodes = host.cluster().num_nodes() as u64;
        let mut doc = Json::obj().field("run", run.report.metrics_json());
        if let Some(trace) = &trace {
            doc = doc
                .field("stalls", stall_json(&trace.stalls))
                .field("trace", trace_summary_json_with(trace, &[(0, 0, nodes)]));
        }
        if obs.armed() {
            doc = doc.field(
                "obs",
                final_totals_json(&run.report, trace.as_ref().map(|t| &t.stalls)),
            );
        }
        std::fs::write(out, doc.build().pretty()).map_err(|e| e.to_string())?;
        println!("wrote metrics to {out}");
    }

    if let Some(g) = opts.get("--dump-group") {
        let node: usize = g.parse().map_err(|_| "bad --dump-group")?;
        let dump = host.dump_group(node);
        println!("\ndump of node {node} ({} particles):", dump.len());
        for (id, elem, pos, vel) in dump.iter().take(16) {
            println!(
                "  id {id:>6} {:<3} pos [{:+.4} {:+.4} {:+.4}] vel [{:+.2e} {:+.2e} {:+.2e}]",
                elem.symbol(),
                pos[0],
                pos[1],
                pos[2],
                vel[0],
                vel[1],
                vel[2]
            );
        }
        if dump.len() > 16 {
            println!("  ... {} more", dump.len() - 16);
        }
    }
    if let Some(out) = opts.get("--dump-state") {
        std::fs::write(out, state_dump(host.cluster(), &sys)).map_err(|e| e.to_string())?;
        println!("wrote state dump to {out}");
    }
    Ok(())
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let (_, sys) = workload(opts)?;
    let out = opts.get("--out").ok_or("--out required")?;
    std::fs::write(out, to_pdb(&sys)).map_err(|e| e.to_string())?;
    println!("wrote {} atoms to {out}", sys.len());
    Ok(())
}

fn cmd_info(opts: &Opts) -> Result<(), String> {
    let per_fpga = parse_dims(opts.get("--per-fpga").ok_or("--per-fpga required")?)?;
    let total = parse_dims(opts.get("--total").ok_or("--total required")?)?;
    let space = SimulationSpace::new(total.0, total.1, total.2);
    let v = variant(opts)?;
    let geo = ChipGeometry::new(space, per_fpga, ChipCoord::new(0, 0, 0));
    let cfg = ChipConfig::variant(v);
    println!(
        "configuration: {} FPGAs, {} CBBs each, {} PEs/CBB ({} filters), {} peers/node",
        geo.num_chips(),
        geo.num_cbbs(),
        cfg.pes_per_cbb(),
        cfg.filters_per_cbb(),
        geo.send_chips().len(),
    );
    let pct = estimate(&cfg, &geo).percent_of(ALVEO_U280);
    println!(
        "estimated per-FPGA resources (Alveo U280): LUT {:.0}%  FF {:.0}%  BRAM {:.0}%  URAM {:.0}%  DSP {:.0}%",
        pct.lut, pct.ff, pct.bram, pct.uram, pct.dsp
    );
    Ok(())
}

/// `fasda ckpt policy` — the data-loss / availability calculator:
/// Young–Daly checkpoint-interval optimization over measured costs.
/// `--save-ms` / `--restore-ms` may come from flags or from the mean of
/// the `recovery` sweep a `chaosbench --recovery` run merged into the
/// benchmark document (`--bench`).
fn cmd_ckpt_policy(opts: &Opts) -> Result<(), String> {
    use fasda_cluster::ckpt::policy::PolicyInput;
    let step_cost: f64 = opts
        .get("--step-ms")
        .ok_or("--step-ms required (wall-clock cost of one simulated step)")?
        .parse()
        .map_err(|_| "bad --step-ms")?;
    let failure_rate: f64 = opts
        .get("--failure-rate")
        .ok_or("--failure-rate required (failures per simulated step)")?
        .parse()
        .map_err(|_| "bad --failure-rate")?;
    let bench = match opts.get("--bench") {
        None => None,
        Some(path) => {
            let (save, restore, rows) = bench_recovery_costs(path)?;
            println!("measured costs: mean over {rows} recovery sweep row(s) in {path}");
            Some((save, restore))
        }
    };
    let cost = |flag: &str, measured: Option<f64>| -> Result<f64, String> {
        match opts.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("bad {flag}")),
            None => measured.ok_or_else(|| {
                format!("{flag} required (or --bench pointing at a recovery sweep)")
            }),
        }
    };
    let save_cost = cost("--save-ms", bench.as_ref().and_then(|b| b.0))?;
    let restore_cost = cost("--restore-ms", bench.as_ref().and_then(|b| b.1))?;
    if !step_cost.is_finite() || step_cost <= 0.0 || failure_rate < 0.0 || save_cost < 0.0 || restore_cost < 0.0 {
        return Err("costs must be non-negative, with --step-ms > 0".into());
    }
    let input = PolicyInput { save_cost, restore_cost, step_cost, failure_rate };

    println!(
        "inputs: save {save_cost:.3} ms, restore {restore_cost:.3} ms, step {step_cost:.3} ms, \
         failure rate {failure_rate:e}/step"
    );
    let ystar = input.young_daly_interval();
    if ystar.is_infinite() {
        println!("failure rate 0: never checkpoint (any interval only adds save overhead)");
        return Ok(());
    }
    println!("Young-Daly optimum: sqrt(2*save/(rate*step)) = {ystar:.1} steps\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>13}",
        "interval", "save-ovhd", "loss/fail", "rework-ovhd", "availability"
    );
    let best = input.optimize();
    let mut ks = vec![
        (best.interval_steps / 4).max(1),
        (best.interval_steps / 2).max(1),
        best.interval_steps,
        best.interval_steps * 2,
        best.interval_steps * 4,
    ];
    if let Some(k) = opts.get("--interval") {
        ks.push(k.parse().map_err(|_| "bad --interval")?);
    }
    ks.sort_unstable();
    ks.dedup();
    for k in ks {
        let f = input.forecast(k);
        let mark = if f.interval_steps == best.interval_steps { "  <- optimal" } else { "" };
        println!(
            "{:>10} {:>11.2}% {:>10.1} st {:>11.2}% {:>12.4}{mark}",
            f.interval_steps,
            f.save_overhead * 100.0,
            f.expected_loss_steps,
            f.rework_overhead * 100.0,
            f.availability
        );
    }
    Ok(())
}

/// `--connect` / `--listen` address syntax: `tcp:HOST:PORT` selects the
/// TCP carrier, anything else (optionally prefixed `unix:`) is a
/// Unix-domain socket path.
fn parse_endpoint(spec: &str) -> Listen {
    if let Some(addr) = spec.strip_prefix("tcp:") {
        Listen::Tcp(addr.to_string())
    } else {
        Listen::Unix(spec.strip_prefix("unix:").unwrap_or(spec).into())
    }
}

/// `fasda serve` — the multi-tenant job daemon (see DESIGN.md §14).
/// Runs until a client sends `shutdown`; running jobs drain at their
/// next segment boundary and are journaled as requeued, so a restarted
/// server resumes them from their newest on-disk checkpoints.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let dir = std::path::PathBuf::from(opts.get_or("--dir", "fasda-svc"));
    let mut cfg = ServerConfig::at(&dir);
    if let Some(l) = opts.get("--listen") {
        cfg.listen = parse_endpoint(l);
    }
    if let Some(w) = opts.get("--workers") {
        cfg.workers = w.parse().map_err(|_| "bad --workers")?;
    }
    if let Some(m) = opts.get("--max-restarts") {
        cfg.max_restarts = m.parse().map_err(|_| "bad --max-restarts")?;
    }
    for clause in opts.get_all("--tenant") {
        cfg.tenants.parse_clause(clause)?;
    }
    // The default checkpoint cadence: explicit flag, or the Young–Daly
    // optimum computed from measured recovery costs (`fasda ckpt policy`
    // with --bench, folded into the server).
    cfg.default_ckpt_every = match (opts.get("--default-ckpt-every"), opts.get("--policy-bench")) {
        (Some(n), None) => {
            let n: u64 = n.parse().map_err(|_| "bad --default-ckpt-every")?;
            if n == 0 {
                return Err("--default-ckpt-every must be >= 1".into());
            }
            n
        }
        (None, Some(bench)) => {
            let step_ms: f64 = opts
                .get("--step-ms")
                .ok_or("--policy-bench needs --step-ms (wall-clock cost of one step)")?
                .parse()
                .map_err(|_| "bad --step-ms")?;
            let failure_rate: f64 = opts
                .get("--failure-rate")
                .ok_or("--policy-bench needs --failure-rate (failures per step)")?
                .parse()
                .map_err(|_| "bad --failure-rate")?;
            let (save, restore, rows) = bench_recovery_costs(bench)?;
            let save = save.ok_or("no serialize_ms in the recovery sweep")?;
            let restore = restore.ok_or("no restore_ms in the recovery sweep")?;
            let every = policy_interval(step_ms, failure_rate, save, restore)?;
            println!(
                "policy cadence: checkpoint every {every} step(s) \
                 (Young-Daly over {rows} sweep row(s): save {save:.3} ms, restore {restore:.3} ms)"
            );
            every
        }
        (None, None) => cfg.default_ckpt_every,
        (Some(_), Some(_)) => {
            return Err("--default-ckpt-every and --policy-bench are exclusive".into())
        }
    };
    let workers = cfg.workers;
    let handle = Server::start(cfg).map_err(|e| e.to_string())?;
    match handle.addr() {
        Listen::Unix(path) => println!(
            "fasda-svc: {workers} worker(s), control socket {}",
            path.display()
        ),
        Listen::Tcp(addr) => println!("fasda-svc: {workers} worker(s), listening on tcp {addr}"),
    }
    println!("serving until a client sends shutdown (fasda job shutdown --connect ...)");
    handle.join();
    println!("fasda-svc: shut down cleanly");
    Ok(())
}

/// Build a [`JobSpec`] from `fasda job submit` flags (or `--spec FILE`
/// with a JSON document, with flags layered on top is NOT supported —
/// the file is the spec).
fn job_spec(opts: &Opts) -> Result<JobSpec, String> {
    if let Some(path) = opts.get("--spec") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        return JobSpec::from_json(&doc);
    }
    let d = JobSpec::default();
    let spec = JobSpec {
        name: opts.get_or("--name", "").to_string(),
        tenant: opts.get_or("--tenant", &d.tenant).to_string(),
        priority: opts
            .get_or("--priority", "0")
            .parse()
            .map_err(|_| "bad --priority")?,
        total: opts.get_or("--total", &d.total).to_string(),
        per_fpga: opts.get_or("--per-fpga", &d.per_fpga).to_string(),
        per_cell: opts
            .get("--per-cell")
            .map(|v| v.parse().map_err(|_| "bad --per-cell"))
            .transpose()?
            .unwrap_or(d.per_cell),
        seed: opts
            .get("--seed")
            .map(|v| v.parse().map_err(|_| "bad --seed"))
            .transpose()?
            .unwrap_or(d.seed),
        steps: opts
            .get("--steps")
            .map(|v| v.parse().map_err(|_| "bad --steps"))
            .transpose()?
            .unwrap_or(d.steps),
        fault_plan: opts.get("--fault-plan").map(String::from),
        unreliable: opts.has("--unreliable"),
        ckpt_every: opts
            .get("--ckpt-every")
            .map(|v| v.parse().map_err(|_| "bad --ckpt-every"))
            .transpose()?
            .unwrap_or(0),
        dump_state: opts.get("--dump-state").map(String::from),
    };
    // Round-trip through JSON so flag-built specs hit exactly the
    // validation a submitted document does.
    JobSpec::from_json(&spec.to_wire()?)
}

fn job_id(opts: &Opts) -> Result<u64, String> {
    opts.get("--id")
        .ok_or("--id required")?
        .parse()
        .map_err(|_| "bad --id".into())
}

/// `fasda job <verb>` — the service client.
fn cmd_job(opts: &Opts) -> Result<(), String> {
    let verb = opts
        .args
        .first()
        .map(String::as_str)
        .ok_or("job needs a verb: submit|status|cancel|logs|migrate|wait|metrics|shutdown")?;
    let addr = parse_endpoint(opts.get("--connect").ok_or("--connect required")?);
    let mut client = Client::connect(&addr)?;
    match verb {
        "submit" => {
            let spec = job_spec(opts)?;
            let id = client.submit(&spec).map_err(|e| e.to_string())?;
            println!("submitted job {id}");
            if opts.has("--wait") {
                let status = client
                    .wait(id, wait_timeout(opts)?)
                    .map_err(|e| e.to_string())?;
                println!("{}", status.pretty());
            }
        }
        "status" => match opts.get("--id") {
            Some(_) => {
                let doc = client.status(job_id(opts)?).map_err(|e| e.to_string())?;
                println!("{}", doc.pretty());
            }
            None => {
                for doc in client.status_all().map_err(|e| e.to_string())? {
                    println!("{}", doc.compact());
                }
            }
        },
        "cancel" => {
            client.cancel(job_id(opts)?).map_err(|e| e.to_string())?;
            println!("cancel requested");
        }
        "logs" => {
            for line in client.logs(job_id(opts)?).map_err(|e| e.to_string())? {
                println!("{line}");
            }
        }
        "migrate" => {
            client.migrate(job_id(opts)?).map_err(|e| e.to_string())?;
            println!("migration requested (drains at the next segment boundary)");
        }
        "wait" => {
            let status = client
                .wait(job_id(opts)?, wait_timeout(opts)?)
                .map_err(|e| e.to_string())?;
            println!("{}", status.pretty());
        }
        "metrics" => {
            let doc = client.metrics().map_err(|e| e.to_string())?;
            println!("{}", doc.pretty());
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("shutdown requested (running jobs drain and journal as requeued)");
        }
        other => return Err(format!("unknown job verb '{other}'")),
    }
    Ok(())
}

fn wait_timeout(opts: &Opts) -> Result<std::time::Duration, String> {
    let secs: u64 = opts
        .get_or("--timeout", "3600")
        .parse()
        .map_err(|_| "bad --timeout")?;
    Ok(std::time::Duration::from_secs(secs))
}

fn cmd_ckpt(opts: &Opts) -> Result<(), String> {
    match opts.args.first().map(String::as_str) {
        Some("policy") => cmd_ckpt_policy(opts),
        Some(other) => Err(format!("unknown ckpt subcommand '{other}' (try 'policy')")),
        None => Err("ckpt needs a subcommand (try 'policy')".into()),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    let opts = Opts { args };
    let result = match cmd.as_str() {
        "run" => cmd_run(&opts),
        "generate" => cmd_generate(&opts),
        "info" => cmd_info(&opts),
        "ckpt" => cmd_ckpt(&opts),
        "serve" => cmd_serve(&opts),
        "job" => cmd_job(&opts),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_dims;

    #[test]
    fn artifact_dim_syntax() {
        assert_eq!(parse_dims("222"), Ok((2, 2, 2)));
        assert_eq!(parse_dims("444"), Ok((4, 4, 4)));
        assert_eq!(parse_dims("633"), Ok((6, 3, 3)));
        assert!(parse_dims("22").is_err());
        assert!(parse_dims("2222").is_err());
        assert!(parse_dims("2x2").is_err());
    }
}
