//! The `service` workload: an in-process `fasda-svc` server with two
//! workers and tenants weighted 2:1:1, driven from one thread over one
//! connection.
//!
//! * Open loop: jobs are sent on a fixed schedule of [`RATE`] jobs/s,
//!   whatever the server does. A job's latency runs from its *scheduled*
//!   send time to the poll that first sees it `completed`; the generator
//!   polls `status(id)` of outstanding jobs only. Every
//!   [`MIGRATE_EVERY`]th job is asked to migrate right after its submit.
//! * Backlog: three batches, each submitted at once after the one before
//!   has drained; a batch's drain rate is its size over the time until
//!   its last job is seen completed.
//!
//! Each job is `JobSpec::default()` geometry (633 cells over 333, two
//! nodes) at 4 Na/cell, two steps, a checkpoint every step, and its own
//! seed. Migrated jobs and every sixteenth other job write their state
//! dump, which is compared with an in-process run of the same spec.

use crate::check::{self, Tally};
use crate::host::{self, median, quantile, timed, windowed, Cpu};
use crate::sim::{self, Input, CKPT};
use crate::spans::{job_span, span, untraced};
use crate::{Layers, Metric, Outcome};
use fasda_cluster::Json;
use fasda_cluster::{state_dump, Cluster, ClusterConfig, EngineConfig};
use fasda_md::space::SimulationSpace;
use fasda_md::workload::WorkloadSpec;
use fasda_svc::{Client, JobSpec, Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Open-loop submit rate, jobs per second: about a quarter of the
/// drain rate, so a host that runs the server at a third of its usual
/// speed still keeps up and latency does not grow without bound.
pub const RATE: f64 = 40.0;
/// Share of `--seconds` spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.8;
/// Fewest latencies in each window of `job_p95_ms`, so at least ten lie
/// beyond each window's p95.
const TAIL_WINDOW: usize = 200;
/// Backlog jobs per `--seconds`, submitted in `BATCHES` batches, each
/// once the one before has drained; the drain metrics are the batches'
/// median.
const BACKLOG_PER_S: f64 = 20.0;
const BATCHES: u64 = 3;
const WORKERS: usize = 2;
const TENANTS: [(&str, u32); 3] = [("alice", 2), ("bob", 1), ("carol", 1)];
const JOB_PER_CELL: u32 = 4;
const JOB_STEPS: u64 = 2;
const MIGRATE_EVERY: u64 = 8;
/// Besides every migrated job, every `CHECK_EVERY`th job has its state
/// dump checked.
const CHECK_EVERY: u64 = 16;
/// Server set-ups per batch; `setup_s` is the median of three batches
/// and the workload's own server.
const SETUP_BATCH: usize = 10;
/// A job not completed this long after its due time has failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Pause between polling rounds when nothing is due.
const POLL: Duration = Duration::from_millis(1);

/// Spec of job `n` of a run seeded with `seed`.
pub fn job_spec(seed: u64, n: u64) -> JobSpec {
    JobSpec {
        name: format!("bench-{n}"),
        tenant: TENANTS[(n % TENANTS.len() as u64) as usize].0.to_string(),
        per_cell: JOB_PER_CELL,
        // The job protocol carries seeds as signed 64-bit integers; a
        // seed above `i64::MAX` would silently become the default seed.
        seed: sim::mix(seed ^ n.wrapping_mul(0x1000_0000_01b3)) >> 1,
        steps: JOB_STEPS,
        ckpt_every: 1,
        ..JobSpec::default()
    }
}

/// Job 0's input as a simulation input, for the cluster-level probes of
/// the traced run. Built the way `JobSpec::build` builds it.
pub fn job_input(seed: u64) -> Input {
    let spec = job_spec(seed, 0);
    let (cfg, _) = spec.build().expect("valid job spec");
    let ws = WorkloadSpec {
        per_cell: spec.per_cell,
        ..WorkloadSpec::paper(SimulationSpace::new(6, 3, 3), spec.seed)
    };
    Input {
        spec: ws,
        cfg,
        steps: spec.steps,
    }
}

/// A started server and its one client connection.
struct Session {
    handle: ServerHandle,
    client: Client,
    dir: PathBuf,
}

impl Session {
    fn start(dir: &Path) -> Result<Session, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir.join("dumps")).map_err(|e| e.to_string())?;
        let mut cfg = ServerConfig::at(dir);
        cfg.workers = WORKERS;
        for (tenant, weight) in TENANTS {
            cfg.tenants.parse_clause(&format!("{tenant}:{weight}"))?;
        }
        let handle = {
            let _s = span("svc.start");
            Server::start(cfg)?
        };
        let client = {
            let _s = span("svc.connect");
            Client::connect(handle.addr())?
        };
        Ok(Session {
            handle,
            client,
            dir: dir.to_path_buf(),
        })
    }

    /// Shut the server down; its directory stays for the dump checks.
    fn stop(mut self) {
        let _s = span("svc.stop");
        let _ = self.client.shutdown();
        self.handle.join();
    }
}

/// A job that left the generator's outstanding list.
struct Done {
    n: u64,
    dump: Option<PathBuf>,
    result: Result<(), String>,
}

/// A submitted job the generator still polls.
struct Pending {
    n: u64,
    id: u64,
    due: Instant,
    running: Option<Instant>,
    dump: Option<PathBuf>,
}

/// Client-side timings of the open-loop phase, in ms.
#[derive(Default)]
struct OpenLoop {
    /// Latency of every completed job, by job number (due order).
    latency: Vec<(u64, f64)>,
    late: Vec<f64>,
    queue_wait: Vec<f64>,
    run: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Submit job `n`, asking it to migrate when `migrate` is set and to
/// write its state dump when it is migrated or `check` is set.
fn submit(
    s: &mut Session,
    seed: u64,
    n: u64,
    migrate: bool,
    check: bool,
) -> Result<(u64, Option<PathBuf>), String> {
    let mut spec = job_spec(seed, n);
    let dump = (check || migrate).then(|| s.dir.join("dumps").join(format!("job-{n}.dump")));
    spec.dump_state = dump.as_ref().map(|p| p.display().to_string());
    let id = {
        let _s = job_span("svc.submit", n);
        s.client
            .submit(&spec)
            .map_err(|e| format!("submit job {n}: {e}"))?
    };
    if migrate {
        let _s = job_span("svc.migrate", n);
        // A job that is already past its last segment rejects the
        // request; that is not a failure.
        let _ = s.client.migrate(id);
    }
    Ok((id, dump))
}

/// The state of a job as its status document reports it.
fn state(s: &mut Session, p: &Pending) -> Result<String, String> {
    let _s = job_span("svc.status", p.n);
    let doc = s
        .client
        .status(p.id)
        .map_err(|e| format!("status of job {}: {e}", p.n))?;
    Ok(doc
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string())
}

/// Open loop: `count` jobs numbered from `first`, due at `RATE` per
/// second. With `alternate`, odd jobs run with span recording paused.
fn open_loop(
    s: &mut Session,
    seed: u64,
    first: u64,
    count: u64,
    alternate: bool,
    done: &mut Vec<Done>,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let mut pending: Vec<Pending> = Vec::new();
    let start = Instant::now();
    let due = |k: u64| start + Duration::from_secs_f64(k as f64 / RATE);
    let paused = |n: u64| alternate && n % 2 == 1;
    let mut next = 0;
    while next < count || !pending.is_empty() {
        while next < count && due(next) <= Instant::now() {
            let n = first + next;
            let d = due(next);
            out.late.push(ms(Instant::now() - d));
            let mut call = || {
                submit(
                    s,
                    seed,
                    n,
                    n.is_multiple_of(MIGRATE_EVERY),
                    n % CHECK_EVERY == 4,
                )
            };
            match if paused(n) { untraced(call) } else { call() } {
                Ok((id, dump)) => pending.push(Pending {
                    n,
                    id,
                    due: d,
                    running: None,
                    dump,
                }),
                Err(e) => done.push(Done {
                    n,
                    dump: None,
                    result: Err(e),
                }),
            }
            next += 1;
        }
        let mut i = 0;
        while i < pending.len() {
            let p = &pending[i];
            let st = if paused(p.n) {
                untraced(|| state(s, p))
            } else {
                state(s, p)
            };
            let now = Instant::now();
            let p = &mut pending[i];
            let result = match st.as_deref() {
                Ok("completed") => Some(Ok(())),
                Ok(state @ ("running" | "queued")) => {
                    if state == "running" {
                        p.running.get_or_insert(now);
                    }
                    (now - p.due >= JOB_TIMEOUT).then(|| Err(format!("job {} timed out", p.n)))
                }
                Ok(other) => Some(Err(format!("job {} ended {other}", p.n))),
                Err(e) => Some(Err(e.clone())),
            };
            match result {
                None => i += 1,
                Some(result) => {
                    let p = pending.swap_remove(i);
                    if result.is_ok() {
                        out.latency.push((p.n, ms(now - p.due)));
                        let ran = p.running.unwrap_or(now);
                        out.queue_wait.push(ms(ran - p.due));
                        out.run.push(ms(now - ran));
                    }
                    done.push(Done {
                        n: p.n,
                        dump: p.dump,
                        result,
                    });
                }
            }
        }
        let wake = if next < count {
            due(next).min(Instant::now() + POLL)
        } else {
            Instant::now() + POLL
        };
        let _s = span("loadgen.sleep");
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    out.latency.sort_by_key(|&(n, _)| n);
    out
}

impl OpenLoop {
    /// Latencies of the jobs whose number matches `keep`, in due order.
    fn latencies(&self, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.latency
            .iter()
            .filter(|(n, _)| keep(*n))
            .map(|&(_, l)| l)
            .collect()
    }
}

/// Backlog: `count` jobs numbered from `first`, submitted at once.
/// Returns the time until the last completed and the CPU it took.
fn backlog(s: &mut Session, seed: u64, first: u64, count: u64, done: &mut Vec<Done>) -> (f64, f64) {
    let (t0, c0) = (Instant::now(), Cpu::now());
    let mut pending = Vec::new();
    for n in first..first + count {
        match submit(s, seed, n, false, n % CHECK_EVERY == 4) {
            Ok((id, dump)) => pending.push(Pending {
                n,
                id,
                due: t0,
                running: None,
                dump,
            }),
            Err(e) => done.push(Done {
                n,
                dump: None,
                result: Err(e),
            }),
        }
    }
    // Poll the oldest outstanding job only: the batch has drained when
    // the last of them is seen completed.
    pending.reverse();
    while let Some(p) = pending.last() {
        let result = match state(s, p).as_deref() {
            Ok("completed") => Some(Ok(())),
            Ok("queued" | "running") if t0.elapsed() < JOB_TIMEOUT => None,
            Ok("queued" | "running") => Some(Err(format!("job {} timed out", p.n))),
            Ok(other) => Some(Err(format!("job {} ended {other}", p.n))),
            Err(e) => Some(Err(e.clone())),
        };
        match result {
            Some(result) => {
                let p = pending.pop().expect("non-empty");
                done.push(Done {
                    n: p.n,
                    dump: p.dump,
                    result,
                });
            }
            None => std::thread::sleep(POLL),
        }
    }
    (t0.elapsed().as_secs_f64(), Cpu::now().since(c0).total())
}

/// Compare every checked job's dump with an in-process run of the same
/// spec, and tally every job. Returns the simulated rate of the first
/// checked job's machine.
fn check_jobs(seed: u64, done: &[Done], tally: &mut Tally) -> f64 {
    let _s = span("bench.check");
    let mut rate = f64::NAN;
    let mut sorted: Vec<&Done> = done.iter().collect();
    sorted.sort_by_key(|d| d.n);
    for d in sorted {
        let outcome = match (&d.result, &d.dump) {
            (Err(e), _) => Err(e.clone()),
            (Ok(()), None) => Ok(()),
            (Ok(()), Some(path)) => {
                let spec = job_spec(seed, d.n);
                let (cfg, sys): (ClusterConfig, _) = spec.build().expect("valid job spec");
                let mut cluster = Cluster::new(cfg, &sys);
                let report = cluster.run_with(spec.steps, &EngineConfig::serial());
                if rate.is_nan() {
                    rate = report.us_per_day();
                }
                let expected = check::fnv(&[state_dump(&cluster, &sys).as_bytes()]);
                match std::fs::read(path) {
                    Ok(got) => check::verdict(
                        &format!("service job {}", d.n),
                        &expected,
                        &check::fnv(&[&got]),
                    ),
                    Err(e) => Err(format!("service job {}: dump {}: {e}", d.n, path.display())),
                }
            }
        };
        tally.record(outcome);
    }
    rate
}

/// Timings of `count` server set-ups, each `Server::start` +
/// `Client::connect`, stopped again right away.
fn setups(work: &Path, batch: usize, count: usize) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    for k in 0..count {
        let (session, t) = timed(|| Session::start(&work.join(format!("setup-{batch}-{k}"))));
        session?.stop();
        times.push(t.wall);
    }
    Ok(times)
}

/// The service workload.
pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let mut tally = Tally::default();
    let root = trace.then(|| span("bench.e2e"));
    // Set-ups are sampled in three batches (before, between and after
    // the phases) so one slow moment of the host does not set the median.
    let mut setup = Vec::new();
    let mut s = match setups(work, 0, SETUP_BATCH).and_then(|t| {
        setup.extend(t);
        let (s, t) = timed(|| Session::start(&work.join("svc")));
        setup.push(t.wall);
        s
    }) {
        Ok(s) => s,
        Err(e) => {
            tally.record(Err(e));
            return Outcome {
                metrics: Vec::new(),
                tally,
            };
        }
    };
    let mut done = Vec::new();
    let open = (seconds * OPEN_SHARE * RATE).round() as u64;
    let ol = open_loop(&mut s, seed, 0, open, trace, &mut done);
    let between = setups(work, 1, SETUP_BATCH);
    let size = ((seconds * BACKLOG_PER_S) as u64 / BATCHES).max(8);
    let drains: Vec<(f64, f64)> = (0..BATCHES)
        .map(|b| backlog(&mut s, seed, open + b * size, size, &mut done))
        .collect();
    let server = s.client.metrics().unwrap_or(Json::Null);
    s.stop();
    for batch in [between, setups(work, 2, SETUP_BATCH)] {
        match batch {
            Ok(t) => setup.extend(t),
            Err(e) => tally.record(Err(e)),
        }
    }
    let rate = check_jobs(seed, &done, &mut tally);
    if ol.latency.is_empty() {
        tally.record(Err("no open-loop job completed".into()));
        return Outcome {
            metrics: Vec::new(),
            tally,
        };
    }
    if !trace {
        let all = ol.latencies(|_| true);
        let n = all.len();
        let jobs = (BATCHES * size) as usize;
        let job_steps = (size * JOB_STEPS) as f64;
        let per_batch = |f: &dyn Fn(f64, f64) -> f64| {
            median(
                &drains
                    .iter()
                    .map(|&(secs, cpu)| f(secs, cpu))
                    .collect::<Vec<_>>(),
            )
        };
        let metrics = vec![
            Metric::new(
                "steps_per_s",
                per_batch(&|secs, _| job_steps / secs),
                "1/s",
                jobs,
            ),
            Metric::new(
                "cpu_s_per_step",
                per_batch(&|_, cpu| cpu / job_steps),
                "s",
                jobs,
            ),
            Metric::new("setup_s", median(&setup), "s", setup.len()),
            Metric::new("peak_rss_mb", host::peak_rss_mb(), "MiB", 1),
            Metric::new("sim_us_per_day", rate, "us/day", 1),
            Metric::new("job_p50_ms", quantile(&all, 0.5), "ms", n),
            Metric::new(
                "job_p95_ms",
                windowed(&all, (n / TAIL_WINDOW).min(5), |w| quantile(w, 0.95)),
                "ms",
                n,
            ),
            Metric::new(
                "svc_drain_jobs_per_s",
                per_batch(&|secs, _| size as f64 / secs),
                "1/s",
                jobs,
            ),
        ];
        return Outcome { metrics, tally };
    }
    let mut layers = Layers::default();
    svc_layers(&ol, &server, &mut layers);
    // Odd jobs ran with span recording paused.
    let overhead = median(&ol.latencies(|n| n % 2 == 0)) / median(&ol.latencies(|n| n % 2 == 1));
    layers.put("bench.trace_overhead", overhead, "ratio", ol.latency.len());
    let own = sim::layer_probes(&job_input(seed), &mut layers, &mut tally);
    sim::ckpt_probe(&own, &CKPT[1], &mut layers, work);
    let fig16 = sim::Input::fig16(sim::Kind::Dense, seed);
    let big = untraced(|| fig16.run(&EngineConfig::auto(), "cluster.run"));
    sim::ckpt_probe(&big, &CKPT[0], &mut layers, work);
    drop(root);
    Outcome {
        metrics: layers.finish("service", seed, work),
        tally,
    }
}

/// A short open-loop session for the traced runs of the simulation
/// workloads, so every traced run reports the `svc` layer.
pub fn probe(seed: u64, layers: &mut Layers, tally: &mut Tally, work: &Path) {
    let mut s = match Session::start(&work.join("svc-probe")) {
        Ok(s) => s,
        Err(e) => return tally.record(Err(e)),
    };
    let mut done = Vec::new();
    let ol = open_loop(&mut s, seed, 0, RATE as u64, false, &mut done);
    let server = s.client.metrics().unwrap_or(Json::Null);
    s.stop();
    check_jobs(seed, &done, tally);
    svc_layers(&ol, &server, layers);
}

/// The `svc` and `loadgen` per-layer metrics of an open-loop phase.
fn svc_layers(ol: &OpenLoop, server: &Json, layers: &mut Layers) {
    let counter = |name: &str| {
        server
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_i64)
            .unwrap_or(0) as f64
    };
    layers.put(
        "svc.queue_wait_ms",
        median(&ol.queue_wait),
        "ms",
        ol.queue_wait.len(),
    );
    layers.put("svc.run_ms", median(&ol.run), "ms", ol.run.len());
    layers.put("svc.migrations", counter("jobs_migrated"), "count", 1);
    layers.put(
        "svc.queue_depth_peak",
        counter("queue_depth_peak"),
        "count",
        1,
    );
    layers.put(
        "loadgen.late_p95_ms",
        quantile(&ol.late, 0.95),
        "ms",
        ol.late.len(),
    );
    layers.put(
        "loadgen.late_max_ms",
        quantile(&ol.late, 1.0),
        "ms",
        ol.late.len(),
    );
}
