//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense|straggler|sharded|service --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the library from outside, through the entry points a user or
//! the job service uses, for `--seconds` of measured work. Every output
//! is checked against the serial oracle outside the timed windows. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a separate traced
//! run records spans around the same calls and reports per-layer
//! metrics. See `perfbench/README.md`.
//!
//! `--write-digests FROM TO` prints the serial-oracle digest table for
//! seeds `FROM..TO` (the contents of `serial_digests.tsv`).

mod check;
mod host;
mod sim;
mod spans;
mod svc;

use sim::Kind;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// What a workload run hands back: its metrics and its check tally.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: check::Tally,
}

/// Per-layer metrics of a traced run. Probes `put` what they count
/// directly; [`Layers::finish`] derives the timings from the spans.
#[derive(Default)]
pub struct Layers {
    metrics: Vec<Metric>,
    /// Nodes and steps of the probed input, for `outside_chip_frac`.
    pub nodes: f64,
    pub steps: f64,
}

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 9] = [
    "md", "cluster", "core", "shard", "ckpt", "svc", "obs", "loadgen", "bench",
];

impl Layers {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    /// Close the trace: derive span timings, write the spans out, and
    /// return every per-layer metric.
    pub fn finish(mut self, workload: &str, seed: u64, work: &Path) -> Vec<Metric> {
        let all = spans::take();
        let med = |name: &str| {
            let d = spans::durations(&all, name);
            (
                if d.is_empty() {
                    f64::NAN
                } else {
                    host::median(&d)
                },
                d.len(),
            )
        };
        let put_s = |layers: &mut Layers, metric: &str, span: &str, scale: f64, unit| {
            let (v, n) = med(span);
            layers.put(metric, v * scale, unit, n);
            v
        };
        put_s(&mut self, "md.generate_s", "md.generate", 1.0, "s");
        put_s(&mut self, "cluster.build_s", "cluster.build", 1.0, "s");
        let run = put_s(&mut self, "cluster.run_s", "cluster.run", 1.0, "s");
        let serial = put_s(
            &mut self,
            "cluster.serial_run_s",
            "cluster.serial_run",
            1.0,
            "s",
        );
        self.put("cluster.default_vs_serial", serial / run, "ratio", 1);
        let chip = put_s(&mut self, "core.chip_step_s", "core.chip_step", 1.0, "s");
        let outside = 1.0 - self.nodes * chip / (serial / self.steps);
        self.put("cluster.outside_chip_frac", outside, "ratio", 1);
        let shard = put_s(&mut self, "shard.run_s", "shard.run", 1.0, "s");
        self.put("shard.overhead_s", shard - run, "s", 1);
        for name in sim::CKPT.iter().flat_map(|c| [c.drain, c.save, c.load]) {
            put_s(&mut self, &format!("{name}_ms"), name, 1e3, "ms");
        }
        put_s(
            &mut self,
            "obs.metrics_json_ms",
            "obs.metrics_json",
            1e3,
            "ms",
        );
        let submit = spans::durations(&all, "svc.submit");
        self.put(
            "svc.submit_p50_ms",
            host::quantile(&submit, 0.5) * 1e3,
            "ms",
            submit.len(),
        );
        self.put(
            "svc.submit_p95_ms",
            host::quantile(&submit, 0.95) * 1e3,
            "ms",
            submit.len(),
        );
        put_s(&mut self, "svc.status_ms", "svc.status", 1e3, "ms");
        put_s(&mut self, "svc.migrate_ms", "svc.migrate", 1e3, "ms");
        let selfs = spans::self_times(&all);
        for layer in LAYERS {
            let v = selfs.get(layer).copied().unwrap_or(0.0);
            self.put(&format!("{layer}.self_s"), v, "s", 1);
        }
        let unattributed = selfs.get("unattributed").copied().unwrap_or(0.0);
        self.put("unattributed", unattributed, "s", 1);
        let path = work.with_file_name(format!("spans-{workload}-{seed}.jsonl"));
        match std::fs::write(&path, spans::to_jsonl(&all)) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                all.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        self.metrics
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or(format!("--{k} is required"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: num("seconds")? as f64,
        trace: num("trace")? == 1,
    })
}

/// Print the serial-oracle digests of seeds `from..to` in the format of
/// `serial_digests.tsv`.
fn write_digests(from: u64, to: u64) {
    println!("# workload seed steps digest  (EngineConfig::serial(), state_dump + report)");
    for seed in from..to {
        for kind in [Kind::Dense, Kind::Straggler] {
            let input = sim::Input::fig16(kind, seed);
            let d = input
                .run(&fasda_cluster::EngineConfig::serial(), "cluster.serial_run")
                .digest;
            println!("{} {seed} {} {d}", kind.name(), input.steps);
            if kind == Kind::Dense {
                println!("sharded {seed} {} {d}", input.steps);
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--write-digests") {
        let num = |i: usize| {
            argv.get(i)
                .and_then(|s| s.parse().ok())
                .expect("--write-digests FROM TO")
        };
        return write_digests(num(2), num(3));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work: PathBuf = Path::new(".bench_run").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        std::process::exit(1);
    }
    println!(
        "# host {}",
        host::header(&args.workload, args.seed, args.trace)
    );
    // The comparison itself must count a wrong digest as a failure.
    let selfcheck = check::perturbed_digest_fails(&check::fnv(&[b"self-check"]));
    println!("# self-check: perturbed digest counted as a failure: {selfcheck}");

    let (started, steal0) = (std::time::Instant::now(), host::steal_s());
    spans::set_recording(args.trace);
    let outcome = match args.workload.as_str() {
        "dense" => sim::run(Kind::Dense, args.seed, args.seconds, args.trace, &work),
        "straggler" => sim::run(Kind::Straggler, args.seed, args.seconds, args.trace, &work),
        "sharded" => sim::run(Kind::Sharded, args.seed, args.seconds, args.trace, &work),
        "service" => svc::run(args.seed, args.seconds, args.trace, &work),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (dense, straggler, sharded, service)");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let (wall, steal) = (started.elapsed().as_secs_f64(), host::steal_s() - steal0);

    let tally = &outcome.tally;
    println!(
        "# {:<28} {:>16} {:<10} {:>7}",
        "metric", "value", "unit", "samples"
    );
    for m in &outcome.metrics {
        println!(
            "# {:<28} {:>16.6} {:<10} {:>7}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "# {:<28} {:>16.6} {:<10} {:>7}",
        "failed_ratio",
        tally.ratio(),
        "ratio",
        tally.attempted
    );
    println!("# host steal: {steal:.2} s of CPU taken by the hypervisor during {wall:.1} s");
    let correct = selfcheck
        && tally.attempted > 0
        && tally.failed == 0
        && !outcome.metrics.is_empty()
        && outcome.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
}
