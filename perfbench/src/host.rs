//! Host-side measurement: process CPU time, peak RSS, the run's metadata
//! header, and the order statistics every reported timing goes through.

use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User and system CPU seconds this whole process (every thread,
/// harness threads included) has used so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cpu {
    pub user: f64,
    pub sys: f64,
}

impl Cpu {
    pub fn now() -> Cpu {
        let mut ru = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            rest: [0; 14],
        };
        // SAFETY: `ru` is a valid, writable `struct rusage`; RUSAGE_SELF = 0.
        let rc = unsafe { getrusage(0, &mut ru) };
        assert_eq!(rc, 0, "getrusage failed");
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
        Cpu {
            user: secs(ru.utime),
            sys: secs(ru.stime),
        }
    }

    pub fn total(&self) -> f64 {
        self.user + self.sys
    }

    pub fn since(&self, start: Cpu) -> Cpu {
        Cpu {
            user: self.user - start.user,
            sys: self.sys - start.sys,
        }
    }
}

/// Wall and CPU time of one measured call.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub wall: f64,
    pub cpu: Cpu,
}

/// Run `f`, returning its value with the wall and CPU time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let (t0, c0) = (Instant::now(), Cpu::now());
    let v = f();
    let wall = t0.elapsed().as_secs_f64();
    (
        v,
        Timed {
            wall,
            cpu: Cpu::now().since(c0),
        },
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `rustflags` line of `.cargo/config.toml`, which is what makes the
/// build `target-cpu=native`.
fn rustflags() -> String {
    std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.trim_start().starts_with("rustflags"))
                .and_then(|l| l.split_once('='))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "none".to_string())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One-line JSON header describing the host and build a result came
/// from. `compare.py` flags results whose `nproc` differs from the
/// base's.
pub fn header(workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {}, \
         \"rustflags\": {:?}, \"profile\": \"{}\", \"git_rev\": \"{}\"}}",
        nproc(),
        rustflags(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_rev()
    )
}

/// CPU seconds the hypervisor has taken from this machine's CPUs since
/// boot (`steal` of `/proc/stat`, in clock ticks of 1/100 s). A shared
/// host that steals time during a run slows it whatever the code does.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median over `windows` consecutive windows of time-ordered samples of
/// `stat` taken per window. A short slow spell of the host then moves one
/// window's value, not the result; tail statistics need this most.
pub fn windowed(samples: &[f64], windows: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let (n, k) = (samples.len(), windows.max(1).min(samples.len()));
    let per: Vec<f64> = (0..k)
        .map(|i| stat(&samples[i * n / k..(i + 1) * n / k]))
        .collect();
    median(&per)
}
