//! Output checks. Every timed run is compared, outside its timed window,
//! with the serial oracle: the `EngineConfig::serial()` digest of
//! `state_dump` + the report's metrics document. Oracle digests for a
//! range of seeds are committed in `serial_digests.tsv`; for any other
//! seed the oracle runs in-process.

use fasda_cluster::{state_dump, Cluster, ClusterRunReport};
use fasda_md::system::ParticleSystem;

const COMMITTED: &str = include_str!("../serial_digests.tsv");

/// FNV-1a over the given byte strings, as 16 hex digits.
pub fn fnv(parts: &[&[u8]]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Digest of a finished simulation: its state dump and its report.
pub fn run_digest(cluster: &Cluster, sys: &ParticleSystem, report: &ClusterRunReport) -> String {
    let dump = {
        let _s = crate::spans::span("cluster.state_dump");
        state_dump(cluster, sys)
    };
    fnv(&[dump.as_bytes(), report.metrics_json().compact().as_bytes()])
}

/// The committed oracle digest of `workload` at `seed` and `steps`.
pub fn committed(workload: &str, seed: u64, steps: u64) -> Option<String> {
    COMMITTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| {
            f.len() == 4
                && f[0] == workload
                && f[1].parse() == Ok(seed)
                && f[2].parse() == Ok(steps)
        })
        .map(|f| f[3].to_string())
}

/// The one comparison every check goes through.
pub fn verdict(what: &str, expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {got} differs from the serial oracle's {expected}"
        ))
    }
}

/// Tally of checked operations feeding `failed_ratio`.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED {e}");
        }
    }

    pub fn ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Self-check of the comparison: a digest with one flipped bit must be
/// counted as a failure. Returns whether it was.
pub fn perturbed_digest_fails(digest: &str) -> bool {
    let mut bytes = digest.as_bytes().to_vec();
    bytes[0] = if bytes[0] == b'0' { b'1' } else { b'0' };
    let perturbed = String::from_utf8(bytes).expect("hex digest");
    verdict("self-check", digest, &perturbed).is_err()
}
