//! Engine determinism regression: every engine configuration — idle
//! fast-forward, rayon compute phase, SoA batch kernels, the chips'
//! fast path, and their combination — must produce reports and
//! particle state bit-identical to the serial reference loop, for both
//! synchronization modes.

use fasda_cluster::{Cluster, ClusterConfig, ClusterError, ClusterRunReport, EngineConfig};
use fasda_core::config::ChipConfig;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::workload::{Placement, WorkloadSpec};
use fasda_net::sync::SyncMode;

fn workload(seed: u64) -> ParticleSystem {
    WorkloadSpec {
        space: SimulationSpace::cubic(6),
        per_cell: 3,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed,
        element: Element::Na,
    }
    .generate()
}

/// 2×2×2 nodes: a 6³-cell space split into 3×3×3-cell blocks.
fn cfg(sync: SyncMode) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(ChipConfig::baseline(), (3, 3, 3));
    cfg.sync = sync;
    cfg
}

/// Run 3 steps on a fresh 2×2×2-node cluster under `engine`, returning
/// the report and the gathered particle state.
fn run(sync: SyncMode, engine: &EngineConfig) -> (ClusterRunReport, ParticleSystem) {
    let sys = workload(31);
    let mut cluster = Cluster::new(cfg(sync), &sys);
    assert_eq!(cluster.num_nodes(), 8);
    let report = cluster
        .try_run_with(3, 2_000_000_000, engine)
        .expect("run converges");
    let mut out = sys.clone();
    cluster.store_into(&mut out);
    (report, out)
}

fn assert_identical(sync: SyncMode) {
    let (want_report, want_sys) = run(sync, &EngineConfig::serial());

    let engines = [
        ("fast-forward", EngineConfig::serial().with_fast_forward(true)),
        ("parallel", EngineConfig::serial().with_threads(4)),
        ("soa", EngineConfig::serial().with_soa(true)),
        (
            "soa+fast-path",
            EngineConfig::serial().with_soa(true).with_fast_path(true),
        ),
        // The full optimized engine: threads + fast-forward + fast path +
        // SoA kernels, all on by default.
        ("parallel+ff", EngineConfig::parallel().with_threads(4)),
    ];
    for (name, engine) in engines {
        let (report, sys) = run(sync, &engine);
        assert_eq!(report, want_report, "{name} engine report drifted ({sync:?})");
        assert_eq!(sys.pos, want_sys.pos, "{name} engine positions drifted ({sync:?})");
        assert_eq!(sys.vel, want_sys.vel, "{name} engine velocities drifted ({sync:?})");
    }
}

#[test]
fn engines_bit_identical_chained_sync() {
    assert_identical(SyncMode::Chained);
}

#[test]
fn engines_bit_identical_bulk_sync() {
    assert_identical(SyncMode::Bulk { latency: 2_000 });
}

#[test]
fn fast_forward_preserves_straggler_stalls() {
    // Stall injection exercises the stall-expiry event path.
    let sys = workload(33);
    let mut c = cfg(SyncMode::Chained);
    c.straggler = Some((3, 400));

    let mut reference = Cluster::new(c.clone(), &sys);
    let want = reference.try_run(2, 2_000_000_000).expect("reference");

    let mut ff = Cluster::new(c.clone(), &sys);
    let engine = EngineConfig::serial().with_fast_forward(true);
    let got = ff.try_run_with(2, 2_000_000_000, &engine).expect("ff run");

    assert_eq!(got, want, "fast-forward drifted under a straggler");

    // The full optimized engine must agree too.
    let mut full = Cluster::new(c, &sys);
    let got = full
        .try_run_with(2, 2_000_000_000, &EngineConfig::parallel())
        .expect("optimized run");
    assert_eq!(got, want, "optimized engine drifted under a straggler");
}

#[test]
fn fast_forward_reports_packet_loss_deadlock() {
    // A lossy fabric deadlocks chained sync; fast-forward proves no
    // event can ever arrive and reports the deadlock immediately instead
    // of spinning to the cycle budget.
    let sys = workload(34);
    let mut c = cfg(SyncMode::Chained);
    c.loss = Some((0.2, 7));
    let mut cluster = Cluster::new(c, &sys);
    let engine = EngineConfig::serial().with_fast_forward(true);
    let err = cluster
        .try_run_with(3, 300_000, &engine)
        .expect_err("loss must stall the cluster");
    assert!(err.packets_lost() > 0, "stall without loss?");
    assert!(
        matches!(err, ClusterError::Deadlock(_)),
        "fast-forward should prove the deadlock: {err}"
    );
    assert!(err.at_cycle() <= 300_000, "detected within the budget");
}
