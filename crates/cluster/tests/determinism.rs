//! Engine determinism regression: every engine configuration — idle
//! fast-forward, the chip crew's parallel compute phase, SoA batch
//! kernels, the chips' fast path, and their combination — must produce
//! reports and particle state bit-identical to the serial reference
//! loop, for both synchronization modes.

mod harness;

use fasda_cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterRunReport, EngineConfig, FaultPlan, Trace,
    TraceConfig,
};
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

// -------------------------------------------------------------------------
// Chip crew: partitions, caps and early exits
// -------------------------------------------------------------------------

/// Report, trace and bit-exact final state of a traced run of `steps`
/// steps on `sys` under `cfg` and `engine`.
fn traced_run(
    cfg: &ClusterConfig,
    sys: &ParticleSystem,
    steps: u64,
    engine: EngineConfig,
) -> (ClusterRunReport, Trace, (ParticleSystem, harness::ForceBits)) {
    let mut cluster = Cluster::new(cfg.clone(), sys);
    let report = cluster
        .try_run_with(steps, 2_000_000_000, &engine.with_trace(TraceConfig::full()))
        .expect("run converges");
    let trace = cluster.take_trace().expect("tracing on");
    (report, trace, harness::final_state(&cluster, sys))
}

/// `engine` at every thread count in `threads` against the serial
/// oracle: reports, per-node event streams, stall ledgers and state
/// bits; the engine stream (fast-forward jumps) against the same engine
/// on one thread.
fn assert_crew_matches_oracle(cfg: &ClusterConfig, sys: &ParticleSystem, threads: &[usize]) {
    let steps = 2;
    let (want_report, oracle, want_state) = traced_run(cfg, sys, steps, EngineConfig::serial());
    let (_, one, _) = traced_run(cfg, sys, steps, EngineConfig::parallel().with_threads(1));
    for &t in threads {
        let ctx = format!("{} nodes, with_threads({t})", want_report.nodes);
        let (report, trace, state) =
            traced_run(cfg, sys, steps, EngineConfig::parallel().with_threads(t));
        assert_eq!(report, want_report, "{ctx}: report drifted");
        assert_eq!(trace.nodes, oracle.nodes, "{ctx}: per-node event streams drifted");
        assert_eq!(trace.stalls, oracle.stalls, "{ctx}: stall ledger drifted");
        assert_eq!(trace.engine, one.engine, "{ctx}: engine stream drifted");
        harness::assert_state_eq(&state, &want_state, &ctx);
    }
}

#[test]
fn crew_partitions_match_oracle_on_eight_nodes() {
    // 3 members split 8 chips 2/3/3 (where the host has 3 cores); 16
    // asks for more members than there are cores or chips.
    let sys = workload(35);
    let mut c = cfg(SyncMode::Chained);
    c.straggler = Some((5, 300));
    assert_crew_matches_oracle(&c, &sys, &[3, 16]);
}

#[test]
fn crew_matches_oracle_on_two_nodes() {
    // The paper's 2-FPGA configuration: at most two members, whatever
    // the request.
    let sys = WorkloadSpec {
        space: SimulationSpace::new(6, 3, 3),
        per_cell: 3,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed: 23,
        element: Element::Na,
    }
    .generate();
    let c = cfg(SyncMode::Chained);
    assert_eq!(Cluster::new(c.clone(), &sys).num_nodes(), 2);
    assert_crew_matches_oracle(&c, &sys, &[4]);
}

#[test]
fn crew_stops_on_typed_errors() {
    // Both runs return mid-run with helpers alive; the test finishing
    // at all shows they were stopped and joined on the error path.
    let sys = workload(36);
    let engine = EngineConfig::parallel().with_threads(2);

    let crash = cfg(SyncMode::Chained).with_faults(FaultPlan::none().with_crash(1, 1));
    let err = Cluster::new(crash, &sys)
        .try_run_with(3, 2_000_000_000, &engine)
        .expect_err("crash directive must abort the run");
    match err {
        ClusterError::Crashed(c) => assert_eq!((c.node, c.step), (1, 1), "wrong crash"),
        other => panic!("expected the injected crash, got {other}"),
    }

    let mut lossy = cfg(SyncMode::Chained);
    lossy.loss = Some((0.2, 7));
    for engine in [engine, engine.with_fast_forward(false)] {
        let err = Cluster::new(lossy.clone(), &sys)
            .try_run_with(3, 300_000, &engine)
            .expect_err("loss must stall the cluster");
        assert!(
            matches!(err, ClusterError::Deadlock(_)),
            "the deadlock should be diagnosed: {err}"
        );
    }
}
