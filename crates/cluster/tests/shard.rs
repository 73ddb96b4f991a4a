//! Sharded-engine acceptance: the multi-worker socket protocol must be
//! bit-identical to the in-process oracle.
//!
//! The contract under test (DESIGN.md §11): partitioning the cluster's
//! nodes across S workers — each running the existing engine over its
//! own shard and exchanging boundary flits, markers, and barrier votes
//! over real Unix-domain sockets — produces final positions,
//! velocities, raw force-accumulator bank bits, the folded whole-run
//! report, the merged per-segment traces, *and the checkpoint files
//! themselves* byte-for-byte equal to a single-process run. This must
//! hold for 2 and 4 shards, serial and multi-threaded local engines,
//! under a 5% packet-drop fault schedule with the reliability layer,
//! with an injected straggler driving fast-forward horizon agreement,
//! and across a crash + `--resume` on a *different* shard count.

mod harness;

use fasda_cluster::ckpt::{run_with_checkpoints, CheckpointConfig, RunAccumulator};
use fasda_cluster::{
    run_sharded, shard_ranges, validate_sharding, Cluster, ClusterError, EngineConfig, FaultPlan,
    ShardError, ShardOpts, Trace, TraceConfig,
};
use fasda_net::sync::SyncMode;
use harness::{config, final_state, workload, BUDGET};
use std::path::PathBuf;

const STEPS: u64 = 6;
const EVERY: u64 = 2;

/// Suite-namespaced scratch directory.
fn tmpdir(tag: &str) -> PathBuf {
    harness::tmpdir(&format!("shard-{tag}"))
}

/// `Trace` doesn't derive `PartialEq` (the engine stream of
/// fast-forward jumps is engine-specific), but the sharded workers run
/// the same engine configuration as the references below — so every
/// field must match.
fn assert_traces_equal(got: &[Trace], want: &[Trace], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: segment count");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.level, w.level, "{ctx}: segment {i} capture level");
        assert_eq!(g.nodes, w.nodes, "{ctx}: segment {i} per-node streams");
        assert_eq!(g.engine, w.engine, "{ctx}: segment {i} engine stream");
        assert_eq!(g.stalls, w.stalls, "{ctx}: segment {i} stall ledger");
    }
}

fn checkpoint_bytes(paths: &[PathBuf]) -> Vec<(Option<u64>, Vec<u8>)> {
    let mut out: Vec<_> = paths
        .iter()
        .map(|p| (fasda_ckpt::checkpoint_step(p), std::fs::read(p).expect("read checkpoint")))
        .collect();
    out.sort_by_key(|(s, _)| *s);
    out
}

// -------------------------------------------------------------------------
// Partitioning and unsupported-mode rejection
// -------------------------------------------------------------------------

#[test]
fn shard_ranges_cover_all_nodes_contiguously() {
    for (nodes, shards) in [(8, 1), (8, 2), (8, 4), (8, 8), (7, 3), (9, 4)] {
        let ranges = shard_ranges(nodes, shards);
        assert_eq!(ranges.len(), shards, "{nodes}/{shards}");
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[shards - 1].end, nodes);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "near-even split, got {sizes:?}");
    }
}

#[test]
fn validate_rejects_unsupported_configs() {
    let ok = config(None, false);
    assert!(validate_sharding(&ok, 2, 8).is_ok());
    assert!(matches!(validate_sharding(&ok, 0, 8), Err(ShardError::Unsupported(_))));
    assert!(matches!(validate_sharding(&ok, 9, 8), Err(ShardError::Unsupported(_))));

    let mut bulk = config(None, false);
    bulk.sync = SyncMode::Bulk { latency: 2_000 };
    assert!(matches!(validate_sharding(&bulk, 2, 8), Err(ShardError::Unsupported(_))));

    let mut lossy = config(None, false);
    lossy.loss = Some((0.05, 7));
    assert!(matches!(validate_sharding(&lossy, 2, 8), Err(ShardError::Unsupported(_))));
}

// -------------------------------------------------------------------------
// Bit-identity vs the in-process oracle
// -------------------------------------------------------------------------

struct Scenario {
    name: &'static str,
    faults: Option<FaultPlan>,
    reliable: bool,
    straggler: Option<(usize, u64)>,
    engine: EngineConfig,
}

/// The references run the same engine configuration as the sharded
/// workers, so even the engine trace stream is comparable. Threads,
/// SoA and fast-forward vary across scenarios.
fn scenarios() -> Vec<Scenario> {
    let full = TraceConfig::full();
    vec![
        Scenario {
            name: "clean-serial",
            faults: None,
            reliable: false,
            straggler: None,
            engine: EngineConfig::serial().with_trace(full),
        },
        Scenario {
            name: "clean-parallel",
            faults: None,
            reliable: false,
            straggler: None,
            engine: EngineConfig::parallel().with_threads(2).with_trace(full),
        },
        Scenario {
            name: "lossy-serial",
            faults: Some(FaultPlan::drop_only(0.05, 0xC0FFEE)),
            reliable: true,
            straggler: None,
            engine: EngineConfig::serial().with_trace(full),
        },
        Scenario {
            name: "lossy-parallel",
            faults: Some(FaultPlan::drop_only(0.05, 0xC0FFEE)),
            reliable: true,
            straggler: None,
            engine: EngineConfig::parallel().with_threads(2).with_trace(full),
        },
        // Fig. 16 straggler ablation: node 3 stalls 400 cycles per force
        // phase, the others fast-forward — the horizon-agreement frames
        // must land every worker on the same jump target every time.
        Scenario {
            name: "straggler-ff",
            faults: None,
            reliable: false,
            straggler: Some((3, 400)),
            engine: EngineConfig::serial().with_fast_forward(true).with_trace(full),
        },
    ]
}

#[test]
fn sharded_runs_match_oracle_bit_for_bit() {
    let sys = workload();
    for sc in scenarios() {
        let mut cfg = config(sc.faults.clone(), sc.reliable);
        cfg.straggler = sc.straggler;

        // In-process oracle with the same checkpoint segmentation.
        let dir_oracle = tmpdir(&format!("{}-oracle", sc.name));
        let ck_oracle = CheckpointConfig::new(EVERY, &dir_oracle).with_keep(0);
        let mut oracle = Cluster::new(cfg.clone(), &sys);
        let oracle_run = run_with_checkpoints(
            &mut oracle,
            STEPS,
            BUDGET,
            &sc.engine,
            Some(&ck_oracle),
            RunAccumulator::new(),
        )
        .expect("oracle completes");
        let oracle_state = final_state(&oracle, &sys);
        let oracle_ckpts = checkpoint_bytes(&oracle_run.checkpoints);

        for shards in [2usize, 4] {
            let ctx = format!("{} x{shards}", sc.name);
            let dir = tmpdir(&format!("{}-s{shards}", sc.name));
            let ck = CheckpointConfig::new(EVERY, &dir).with_keep(0);
            let run = run_sharded(
                &cfg,
                &sys,
                STEPS,
                &sc.engine,
                shards,
                ShardOpts { budget: BUDGET, ckpt: Some(ck), resume: None, obs: None, ..Default::default() },
            )
            .unwrap_or_else(|e| panic!("{ctx}: sharded run failed: {e}"));

            assert_eq!(run.report, oracle_run.report, "{ctx}: folded report drifted");
            let state = final_state(&run.replica, &sys);
            assert_eq!(state.0.pos, oracle_state.0.pos, "{ctx}: positions drifted");
            assert_eq!(state.0.vel, oracle_state.0.vel, "{ctx}: velocities drifted");
            assert_eq!(state.1, oracle_state.1, "{ctx}: force-bank bits drifted");
            assert_traces_equal(&run.traces, &oracle_run.traces, &ctx);
            assert_eq!(
                checkpoint_bytes(&run.checkpoints),
                oracle_ckpts,
                "{ctx}: checkpoint files not byte-identical"
            );

            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&dir_oracle);
    }
}

/// Satellite gate: the same protocol over loopback TCP ([`TcpLink`]
/// carries every control and mesh frame) is byte-identical to the
/// Unix-socket and in-process paths — the carrier cannot leak into the
/// simulation. One clean and one lossy scenario keep the matrix cheap;
/// the full scenario sweep above already covers the protocol itself.
#[test]
fn sharded_over_loopback_tcp_matches_oracle_bit_for_bit() {
    let sys = workload();
    for (name, faults, reliable) in [
        ("tcp-clean", None, false),
        ("tcp-lossy", Some(FaultPlan::drop_only(0.05, 0xC0FFEE)), true),
    ] {
        let cfg = config(faults, reliable);
        let engine = EngineConfig::serial().with_trace(TraceConfig::full());

        let dir_oracle = tmpdir(&format!("{name}-oracle"));
        let ck_oracle = CheckpointConfig::new(EVERY, &dir_oracle).with_keep(0);
        let mut oracle = Cluster::new(cfg.clone(), &sys);
        let oracle_run = run_with_checkpoints(
            &mut oracle,
            STEPS,
            BUDGET,
            &engine,
            Some(&ck_oracle),
            RunAccumulator::new(),
        )
        .expect("oracle completes");
        let oracle_state = final_state(&oracle, &sys);
        let oracle_ckpts = checkpoint_bytes(&oracle_run.checkpoints);

        let dir = tmpdir(&format!("{name}-tcp"));
        let ck = CheckpointConfig::new(EVERY, &dir).with_keep(0);
        let run = run_sharded(
            &cfg,
            &sys,
            STEPS,
            &engine,
            2,
            ShardOpts { budget: BUDGET, ckpt: Some(ck), resume: None, obs: None, tcp: true },
        )
        .unwrap_or_else(|e| panic!("{name}: TCP sharded run failed: {e}"));

        assert_eq!(run.report, oracle_run.report, "{name}: folded report drifted");
        let state = final_state(&run.replica, &sys);
        assert_eq!(state.0.pos, oracle_state.0.pos, "{name}: positions drifted");
        assert_eq!(state.0.vel, oracle_state.0.vel, "{name}: velocities drifted");
        assert_eq!(state.1, oracle_state.1, "{name}: force-bank bits drifted");
        assert_traces_equal(&run.traces, &oracle_run.traces, name);
        assert_eq!(
            checkpoint_bytes(&run.checkpoints),
            oracle_ckpts,
            "{name}: checkpoint files not byte-identical"
        );

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir_oracle);
    }
}

/// The untraced default engine (threads + fast-forward + fast path +
/// SoA) without checkpoint segmentation: the sharded run must match its
/// report and physics.
#[test]
fn sharded_matches_default_engine_report_and_state() {
    let sys = workload();
    let cfg = config(None, false);
    let mut oracle = Cluster::new(cfg.clone(), &sys);
    let want = oracle
        .try_run_with(STEPS, BUDGET, &EngineConfig::parallel().with_threads(2))
        .expect("default-engine oracle completes");
    let want_state = final_state(&oracle, &sys);

    let run = run_sharded(
        &cfg,
        &sys,
        STEPS,
        &EngineConfig::parallel().with_threads(2),
        2,
        ShardOpts::default(),
    )
    .expect("sharded run completes");
    assert_eq!(run.report, want, "report drifted vs default-engine oracle");
    let state = final_state(&run.replica, &sys);
    assert_eq!(state.0.pos, want_state.0.pos);
    assert_eq!(state.0.vel, want_state.0.vel);
    assert_eq!(state.1, want_state.1);
}

/// Two shards whose workers each ask for a two-member chip crew (the
/// crew gets `max(1, cores / 2)` members) against the serial oracle:
/// report, per-node event streams, stall ledger and state bits.
#[test]
fn sharded_crews_match_serial_oracle() {
    let sys = workload();
    let cfg = config(None, false);
    let full = TraceConfig::full();
    let mut oracle = Cluster::new(cfg.clone(), &sys);
    let want = oracle
        .try_run_with(STEPS, BUDGET, &EngineConfig::serial().with_trace(full))
        .expect("serial oracle completes");
    let want_trace = oracle.take_trace().expect("tracing on");
    let want_state = final_state(&oracle, &sys);

    let engine = EngineConfig::parallel().with_threads(2).with_trace(full);
    let run = run_sharded(&cfg, &sys, STEPS, &engine, 2, ShardOpts::default())
        .expect("sharded run completes");
    assert_eq!(run.report, want, "report drifted vs serial oracle");
    assert_eq!(run.traces.len(), 1, "one segment without checkpoints");
    assert_eq!(run.traces[0].nodes, want_trace.nodes, "per-node event streams drifted");
    assert_eq!(run.traces[0].stalls, want_trace.stalls, "stall ledger drifted");
    harness::assert_state_eq(&final_state(&run.replica, &sys), &want_state, "2 shards x 2");
}

// -------------------------------------------------------------------------
// Crash + resume on a different shard count
// -------------------------------------------------------------------------

#[test]
fn crash_then_resume_on_different_shard_count_matches_oracle() {
    const CRASH_NODE: u32 = 1;
    const CRASH_STEP: u64 = 5;
    let sys = workload();
    let engine = EngineConfig::serial().with_trace(TraceConfig::full());

    // Uninterrupted oracle with the same segmentation.
    let dir_oracle = tmpdir("resume-oracle");
    let ck_oracle = CheckpointConfig::new(EVERY, &dir_oracle).with_keep(0);
    let mut oracle = Cluster::new(config(None, false), &sys);
    let oracle_run = run_with_checkpoints(
        &mut oracle,
        STEPS,
        BUDGET,
        &engine,
        Some(&ck_oracle),
        RunAccumulator::new(),
    )
    .expect("oracle completes");
    let oracle_state = final_state(&oracle, &sys);

    // Crashing sharded run on 2 workers: node 1 dies in step 5, past
    // the step-4 checkpoint.
    let crash_plan = FaultPlan::none().with_crash(CRASH_NODE, CRASH_STEP);
    let dir = tmpdir("resume-crash");
    let ck = CheckpointConfig::new(EVERY, &dir).with_keep(0);
    let err = run_sharded(
        &config(Some(crash_plan.clone()), false),
        &sys,
        STEPS,
        &engine,
        2,
        ShardOpts { budget: BUDGET, ckpt: Some(ck.clone()), resume: None, obs: None, ..Default::default() },
    )
    .expect_err("crash directive must abort the sharded run");
    match err {
        ShardError::Cluster(ClusterError::Crashed(c)) => {
            assert_eq!(c.node, CRASH_NODE as usize, "wrong crash node");
            assert_eq!(c.step, CRASH_STEP, "wrong crash step");
        }
        other => panic!("expected injected crash, got {other}"),
    }

    // Resume from the newest checkpoint on a *different* shard count (4
    // workers), with the crash directive stripped.
    let latest = fasda_ckpt::latest_checkpoint(&dir)
        .expect("list checkpoints")
        .expect("a checkpoint exists");
    assert_eq!(fasda_ckpt::checkpoint_step(&latest), Some(4));
    let resumed = run_sharded(
        &config(Some(crash_plan.without_crash()), false),
        &sys,
        STEPS,
        &engine,
        4,
        ShardOpts { budget: BUDGET, ckpt: Some(ck), resume: Some(latest), obs: None, ..Default::default() },
    )
    .expect("resumed sharded run completes");

    assert_eq!(resumed.report, oracle_run.report, "whole-run report drifted after resume");
    let state = final_state(&resumed.replica, &sys);
    assert_eq!(state.0.pos, oracle_state.0.pos, "positions drifted after resume");
    assert_eq!(state.0.vel, oracle_state.0.vel, "velocities drifted after resume");
    assert_eq!(state.1, oracle_state.1, "force accumulators drifted after resume");

    // The re-run final segment's merged trace equals the oracle's last
    // segment trace.
    let last = resumed.traces.last().expect("tracing was on");
    let want_last = oracle_run.traces.last().expect("oracle traced");
    assert_eq!(last.nodes, want_last.nodes, "resumed final-segment trace drifted");
    assert_eq!(last.stalls, want_last.stalls, "resumed final-segment stalls drifted");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_oracle);
}
