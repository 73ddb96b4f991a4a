//! Integration tests: the cycle-level chip must compute the same physics
//! as the functional model (they share the datapath), and its cycle
//! counts must be in the regime the paper reports.

use fasda_arith::interp::TableConfig;
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_core::functional::FunctionalChip;
use fasda_core::geometry::ChipGeometry;
use fasda_core::timed::TimedChip;
use fasda_md::element::Element;
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::units::UnitSystem;
use fasda_md::workload::{Placement, WorkloadSpec};

fn workload(per_cell: u32, seed: u64) -> ParticleSystem {
    WorkloadSpec {
        space: SimulationSpace::cubic(3),
        per_cell,
        placement: Placement::JitteredLattice { jitter: 0.05 },
        temperature_k: 150.0,
        seed,
        element: Element::Na,
    }
    .generate()
}

fn run_timed_one_step(sys: &ParticleSystem, cfg: ChipConfig) -> (ParticleSystem, u64, u64) {
    let geo = ChipGeometry::single_chip(sys.space);
    let mut chip = TimedChip::new(cfg, geo, UnitSystem::PAPER, 2.0);
    chip.load(sys);
    assert_eq!(chip.num_particles(), sys.len());
    let report = chip.run_timestep();
    let mut out = sys.clone();
    chip.store_into(&mut out);
    (out, report.force_cycles, report.valid_pairs)
}

#[test]
fn timed_matches_functional_after_one_step() {
    let sys = workload(8, 11);
    // functional step
    let mut func = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
    func.step();
    let f_snap = func.snapshot();
    // timed step
    let (t_snap, _, _) = run_timed_one_step(&sys, ChipConfig::baseline());
    for i in 0..sys.len() {
        let dp = sys.space.min_image(f_snap.pos[i], t_snap.pos[i]).max_abs();
        assert!(
            dp < 1e-6,
            "particle {i} position mismatch by {dp} cells"
        );
        let dv = (f_snap.vel[i] - t_snap.vel[i]).max_abs();
        let vscale = f_snap.vel[i].max_abs().max(1e-6);
        assert!(
            dv < 1e-5 * vscale.max(1.0) + 1e-9,
            "particle {i} velocity mismatch {dv}"
        );
    }
}

#[test]
fn timed_valid_pairs_match_functional() {
    let sys = workload(6, 12);
    let mut func = FunctionalChip::load(&sys, TableConfig::PAPER, 2.0);
    let stats = func.evaluate_forces();
    let (_, _, valid) = run_timed_one_step(&sys, ChipConfig::baseline());
    assert_eq!(valid, stats.valid_pairs, "same pair set evaluated");
}

#[test]
fn variants_agree_on_physics() {
    // A, B, C must produce identical particle sets; accumulation order
    // differs so compare with f32-rounding tolerance.
    let sys = workload(8, 13);
    let (a, _, pa) = run_timed_one_step(&sys, ChipConfig::variant(DesignVariant::A));
    let (b, _, pb) = run_timed_one_step(&sys, ChipConfig::variant(DesignVariant::B));
    let (c, _, pc) = run_timed_one_step(&sys, ChipConfig::variant(DesignVariant::C));
    assert_eq!(pa, pb);
    assert_eq!(pb, pc);
    for i in 0..sys.len() {
        assert!(sys.space.min_image(a.pos[i], b.pos[i]).max_abs() < 1e-6);
        assert!(sys.space.min_image(a.pos[i], c.pos[i]).max_abs() < 1e-6);
    }
}

#[test]
fn strong_scaling_variants_reduce_cycles() {
    let sys = workload(32, 14);
    let (_, cyc_a, _) = run_timed_one_step(&sys, ChipConfig::variant(DesignVariant::A));
    let (_, cyc_b, _) = run_timed_one_step(&sys, ChipConfig::variant(DesignVariant::B));
    let (_, cyc_c, _) = run_timed_one_step(&sys, ChipConfig::variant(DesignVariant::C));
    assert!(
        (cyc_b as f64) < cyc_a as f64,
        "B ({cyc_b}) must be faster than A ({cyc_a})"
    );
    assert!(
        (cyc_c as f64) < cyc_b as f64,
        "C ({cyc_c}) must be faster than B ({cyc_b})"
    );
    // 3 PEs give close to 3x on filter-bound workloads; allow wide margin
    assert!(
        cyc_a as f64 / cyc_c as f64 > 2.0,
        "A→C speedup {:.2} too small",
        cyc_a as f64 / cyc_c as f64
    );
}

#[test]
fn paper_scale_cycle_count_in_expected_regime() {
    // 3³ cells × 64 particles, 1 PE per cell: the paper reports ~2 µs/day
    // ⇒ ~10-25k cycles per 2 fs step at 200 MHz.
    let sys = workload(64, 15);
    let (_, cycles, valid) = run_timed_one_step(&sys, ChipConfig::baseline());
    assert!(
        (6_000..40_000).contains(&cycles),
        "force cycles {cycles} outside plausible regime"
    );
    // Eq. 3: ~15.5% of candidates pass; candidates/CBB ≈ 13·64·64 + 64·63/2
    let candidates = 27 * (13 * 64 * 64 + 64 * 63 / 2) as u64;
    let rate = valid as f64 / candidates as f64;
    assert!((0.10..0.30).contains(&rate), "pass rate {rate}");
}

#[test]
fn particle_count_and_momentum_conserved_over_steps() {
    let sys = workload(8, 16);
    let geo = ChipGeometry::single_chip(sys.space);
    let mut chip = TimedChip::new(ChipConfig::baseline(), geo, UnitSystem::PAPER, 2.0);
    chip.load(&sys);
    let n = chip.num_particles();
    for _ in 0..5 {
        chip.run_timestep();
        assert_eq!(chip.num_particles(), n);
    }
    let mut out = sys.clone();
    chip.store_into(&mut out);
    assert!(out.validate().is_ok());
    // momentum conserved to f32 accumulation error
    assert!(out.momentum().max_abs() < 1e-2);
}
