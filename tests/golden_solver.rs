//! FNV-64 goldens of whole solves: Gradient Decomposition and the Halo
//! Voxel Exchange baseline.
//!
//! The GD table was first recorded at commit 1f8111f (whole-overlap-strip
//! accumulation passes, whole-tile apply and reset) and asserted unchanged
//! under every restructuring of the pass / tile-update path since.
//! Re-recorded once, when every per-probe evaluation moved to complex `f32`
//! (the tile volume and the accumulation buffers stay `f64`);
//! `tests/fidelity.rs` bounds how far that move may take a reconstruction
//! from the ground truth. The HVE table was recorded at 76b4cb3, before the
//! voxel paste moved onto the planned-step executor the passes run on. Every
//! other bit-identity pin in the repository compares two paths of *one*
//! build; these tables are the only ones that compare a build with its
//! ancestors.
//!
//! The GD matrix is every pass frequency of Fig. 9 × local updates on / off ×
//! five grids — 3×3 (diagonal overlaps, ranks with empty rounds), 1×4 and
//! 4×1 (one sweep axis idle, non-adjacent extended tiles overlapping), 2×2
//! and 1×1 (no pass message at all) — on the lockstep backend, plus one
//! threaded run that must land on its lockstep row. The HVE matrix is a
//! voxel paste after every iteration and after every second one (the last
//! iteration always pastes) × six grids — 1×2, 2×1 and 1×3 (strips of
//! tiles along either axis), and 2×2, 2×3 and 3×3 (diagonal neighbours) —
//! over three iterations, so a paste's voxels are
//! read back by the next iteration's probes; again on lockstep, plus one
//! threaded row.
//!
//! The hashes depend on the platform's `libm` (probe synthesis, twiddles)
//! and on nothing else: every FFT dispatch tier computes the same bits, so
//! the constants (the GD table recorded on the scalar tier, the HVE table
//! on AVX2) hold at whichever tier the host resolves to.

mod common;

use common::{golden_problem, lockstep, threaded};
use ptycho_cluster::CommBackend;
use ptycho_core::config::PassFrequency::{self, EveryProbe, PerIteration};
use ptycho_core::durability::fnv1a64;
use ptycho_core::{
    GradientDecompositionSolver, HaloVoxelExchangeSolver, JobContext, ReconstructionResult,
    RecoveryPolicy, SolverConfig,
};
use ptycho_fft::SimdLevel;
use ptycho_sim::dataset::Dataset;

/// `(volume hash, cost-history hash)` of one solve: FNV-1a over the
/// little-endian bit patterns of the stitched volume's `re, im` values and
/// of the per-iteration costs.
fn fingerprint(result: &ReconstructionResult) -> (u64, u64) {
    let hash = |words: &mut dyn Iterator<Item = u64>| {
        fnv1a64(&words.flat_map(u64::to_le_bytes).collect::<Vec<u8>>())
    };
    (
        hash(
            &mut result
                .volume
                .iter()
                .flat_map(|v| [v.re.to_bits(), v.im.to_bits()]),
        ),
        hash(&mut result.cost_history.costs().iter().map(|c| c.to_bits())),
    )
}

fn config(pass_frequency: PassFrequency, local_updates: bool) -> SolverConfig {
    SolverConfig {
        iterations: 2,
        halo_px: 20,
        pass_frequency,
        local_updates,
        ..SolverConfig::default()
    }
}

type Fingerprint = (u64, u64);

/// `(frequency, local updates, grid, fingerprint)`.
type Row = (PassFrequency, bool, (usize, usize), Fingerprint);

const GOLDEN: [Row; 30] = [
    (
        EveryProbe,
        true,
        (3, 3),
        (0x5448_af84_4998_b23d, 0x0770_40c2_9d4b_a622),
    ),
    (
        EveryProbe,
        false,
        (3, 3),
        (0x2a92_7c64_2cc9_241d, 0x0770_40c2_9d4b_a622),
    ),
    (
        PerIteration(2),
        true,
        (3, 3),
        (0xca44_9f9e_fed8_e431, 0x0856_6592_1dac_d4bf),
    ),
    (
        PerIteration(2),
        false,
        (3, 3),
        (0xe497_b114_d2ae_c3a7, 0x7973_afb6_41aa_6c95),
    ),
    (
        PerIteration(1),
        true,
        (3, 3),
        (0x500b_24ee_188e_4152, 0xc4ab_d277_3b58_55be),
    ),
    (
        PerIteration(1),
        false,
        (3, 3),
        (0x5376_47b8_23d0_1938, 0xe59f_12bc_bece_be93),
    ),
    (
        EveryProbe,
        true,
        (1, 4),
        (0xa9c4_7cd2_7774_c0cf, 0x40ea_806e_1d55_d797),
    ),
    (
        EveryProbe,
        false,
        (1, 4),
        (0x67d8_ca6f_5952_b859, 0x40ea_806e_1d55_d797),
    ),
    (
        PerIteration(2),
        true,
        (1, 4),
        (0x8896_74bc_f8b3_c8de, 0x279d_03d3_fcaa_9264),
    ),
    (
        PerIteration(2),
        false,
        (1, 4),
        (0x6e7e_d20e_cb05_8627, 0x3b3a_45fe_cec9_b075),
    ),
    (
        PerIteration(1),
        true,
        (1, 4),
        (0xe53c_1ecc_bec6_3fcc, 0xa1ff_1134_dbbb_9449),
    ),
    (
        PerIteration(1),
        false,
        (1, 4),
        (0x5376_47b8_23d0_1938, 0x9d71_558c_0328_1466),
    ),
    (
        EveryProbe,
        true,
        (4, 1),
        (0xd62f_18a1_bfd3_599e, 0x383d_0f08_0802_53ae),
    ),
    (
        EveryProbe,
        false,
        (4, 1),
        (0xe05f_5798_a2bd_7bf1, 0x383d_0f08_0802_53ae),
    ),
    (
        PerIteration(2),
        true,
        (4, 1),
        (0x4fc0_1b45_8e3d_98b5, 0x119f_ef72_7177_18f6),
    ),
    (
        PerIteration(2),
        false,
        (4, 1),
        (0x0371_aa47_d06a_2252, 0x06b9_13c4_6e3d_2f31),
    ),
    (
        PerIteration(1),
        true,
        (4, 1),
        (0x33f6_6565_398f_b7d4, 0x277c_a716_e50b_cd1c),
    ),
    (
        PerIteration(1),
        false,
        (4, 1),
        (0x5376_47b8_23d0_1938, 0xe59f_12bc_bece_be93),
    ),
    (
        EveryProbe,
        true,
        (2, 2),
        (0x2be3_0f47_0fac_c02b, 0x15ff_4661_93e1_564e),
    ),
    (
        EveryProbe,
        false,
        (2, 2),
        (0x2be3_0f47_0fac_c02b, 0x15ff_4661_93e1_564e),
    ),
    (
        PerIteration(2),
        true,
        (2, 2),
        (0xe422_4b04_394c_66a9, 0xfb45_294d_e38c_1ccf),
    ),
    (
        PerIteration(2),
        false,
        (2, 2),
        (0xdc60_8b55_9d51_90bc, 0x6224_a126_97ad_72d7),
    ),
    (
        PerIteration(1),
        true,
        (2, 2),
        (0xa4b4_dbe8_68ec_ec7c, 0x14b7_79d8_9277_210b),
    ),
    (
        PerIteration(1),
        false,
        (2, 2),
        (0x5376_47b8_23d0_1938, 0xe59f_12bc_bece_be93),
    ),
    (
        EveryProbe,
        true,
        (1, 1),
        (0x83e8_613a_b86f_5740, 0x7330_24ee_f7a5_8098),
    ),
    (
        EveryProbe,
        false,
        (1, 1),
        (0x83e8_613a_b86f_5740, 0x7330_24ee_f7a5_8098),
    ),
    (
        PerIteration(2),
        true,
        (1, 1),
        (0x83e8_613a_b86f_5740, 0x7330_24ee_f7a5_8098),
    ),
    (
        PerIteration(2),
        false,
        (1, 1),
        (0xc07b_7167_ac7a_ec43, 0x23d8_ac5e_6010_fd4b),
    ),
    (
        PerIteration(1),
        true,
        (1, 1),
        (0x83e8_613a_b86f_5740, 0x7330_24ee_f7a5_8098),
    ),
    (
        PerIteration(1),
        false,
        (1, 1),
        (0x5376_47b8_23d0_1938, 0x9d71_558c_0328_1466),
    ),
];

#[test]
fn lockstep_solves_match_recorded_goldens() {
    let dataset = golden_problem();
    let backend = lockstep();
    for row in &GOLDEN {
        let &(frequency, local_updates, grid, expected) = row;
        let solver =
            GradientDecompositionSolver::new(&dataset, config(frequency, local_updates), grid);
        let got = fingerprint(
            &solver
                .run_job(&backend, RecoveryPolicy::FailFast, &JobContext::default())
                .expect("fault-free run completes"),
        );
        assert_eq!(
            got,
            expected,
            "{frequency:?}, local_updates {local_updates}, grid {grid:?} at {:?}: \
             got ({:#018x}, {:#018x})",
            SimdLevel::detect(),
            got.0,
            got.1,
        );
    }
}

#[test]
fn threaded_solve_lands_on_its_lockstep_golden() {
    let dataset = golden_problem();
    let row = GOLDEN
        .iter()
        .find(|row| (row.0, row.1, row.2) == (EveryProbe, true, (3, 3)))
        .expect("the table covers EveryProbe on 3x3");
    let solver = GradientDecompositionSolver::new(&dataset, config(row.0, row.1), row.2);
    assert_eq!(
        fingerprint(
            &solver
                .run_job(
                    &threaded(),
                    RecoveryPolicy::FailFast,
                    &JobContext::default()
                )
                .expect("fault-free run completes")
        ),
        row.3
    );
}

fn hve_config(exchange_period: usize) -> SolverConfig {
    SolverConfig {
        iterations: 3,
        hve_extra_probe_rows: 1,
        hve_exchange_period: exchange_period,
        ..SolverConfig::default()
    }
}

/// `(exchange period, grid, fingerprint)`.
type HveRow = (usize, (usize, usize), Fingerprint);

const HVE_GOLDEN: [HveRow; 12] = [
    (1, (1, 2), (0xaf77_0d06_0663_b955, 0xfcc7_0a78_f675_bfed)),
    (2, (1, 2), (0x8b53_6d3a_a293_ccbd, 0x73db_cc2b_8a29_89bc)),
    (1, (2, 1), (0x16ca_d424_81a1_915d, 0x2095_5d9b_3a74_e673)),
    (2, (2, 1), (0x027e_a0ad_2681_245f, 0xd5f2_bec5_b1c0_ef0a)),
    (1, (1, 3), (0xbcc0_1646_5d09_950a, 0x2f27_ebd6_f548_bb89)),
    (2, (1, 3), (0x3d87_5839_179a_ed71, 0x3e45_8dc9_9c6e_2020)),
    (1, (2, 2), (0xcb69_d825_faf8_565b, 0x96a7_c025_257f_ba85)),
    (2, (2, 2), (0x73fd_a914_3cc1_9256, 0x32ef_dcd7_334e_611b)),
    (1, (2, 3), (0x01db_820e_cd29_3784, 0xd90c_54b8_bb30_7db5)),
    (2, (2, 3), (0x43c1_ace0_95bd_fd51, 0x7ee6_99c0_51da_8b49)),
    (1, (3, 3), (0x0b2d_4726_e707_8ff2, 0x11f7_2138_0215_25a6)),
    (2, (3, 3), (0x1dd2_c11b_300f_bb26, 0xaaa6_480d_1581_b619)),
];

fn hve_fingerprint<B: CommBackend>(
    dataset: &Dataset,
    backend: &B,
    exchange_period: usize,
    grid: (usize, usize),
) -> Fingerprint {
    let solver = HaloVoxelExchangeSolver::new(dataset, hve_config(exchange_period), grid)
        .expect("every grid of the table is feasible");
    fingerprint(
        &solver
            .run_job(backend, RecoveryPolicy::FailFast, &JobContext::default())
            .expect("fault-free run completes"),
    )
}

#[test]
fn hve_lockstep_solves_match_recorded_goldens() {
    let dataset = golden_problem();
    let backend = lockstep();
    for &(period, grid, expected) in &HVE_GOLDEN {
        let got = hve_fingerprint(&dataset, &backend, period, grid);
        assert_eq!(
            got,
            expected,
            "HVE, exchange period {period}, grid {grid:?} at {:?}: got ({:#018x}, {:#018x})",
            SimdLevel::detect(),
            got.0,
            got.1,
        );
    }
}

#[test]
fn hve_threaded_solve_lands_on_its_lockstep_golden() {
    let dataset = golden_problem();
    let row = HVE_GOLDEN
        .iter()
        .find(|row| (row.0, row.1) == (1, (3, 3)))
        .expect("the table covers a paste every iteration on 3x3");
    assert_eq!(hve_fingerprint(&dataset, &threaded(), row.0, row.1), row.2);
}
