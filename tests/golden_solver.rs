//! FNV-64 goldens of whole solves: Gradient Decomposition and the Halo
//! Voxel Exchange baseline.
//!
//! The GD table was first recorded at commit 1f8111f (whole-overlap-strip
//! accumulation passes, whole-tile apply and reset) and asserted unchanged
//! under every restructuring of the pass / tile-update path since.
//! Re-recorded once, when every per-probe evaluation moved to complex `f32`,
//! and once more, with the HVE table, when the tile volume and the
//! accumulation buffers followed it; `tests/fidelity.rs` bounds how far
//! each move may take a reconstruction from the ground truth. The HVE table
//! was first recorded at 76b4cb3, before the voxel paste moved onto the
//! planned-step executor the passes run on. Every
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
        (0xe088_32e9_4e91_44b4, 0x352f_acc2_1d58_3add),
    ),
    (
        EveryProbe,
        false,
        (3, 3),
        (0x5365_3b25_d77b_9e87, 0x5470_36e7_354c_01d3),
    ),
    (
        PerIteration(2),
        true,
        (3, 3),
        (0x4a47_ede5_9a06_b5c5, 0x5589_7c3c_73f7_7574),
    ),
    (
        PerIteration(2),
        false,
        (3, 3),
        (0x1946_c9ec_2d18_873c, 0xbda1_efb6_30f1_207d),
    ),
    (
        PerIteration(1),
        true,
        (3, 3),
        (0xf1b3_3f10_a8d3_a00b, 0xe95e_7419_9cad_b78d),
    ),
    (
        PerIteration(1),
        false,
        (3, 3),
        (0xaa7a_1207_01e1_8102, 0xf6cf_f862_9147_e9fb),
    ),
    (
        EveryProbe,
        true,
        (1, 4),
        (0xbfed_42c4_8837_8966, 0x0a7c_b3a1_b4d0_0c19),
    ),
    (
        EveryProbe,
        false,
        (1, 4),
        (0xf9a2_5921_6e3a_7693, 0x4b58_b6ee_a317_d229),
    ),
    (
        PerIteration(2),
        true,
        (1, 4),
        (0x087d_159a_38e6_e5bd, 0x40e6_a237_a984_b70c),
    ),
    (
        PerIteration(2),
        false,
        (1, 4),
        (0x0762_e461_6d8b_49f7, 0x8bac_207b_fe3c_c14a),
    ),
    (
        PerIteration(1),
        true,
        (1, 4),
        (0x9c29_6fb8_4c00_a653, 0xae32_f92a_a9c1_5a64),
    ),
    (
        PerIteration(1),
        false,
        (1, 4),
        (0x5521_b00e_297c_b1c7, 0x8ae4_1ce1_9489_ae31),
    ),
    (
        EveryProbe,
        true,
        (4, 1),
        (0x84a5_a1b3_e53a_fd41, 0x1da6_05a8_0163_3b20),
    ),
    (
        EveryProbe,
        false,
        (4, 1),
        (0x984c_94e1_cdb3_6dde, 0x16f1_664f_40f9_4706),
    ),
    (
        PerIteration(2),
        true,
        (4, 1),
        (0x18d6_1a25_0cae_d0dc, 0x7143_d482_d5ea_15a2),
    ),
    (
        PerIteration(2),
        false,
        (4, 1),
        (0xa2b5_a10a_0dd6_556f, 0x5b05_dabc_acd4_2007),
    ),
    (
        PerIteration(1),
        true,
        (4, 1),
        (0x55ab_3c57_b086_feae, 0xa132_4901_ec7e_7d98),
    ),
    (
        PerIteration(1),
        false,
        (4, 1),
        (0x478e_1cdc_aebb_2a4d, 0x88d6_a55a_bac2_b5a9),
    ),
    (
        EveryProbe,
        true,
        (2, 2),
        (0xb028_0f8c_75c8_5892, 0x3b51_0667_04fe_973c),
    ),
    (
        EveryProbe,
        false,
        (2, 2),
        (0xb028_0f8c_75c8_5892, 0x3b51_0667_04fe_973c),
    ),
    (
        PerIteration(2),
        true,
        (2, 2),
        (0xb7a7_51db_c87a_69c5, 0xb8d1_e94d_7f44_7c4c),
    ),
    (
        PerIteration(2),
        false,
        (2, 2),
        (0xd6ef_5f57_5a42_3eda, 0x215f_3fe0_3b5a_c8f1),
    ),
    (
        PerIteration(1),
        true,
        (2, 2),
        (0xc469_5374_fb41_86a5, 0x9c2a_a97b_3e59_0912),
    ),
    (
        PerIteration(1),
        false,
        (2, 2),
        (0x213b_cf6d_65f9_d9e5, 0xc2aa_70c7_fc1a_26a1),
    ),
    (
        EveryProbe,
        true,
        (1, 1),
        (0x8693_67c4_f6a3_a8a8, 0xe097_1536_ec56_3864),
    ),
    (
        EveryProbe,
        false,
        (1, 1),
        (0x8693_67c4_f6a3_a8a8, 0xe097_1536_ec56_3864),
    ),
    (
        PerIteration(2),
        true,
        (1, 1),
        (0x8693_67c4_f6a3_a8a8, 0xe097_1536_ec56_3864),
    ),
    (
        PerIteration(2),
        false,
        (1, 1),
        (0xd8e7_dafb_30fb_fa59, 0xc006_83e7_4d1a_af71),
    ),
    (
        PerIteration(1),
        true,
        (1, 1),
        (0x8693_67c4_f6a3_a8a8, 0xe097_1536_ec56_3864),
    ),
    (
        PerIteration(1),
        false,
        (1, 1),
        (0x3011_71ad_c2be_0e55, 0xcca3_2859_2f85_d692),
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
    (1, (1, 2), (0x91f3_9801_910f_55aa, 0xd47e_b99d_69f3_d3f1)),
    (2, (1, 2), (0x59ad_ac58_4b36_3351, 0xf589_d776_99bb_e1cd)),
    (1, (2, 1), (0x4665_d847_b4ad_e5fa, 0x6b54_e9d2_f40b_0b48)),
    (2, (2, 1), (0xe913_f05c_7018_53ec, 0x43d8_3435_c0b4_c95e)),
    (1, (1, 3), (0x656f_84f6_861c_8f1b, 0x03ed_d4bf_a755_8d03)),
    (2, (1, 3), (0xfcba_7107_6e3e_f995, 0x2c4d_6d18_2601_6a9a)),
    (1, (2, 2), (0x119c_1b00_5e34_ff99, 0x8f43_23ff_2c62_e8f8)),
    (2, (2, 2), (0xbc4b_7297_c6b7_6bce, 0xba5a_f5d0_beca_f610)),
    (1, (2, 3), (0x041e_d583_329f_b074, 0xddbf_f663_e49e_31d4)),
    (2, (2, 3), (0x75c0_2afb_ea57_a39e, 0x9be4_1c6c_4a2f_e2f9)),
    (1, (3, 3), (0x199c_9813_faa4_ba57, 0xf07b_03cd_52bf_e750)),
    (2, (3, 3), (0x8f12_7b8b_3e76_2151, 0x74de_4aef_852c_00be)),
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
