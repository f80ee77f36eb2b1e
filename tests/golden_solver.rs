//! FNV-64 goldens of whole Gradient Decomposition solves.
//!
//! Recorded at commit 1f8111f (whole-overlap-strip accumulation passes,
//! whole-tile apply and reset) and asserted unchanged since: the bit-identity
//! net under every restructuring of the pass / tile-update path. Every other
//! bit-identity pin in the repository compares two paths of *one* build;
//! this table is the only one that compares a build with its ancestors.
//!
//! The matrix is every pass frequency of Fig. 9 × local updates on / off ×
//! four grids — 3×3 (diagonal overlaps, ranks with empty rounds), 1×4 and
//! 4×1 (one sweep axis idle, non-adjacent extended tiles overlapping) and
//! 2×2 — on the lockstep backend, plus one threaded run that must land on
//! its lockstep row.
//!
//! The hashes depend on the platform's `libm` (probe synthesis, twiddles)
//! and on nothing else: every FFT dispatch tier computes the same bits, so
//! the constants, recorded on the scalar tier, hold at whichever tier the
//! host resolves to.

mod common;

use common::{lockstep, threaded};
use ptycho_core::config::PassFrequency::{self, EveryProbe, PerIteration};
use ptycho_core::durability::fnv1a64;
use ptycho_core::{
    GradientDecompositionSolver, JobContext, ReconstructionResult, RecoveryPolicy, SolverConfig,
};
use ptycho_fft::SimdLevel;
use ptycho_sim::dataset::{Dataset, SyntheticConfig};

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

/// A 96 px, 2-slice object under a 5×5 scan of 32-px windows: neighbouring
/// windows overlap by half, so what the passes exchange and when the tile is
/// updated both reach the result, and 25 locations over 9 or 4 tiles leave
/// ranks with unequal shares (empty rounds under `EveryProbe`).
fn dataset() -> Dataset {
    Dataset::synthesize(SyntheticConfig {
        object_px: 96,
        slices: 2,
        scan_grid: (5, 5),
        window_px: 32,
        dose: None,
        defocus_pm: 12_000.0,
        seed: 16,
    })
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

const GOLDEN: [Row; 24] = [
    (
        EveryProbe,
        true,
        (3, 3),
        (0x2e1b_21ec_33f8_0748, 0x992f_112f_32e5_d060),
    ),
    (
        EveryProbe,
        false,
        (3, 3),
        (0xb30a_7992_54ae_b5ad, 0xc874_d430_f592_4629),
    ),
    (
        PerIteration(2),
        true,
        (3, 3),
        (0xbd26_c162_80a6_9a86, 0xbf07_46f6_b2d5_151a),
    ),
    (
        PerIteration(2),
        false,
        (3, 3),
        (0xbf2d_7bb1_0899_49a1, 0x3127_c1de_c5f9_f5fd),
    ),
    (
        PerIteration(1),
        true,
        (3, 3),
        (0x20d5_a477_4fd2_bd29, 0xa9b4_2334_3255_5870),
    ),
    (
        PerIteration(1),
        false,
        (3, 3),
        (0x05e7_0da2_658b_67f4, 0x7083_e503_8d59_cafb),
    ),
    (
        EveryProbe,
        true,
        (1, 4),
        (0x8e9e_e68f_1c1b_fcf0, 0x8a00_5276_0600_a81a),
    ),
    (
        EveryProbe,
        false,
        (1, 4),
        (0xa99f_e923_ce40_b678, 0xd4b0_ec70_0999_65a3),
    ),
    (
        PerIteration(2),
        true,
        (1, 4),
        (0x7483_a5c4_8eaf_c70e, 0xca88_47ed_bf33_b1cb),
    ),
    (
        PerIteration(2),
        false,
        (1, 4),
        (0xbd6d_3778_637a_b876, 0x70fe_f8f0_b4ea_cf92),
    ),
    (
        PerIteration(1),
        true,
        (1, 4),
        (0x40bd_3e6e_ae04_ab32, 0xb456_97f4_cf5f_64ef),
    ),
    (
        PerIteration(1),
        false,
        (1, 4),
        (0x57f8_eb38_c7bb_6bf3, 0xbc85_f2a5_d7b9_3d21),
    ),
    (
        EveryProbe,
        true,
        (4, 1),
        (0xfbec_7b4c_f826_b8db, 0x8c9b_d8aa_2a2f_ee99),
    ),
    (
        EveryProbe,
        false,
        (4, 1),
        (0x34e8_8a61_c858_41ef, 0x3823_954d_a0e4_e840),
    ),
    (
        PerIteration(2),
        true,
        (4, 1),
        (0x6abb_887e_f1ce_799b, 0xae67_9d14_1144_7044),
    ),
    (
        PerIteration(2),
        false,
        (4, 1),
        (0xe92c_18c3_7187_68a7, 0x15b5_c6aa_36ab_b8f7),
    ),
    (
        PerIteration(1),
        true,
        (4, 1),
        (0xf212_7373_9a5e_0bf7, 0x1456_ae24_1de6_dca3),
    ),
    (
        PerIteration(1),
        false,
        (4, 1),
        (0x70ca_1d85_d308_4a46, 0x3727_dee0_2c73_1cd1),
    ),
    (
        EveryProbe,
        true,
        (2, 2),
        (0x3d6a_fd2c_835d_d082, 0xf5aa_bfd9_0b7f_476e),
    ),
    (
        EveryProbe,
        false,
        (2, 2),
        (0x3d6a_fd2c_835d_d082, 0xf5aa_bfd9_0b7f_476e),
    ),
    (
        PerIteration(2),
        true,
        (2, 2),
        (0xfaae_1130_036e_31f5, 0x19df_b0fe_4bed_dc81),
    ),
    (
        PerIteration(2),
        false,
        (2, 2),
        (0xb727_d056_be0d_ae40, 0x6164_5098_344b_991c),
    ),
    (
        PerIteration(1),
        true,
        (2, 2),
        (0x3529_a2bb_5298_df7a, 0x029e_a58f_1a79_10a1),
    ),
    (
        PerIteration(1),
        false,
        (2, 2),
        (0x4afc_1611_ef40_ace7, 0xbc85_f2a5_d7b9_3d21),
    ),
];

#[test]
fn lockstep_solves_match_recorded_goldens() {
    let dataset = dataset();
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
    let dataset = dataset();
    let row = GOLDEN
        .iter()
        .find(|row| (row.0, row.1, row.2) == (EveryProbe, true, (3, 3)))
        .expect("the table covers EveryProbe on 3x3");
    let solver = GradientDecompositionSolver::new(&dataset, config(row.0, row.1), row.2);
    assert_eq!(
        fingerprint(
            &solver
                .run_job(
                    &threaded(5_000),
                    RecoveryPolicy::FailFast,
                    &JobContext::default()
                )
                .expect("fault-free run completes")
        ),
        row.3
    );
}
