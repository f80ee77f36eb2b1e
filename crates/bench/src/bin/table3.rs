//! Regenerates Table III: Gradient Decomposition vs. Halo Voxel Exchange on
//! the large Lead Titanate dataset, plus the abstract's headline claims.

use ptycho_bench::experiments::{headline_claims, scaling_tables, PaperDataset};
use ptycho_bench::report::Table;

fn main() {
    let (gd, hve) = scaling_tables(PaperDataset::Large);
    println!(
        "{}",
        ptycho_bench::experiments::render_scaling_rows(
            "Table III(a): Gradient Decomposition, large Lead Titanate dataset",
            &gd
        )
        .render()
    );
    println!(
        "{}",
        ptycho_bench::experiments::render_scaling_rows(
            "Table III(b): Halo Voxel Exchange, large Lead Titanate dataset",
            &hve
        )
        .render()
    );

    let mut reference = Table::new("Paper values for comparison (Table III)").headers(&[
        "GPUs",
        "GD mem (GB)",
        "GD runtime (min)",
        "HVE mem (GB)",
        "HVE runtime (min)",
    ]);
    for (gpus, gd_mem, gd_rt, hve_mem, hve_rt) in [
        (6, "9.14", "5543.0", "9.47", "7213.3"),
        (54, "1.54", "183.0", "1.8", "271.7"),
        (198, "0.66", "37.5", "0.78", "59.2"),
        (462, "0.42", "14.2", "0.48", "189.5"),
        (924, "0.32", "7.0", "NA", "NA"),
        (4158, "0.18", "2.2", "NA", "NA"),
    ] {
        reference.row(vec![
            gpus.to_string(),
            gd_mem.into(),
            gd_rt.into(),
            hve_mem.into(),
            hve_rt.into(),
        ]);
    }
    println!("{}", reference.render());

    let claims = headline_claims(PaperDataset::Large);
    println!("== Headline claims (paper: 51x memory reduction, 2.7x more memory efficient,");
    println!("   9x more scalable, 86x faster than Halo Voxel Exchange) ==");
    println!(
        "model: {:.0}x memory reduction, {:.1}x more memory efficient, {:.0}x more scalable, {:.0}x faster",
        claims.gd_memory_reduction,
        claims.memory_advantage,
        claims.scalability_advantage,
        claims.speed_advantage
    );
}
