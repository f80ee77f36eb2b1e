//! Regenerates Table II: Gradient Decomposition vs. Halo Voxel Exchange on the
//! small Lead Titanate dataset (memory per GPU, runtime for 100 iterations,
//! strong-scaling efficiency).

use ptycho_bench::experiments::{scaling_tables, PaperDataset};
use ptycho_bench::report::Table;

fn main() {
    let (gd, hve) = scaling_tables(PaperDataset::Small);
    println!(
        "{}",
        ptycho_bench::experiments::render_scaling_rows(
            "Table II(a): Gradient Decomposition, small Lead Titanate dataset",
            &gd
        )
        .render()
    );
    println!(
        "{}",
        ptycho_bench::experiments::render_scaling_rows(
            "Table II(b): Halo Voxel Exchange, small Lead Titanate dataset",
            &hve
        )
        .render()
    );

    let mut reference = Table::new("Paper values for comparison (Table II)").headers(&[
        "GPUs",
        "GD mem (GB)",
        "GD runtime (min)",
        "HVE mem (GB)",
        "HVE runtime (min)",
    ]);
    for (gpus, gd_mem, gd_rt, hve_mem, hve_rt) in [
        (6, "2.53", "360.0", "2.80", "463.3"),
        (24, "1.20", "73.0", "1.20", "95.3"),
        (54, "0.58", "20.6", "0.78", "43.7"),
        (126, "0.39", "11.5", "NA", "NA"),
        (198, "0.31", "5.5", "NA", "NA"),
        (462, "0.23", "3.0", "NA", "NA"),
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
}
