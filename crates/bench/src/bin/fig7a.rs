//! Regenerates Fig. 7a: strong-scaling runtime curves for both datasets
//! against the ideal O(1/P) line.

use ptycho_bench::experiments::{fig7a, PaperDataset};
use ptycho_bench::report::{fmt, Table};

fn main() {
    for (name, dataset) in [
        ("small Lead Titanate", PaperDataset::Small),
        ("large Lead Titanate", PaperDataset::Large),
    ] {
        let series = fig7a(dataset);
        let mut table = Table::new(format!("Fig. 7a: strong scaling, {name} dataset")).headers(&[
            "GPUs",
            "Runtime (min)",
            "Ideal O(1/P) (min)",
            "Speedup vs 6 GPUs",
        ]);
        let base = series[0].1;
        for (gpus, runtime, ideal) in &series {
            table.row(vec![
                gpus.to_string(),
                fmt(*runtime, 2),
                fmt(*ideal, 2),
                format!("{:.0}x", base / runtime),
            ]);
        }
        println!("{}", table.render());
    }
    println!(
        "Paper reference: 2519x speedup from 6 to 4158 GPUs on the large dataset \
         (super-linear, 364% efficiency)."
    );
}
