//! Experiment harnesses that regenerate every table and figure of the paper's
//! evaluation section, plus plain-text reporting helpers.
//!
//! Each binary in `src/bin/` (one per table/figure) is a thin wrapper around a
//! function in [`experiments`]; the functions are also exercised by the
//! workspace integration tests so that the reproduced *shapes* (who wins, by
//! roughly what factor, where the crossovers fall) are checked automatically.
//!
//! # Quick start
//!
//! Regenerate Table I (dataset geometry) and the Table II scaling rows for
//! the small Lead Titanate dataset, then render them as plain text:
//!
//! ```
//! use ptycho_bench::experiments::{scaling_tables, table1, PaperDataset};
//!
//! let table = table1();
//! assert_eq!(table.len(), 2); // small + large Lead Titanate rows
//! println!("{}", table.render());
//!
//! let (gd_rows, hve_rows) = scaling_tables(PaperDataset::Small);
//! // Gradient decomposition fills every GPU-count column; the halo-exchange
//! // baseline leaves "NA" cells where no feasible tiling exists.
//! let feasible = |rows: &ptycho_bench::experiments::ScalingRows| {
//!     rows.points.iter().filter(|p| p.is_some()).count()
//! };
//! assert!(feasible(&gd_rows) >= feasible(&hve_rows));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
