//! Per-rank memory accounting.
//!
//! The headline claim of the paper is memory-footprint reduction: Table III
//! reports average peak GPU memory per rank falling from 9.14 GB on 6 GPUs to
//! 0.18 GB on 4158 GPUs for Gradient Decomposition, versus a floor of 0.48 GB
//! for Halo Voxel Exchange. The solvers register every allocation they would
//! make on a GPU (tile voxels, halo voxels, measurements, gradient and
//! accumulation buffers) with this tracker so that the same statistic can be
//! reported for the reproduction.

use std::collections::BTreeMap;

/// The categories of GPU memory the reconstruction allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemoryCategory {
    /// The tile's own voxels (all slices).
    TileVoxels,
    /// The halo extension voxels.
    HaloVoxels,
    /// Diffraction measurements assigned to the tile.
    Measurements,
    /// The per-probe image gradient workspace.
    GradientBuffer,
    /// The accumulated-gradient buffer (`AccBuf` in Algorithm 1).
    AccumulationBuffer,
    /// Probe, propagator and FFT workspace.
    ModelWorkspace,
    /// Anything else.
    Other,
}

/// Tracks current and peak memory usage by category for one rank.
#[derive(Clone, Debug, Default)]
pub struct MemoryTracker {
    current: BTreeMap<MemoryCategory, usize>,
    peak_total: usize,
    peak_by_category: BTreeMap<MemoryCategory, usize>,
}

impl MemoryTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an allocation of `bytes` in `category`.
    pub fn allocate(&mut self, category: MemoryCategory, bytes: usize) {
        let entry = self.current.entry(category).or_insert(0);
        *entry += bytes;
        let cat_peak = self.peak_by_category.entry(category).or_insert(0);
        *cat_peak = (*cat_peak).max(*entry);
        let total = self.current_total();
        self.peak_total = self.peak_total.max(total);
    }

    /// Registers a release of `bytes` from `category` (saturating at zero).
    pub fn release(&mut self, category: MemoryCategory, bytes: usize) {
        if let Some(entry) = self.current.get_mut(&category) {
            *entry = entry.saturating_sub(bytes);
        }
    }

    /// Current total bytes across categories.
    pub fn current_total(&self) -> usize {
        self.current.values().sum()
    }

    /// Peak total bytes observed.
    pub fn peak_total(&self) -> usize {
        self.peak_total
    }

    /// Peak bytes observed for one category.
    pub fn peak_of(&self, category: MemoryCategory) -> usize {
        self.peak_by_category.get(&category).copied().unwrap_or(0)
    }

    /// Current bytes held in one category.
    pub fn current_of(&self, category: MemoryCategory) -> usize {
        self.current.get(&category).copied().unwrap_or(0)
    }
}

/// Averages the peak memory across a set of per-rank trackers, in bytes —
/// the "average peak memory footprint per GPU" statistic of Tables II/III.
pub fn average_peak_bytes(trackers: &[MemoryTracker]) -> f64 {
    if trackers.is_empty() {
        return 0.0;
    }
    trackers.iter().map(|t| t.peak_total() as f64).sum::<f64>() / trackers.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release() {
        let mut t = MemoryTracker::new();
        t.allocate(MemoryCategory::TileVoxels, 1000);
        t.allocate(MemoryCategory::Measurements, 500);
        assert_eq!(t.current_total(), 1500);
        t.release(MemoryCategory::Measurements, 500);
        assert_eq!(t.current_total(), 1000);
        assert_eq!(t.peak_total(), 1500);
    }

    #[test]
    fn peak_tracks_maximum_not_current() {
        let mut t = MemoryTracker::new();
        t.allocate(MemoryCategory::GradientBuffer, 100);
        t.release(MemoryCategory::GradientBuffer, 100);
        t.allocate(MemoryCategory::GradientBuffer, 60);
        assert_eq!(t.current_of(MemoryCategory::GradientBuffer), 60);
        assert_eq!(t.peak_of(MemoryCategory::GradientBuffer), 100);
        assert_eq!(t.peak_total(), 100);
    }

    #[test]
    fn release_saturates() {
        let mut t = MemoryTracker::new();
        t.allocate(MemoryCategory::Other, 10);
        t.release(MemoryCategory::Other, 100);
        assert_eq!(t.current_of(MemoryCategory::Other), 0);
    }

    #[test]
    fn average_and_max_merge() {
        let mut a = MemoryTracker::new();
        a.allocate(MemoryCategory::TileVoxels, 100);
        let mut b = MemoryTracker::new();
        b.allocate(MemoryCategory::HaloVoxels, 300);
        assert_eq!(average_peak_bytes(&[a, b]), 200.0);
    }

    #[test]
    fn empty_average_is_zero() {
        assert_eq!(average_peak_bytes(&[]), 0.0);
    }
}
