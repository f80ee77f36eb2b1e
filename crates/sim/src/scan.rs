//! Raster scan patterns and probe-location bookkeeping.
//!
//! The electron probe visits a grid of positions in raster order (Fig. 1(b)).
//! Each visit is a *probe location*: it owns one diffraction measurement and
//! corresponds to a circular region of the object. Neighbouring circles overlap
//! — typically by more than 70% — and that overlap is exactly what forces the
//! decomposition machinery of `ptycho-core` to exchange image gradients.

use ptycho_array::Rect;

/// Configuration of a raster scan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScanConfig {
    /// Number of probe positions along the slow (row) axis.
    pub rows: usize,
    /// Number of probe positions along the fast (column) axis.
    pub cols: usize,
    /// Step between neighbouring probe positions, in object pixels.
    pub step_px: f64,
    /// Row/column (in object pixels) of the first probe centre.
    pub origin_px: (f64, f64),
    /// Side length of the square probe window in pixels; each probe location's
    /// bounding box has this size, centred on the probe position.
    pub window_px: usize,
    /// Radius of the probe-location circle in pixels (from [`crate::Probe::radius_px`]).
    pub probe_radius_px: f64,
}

impl ScanConfig {
    /// A scan whose probe centres exactly cover an object of the given size,
    /// with the requested number of positions per axis.
    pub fn covering(
        object_rows: usize,
        object_cols: usize,
        scan_rows: usize,
        scan_cols: usize,
        window_px: usize,
        probe_radius_px: f64,
    ) -> Self {
        assert!(scan_rows > 0 && scan_cols > 0, "scan must have positions");
        // Keep the whole probe window inside the object: margin of window/2.
        let margin = window_px as f64 / 2.0;
        let usable_rows = object_rows as f64 - 2.0 * margin;
        let usable_cols = object_cols as f64 - 2.0 * margin;
        assert!(
            usable_rows >= 0.0 && usable_cols >= 0.0,
            "object ({object_rows}x{object_cols}) smaller than probe window {window_px}"
        );
        let step_r = if scan_rows > 1 {
            usable_rows / (scan_rows - 1) as f64
        } else {
            0.0
        };
        let step_c = if scan_cols > 1 {
            usable_cols / (scan_cols - 1) as f64
        } else {
            0.0
        };
        let step = step_r.min(step_c).max(1.0);
        Self {
            rows: scan_rows,
            cols: scan_cols,
            step_px: step,
            origin_px: (margin, margin),
            window_px,
            probe_radius_px,
        }
    }

    /// Total number of probe locations.
    pub fn num_locations(&self) -> usize {
        self.rows * self.cols
    }

    /// The linear overlap ratio between two adjacent probe-location circles,
    /// `1 - step / (2·radius)`, clamped to `[0, 1]`.
    ///
    /// The paper notes that ptychographic acquisitions typically use overlap
    /// ratios above 70%, and that ratios above ~50% are where the simple
    /// direct-neighbour accumulation stops being sufficient (Sec. IV).
    pub fn overlap_ratio(&self) -> f64 {
        if self.probe_radius_px <= 0.0 {
            return 0.0;
        }
        (1.0 - self.step_px / (2.0 * self.probe_radius_px)).clamp(0.0, 1.0)
    }
}

/// A single probe location: its acquisition index, centre, and footprint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeLocation {
    /// Acquisition (time) order, 0-based; Fig. 1(b) numbers these 1..9.
    pub index: usize,
    /// Scan-grid coordinates `(scan_row, scan_col)`.
    pub grid_pos: (usize, usize),
    /// Probe centre in object pixels `(row, col)`.
    pub center_px: (f64, f64),
    /// Bounding box of the probe window in object pixel coordinates.
    pub window: Rect,
    /// Radius of the probe-location circle in pixels.
    pub radius_px: f64,
}

impl ProbeLocation {
    /// True when the probe circles of `self` and `other` overlap.
    pub fn overlaps(&self, other: &ProbeLocation) -> bool {
        let dr = self.center_px.0 - other.center_px.0;
        let dc = self.center_px.1 - other.center_px.1;
        let dist = (dr * dr + dc * dc).sqrt();
        dist < self.radius_px + other.radius_px
    }
}

/// A full raster scan pattern: the ordered list of probe locations.
#[derive(Clone, Debug)]
pub struct ScanPattern {
    config: ScanConfig,
    locations: Vec<ProbeLocation>,
}

impl ScanPattern {
    /// Generates the raster pattern for a configuration.
    pub fn generate(config: ScanConfig) -> Self {
        let mut locations = Vec::with_capacity(config.num_locations());
        let half = config.window_px as i64 / 2;
        for sr in 0..config.rows {
            for sc in 0..config.cols {
                let index = sr * config.cols + sc;
                let center = (
                    config.origin_px.0 + sr as f64 * config.step_px,
                    config.origin_px.1 + sc as f64 * config.step_px,
                );
                let top = center.0.round() as i64 - half;
                let left = center.1.round() as i64 - half;
                locations.push(ProbeLocation {
                    index,
                    grid_pos: (sr, sc),
                    center_px: center,
                    window: Rect::new(top, left, config.window_px as i64, config.window_px as i64),
                    radius_px: config.probe_radius_px,
                });
            }
        }
        Self { config, locations }
    }

    /// The configuration the pattern was generated from.
    pub fn config(&self) -> &ScanConfig {
        &self.config
    }

    /// The pattern restricted to its first `n` probe locations (acquisition
    /// order) — the shape of a scan whose tail has not arrived yet. The
    /// configuration is kept, so a later [`ScanPattern::push`] of the
    /// remaining locations rebuilds the full pattern exactly.
    ///
    /// # Panics
    /// Panics if `n` exceeds the number of locations.
    pub fn prefix(&self, n: usize) -> ScanPattern {
        assert!(
            n <= self.locations.len(),
            "prefix {n} exceeds the {} scanned locations",
            self.locations.len()
        );
        Self {
            config: self.config,
            locations: self.locations[..n].to_vec(),
        }
    }

    /// Appends one probe location — the ingestion splice. Locations must
    /// arrive in acquisition order: the pushed location's `index` has to be
    /// exactly the current length, so the pattern can never hold a gap.
    ///
    /// # Panics
    /// Panics if the location's index does not continue acquisition order.
    pub fn push(&mut self, location: ProbeLocation) {
        assert_eq!(
            location.index,
            self.locations.len(),
            "ingested location index {} does not continue acquisition order (expected {})",
            location.index,
            self.locations.len()
        );
        self.locations.push(location);
    }

    /// All probe locations in acquisition (raster) order.
    pub fn locations(&self) -> &[ProbeLocation] {
        &self.locations
    }

    /// Number of probe locations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// True when the pattern has no probe locations.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// The probe locations whose *centres* fall inside `region` — the
    /// "owning tile" assignment used by both decomposition methods (each probe
    /// location is owned by exactly one tile).
    pub fn locations_owned_by(&self, region: &Rect) -> Vec<ProbeLocation> {
        self.locations
            .iter()
            .filter(|loc| {
                region.contains(
                    loc.center_px.0.floor() as i64,
                    loc.center_px.1.floor() as i64,
                )
            })
            .copied()
            .collect()
    }

    /// Bounding box of the union of all probe windows (the part of the object
    /// actually illuminated).
    pub fn illuminated_bbox(&self) -> Rect {
        self.locations
            .iter()
            .fold(Rect::empty(), |acc, loc| acc.bounding_union(&loc.window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_3x3() -> ScanPattern {
        ScanPattern::generate(ScanConfig {
            rows: 3,
            cols: 3,
            step_px: 16.0,
            origin_px: (32.0, 32.0),
            window_px: 64,
            probe_radius_px: 20.0,
        })
    }

    #[test]
    fn raster_order_and_count() {
        let p = pattern_3x3();
        assert_eq!(p.len(), 9);
        assert_eq!(p.locations()[0].grid_pos, (0, 0));
        assert_eq!(p.locations()[1].grid_pos, (0, 1));
        assert_eq!(p.locations()[3].grid_pos, (1, 0));
        assert_eq!(p.locations()[8].grid_pos, (2, 2));
        for (i, loc) in p.locations().iter().enumerate() {
            assert_eq!(loc.index, i);
        }
    }

    #[test]
    fn windows_are_centred_on_positions() {
        let p = pattern_3x3();
        let loc = p.locations()[4];
        assert_eq!(loc.center_px, (48.0, 48.0));
        assert_eq!(loc.window, Rect::new(16, 16, 64, 64));
        let (cr, cc) = loc.window.center();
        assert!((cr - 48.0).abs() <= 1.0 && (cc - 48.0).abs() <= 1.0);
    }

    #[test]
    fn adjacent_circles_overlap() {
        let p = pattern_3x3();
        let a = p.locations()[0];
        let b = p.locations()[1];
        assert!(a.overlaps(&b));
        // Overlap ratio 1 - 16/(2*20) = 0.6.
        assert!((p.config().overlap_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn high_overlap_reaches_non_adjacent_neighbours() {
        // Step much smaller than radius: circles overlap beyond direct
        // neighbours, the regime of Fig. 2(f).
        let p = ScanPattern::generate(ScanConfig {
            rows: 5,
            cols: 5,
            step_px: 4.0,
            origin_px: (32.0, 32.0),
            window_px: 32,
            probe_radius_px: 10.0,
        });
        // The centre probe overlaps more than its 8 direct neighbours, which
        // is what necessitates the forward/backward accumulation passes.
        let middle = &p.locations()[12];
        let centre = p
            .locations()
            .iter()
            .filter(|b| b.index != middle.index && middle.overlaps(b))
            .count();
        assert!(centre > 8, "expected >8 overlaps, got {centre}");
    }

    #[test]
    fn covering_scan_fits_object() {
        let config = ScanConfig::covering(256, 256, 4, 4, 64, 20.0);
        let p = ScanPattern::generate(config);
        let bbox = p.illuminated_bbox();
        let object = Rect::of_shape(256, 256);
        assert!(object.contains_rect(&bbox), "bbox {bbox:?} escapes object");
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn locations_owned_by_partition() {
        let p = pattern_3x3();
        let bounds = Rect::of_shape(128, 128);
        let tiles = Rect::grid(&bounds, 3, 3);
        let mut total = 0;
        for t in &tiles {
            total += p.locations_owned_by(t).len();
        }
        // Ownership by centre partitions the probe locations exactly.
        assert_eq!(total, p.len());
    }

    #[test]
    fn overlap_ratio_clamps() {
        let mut config = pattern_3x3().config;
        config.step_px = 100.0;
        assert_eq!(config.overlap_ratio(), 0.0);
        config.step_px = 0.0;
        assert_eq!(config.overlap_ratio(), 1.0);
    }
}
