//! Tile grids, halos and overlap regions.
//!
//! Both decomposition methods tessellate the image into a `grid_rows ×
//! grid_cols` grid of contiguous core tiles — one per worker — and extend each
//! core tile with a halo so that the probe-location circles owned by the tile
//! are covered (Fig. 2(b), Fig. 3(b)). The difference between the methods is
//! *what flows through the overlaps*: the Gradient Decomposition method adds
//! image gradients in the overlap regions, while the Halo Voxel Exchange
//! method copy-pastes voxels into neighbouring halos.

use ptycho_array::Rect;
use ptycho_sim::scan::{ProbeLocation, ScanPattern};

/// Everything a worker needs to know about its tile.
#[derive(Clone, Debug, PartialEq)]
pub struct TileInfo {
    /// Linear tile index == worker rank.
    pub index: usize,
    /// Position in the tile grid `(grid_row, grid_col)`.
    pub grid_pos: (usize, usize),
    /// The core tile: the region this worker owns exclusively; core tiles
    /// partition the image.
    pub core: Rect,
    /// The halo-extended tile: core dilated by the halo width and clamped to
    /// the image bounds. This is the region the worker allocates and updates.
    pub extended: Rect,
    /// Probe locations owned by this tile (centre inside `core`).
    pub owned_locations: Vec<ProbeLocation>,
}

impl TileInfo {
    /// Number of voxels (per slice) in the extended tile.
    pub fn extended_area(&self) -> usize {
        self.extended.area()
    }

    /// Number of voxels (per slice) in the halo alone.
    pub fn halo_area(&self) -> usize {
        self.extended.area() - self.core.area()
    }
}

/// A complete tile decomposition of an image.
#[derive(Clone, Debug)]
pub struct TileGrid {
    image_bounds: Rect,
    grid_rows: usize,
    grid_cols: usize,
    halo_px: usize,
    tiles: Vec<TileInfo>,
}

impl TileGrid {
    /// Builds the decomposition of an `image_rows × image_cols` image into a
    /// `grid_rows × grid_cols` grid with the given halo width, assigning every
    /// probe location of `scan` to the tile whose core contains its centre.
    ///
    /// # Panics
    /// Panics if the grid is empty or larger than the image.
    pub fn new(
        image_rows: usize,
        image_cols: usize,
        grid_rows: usize,
        grid_cols: usize,
        halo_px: usize,
        scan: &ScanPattern,
    ) -> Self {
        assert!(grid_rows > 0 && grid_cols > 0, "empty tile grid");
        assert!(
            grid_rows <= image_rows && grid_cols <= image_cols,
            "tile grid {grid_rows}x{grid_cols} larger than image {image_rows}x{image_cols}"
        );
        let image_bounds = Rect::of_shape(image_rows, image_cols);
        let cores = Rect::grid(&image_bounds, grid_rows, grid_cols);
        // A halo as wide as the image already extends every tile to all of
        // it; capping there keeps the dilation inside `i64`.
        let margin = halo_px.min(image_rows.max(image_cols)) as i64;
        let tiles = cores
            .into_iter()
            .enumerate()
            .map(|(index, core)| {
                let extended = core.dilate(margin).clamp_to(&image_bounds);
                let owned_locations = scan.locations_owned_by(&core);
                TileInfo {
                    index,
                    grid_pos: (index / grid_cols, index % grid_cols),
                    core,
                    extended,
                    owned_locations,
                }
            })
            .collect();
        Self {
            image_bounds,
            grid_rows,
            grid_cols,
            halo_px,
            tiles,
        }
    }

    /// Chooses a near-square `(grid_rows, grid_cols)` factorisation of
    /// `workers`, preferring `grid_rows <= grid_cols` (e.g. 6 → 2×3,
    /// 462 → 21×22, 4158 → 63×66).
    pub fn grid_dims_for(workers: usize) -> (usize, usize) {
        assert!(workers > 0, "need at least one worker");
        let mut best = (1, workers);
        let mut best_gap = workers;
        let limit = (workers as f64).sqrt() as usize + 1;
        for rows in 1..=limit {
            if workers.is_multiple_of(rows) {
                let cols = workers / rows;
                let gap = cols - rows.min(cols);
                if gap < best_gap {
                    best_gap = gap;
                    best = (rows.min(cols), rows.max(cols));
                }
            }
        }
        best
    }

    /// The full image bounds.
    pub fn image_bounds(&self) -> Rect {
        self.image_bounds
    }

    /// Grid shape `(grid_rows, grid_cols)`.
    pub fn grid_shape(&self) -> (usize, usize) {
        (self.grid_rows, self.grid_cols)
    }

    /// Halo width in pixels.
    pub fn halo_px(&self) -> usize {
        self.halo_px
    }

    /// Number of tiles (== workers).
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// All tiles, indexed by rank.
    pub fn tiles(&self) -> &[TileInfo] {
        &self.tiles
    }

    /// The tile owned by `rank`.
    pub fn tile(&self, rank: usize) -> &TileInfo {
        &self.tiles[rank]
    }

    /// Rank of the tile at `(grid_row, grid_col)`.
    pub fn rank_at(&self, grid_row: usize, grid_col: usize) -> usize {
        assert!(grid_row < self.grid_rows && grid_col < self.grid_cols);
        grid_row * self.grid_cols + grid_col
    }

    /// The overlap between the *extended* tiles of two ranks (possibly empty).
    /// This is the region in which their image gradients must agree.
    pub fn overlap(&self, a: usize, b: usize) -> Rect {
        self.tiles[a].extended.intersect(&self.tiles[b].extended)
    }

    /// The direct neighbours (8-connectivity, Fig. 3(b)) of a rank whose
    /// extended tiles actually overlap it.
    pub fn neighbors(&self, rank: usize) -> Vec<usize> {
        let (gr, gc) = self.tiles[rank].grid_pos;
        let mut out = Vec::new();
        for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                if dr == 0 && dc == 0 {
                    continue;
                }
                let nr = gr as i64 + dr;
                let nc = gc as i64 + dc;
                if nr < 0 || nc < 0 || nr >= self.grid_rows as i64 || nc >= self.grid_cols as i64 {
                    continue;
                }
                let n = self.rank_at(nr as usize, nc as usize);
                if !self.overlap(rank, n).is_empty() {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Checks that every probe location is owned by exactly one tile.
    pub fn ownership_partitions_scan(&self, scan: &ScanPattern) -> bool {
        let total: usize = self.tiles.iter().map(|t| t.owned_locations.len()).sum();
        total == scan.len()
    }

    /// Probe locations assigned to a tile by the *Halo Voxel Exchange* rule:
    /// the owned locations plus `extra_rows` rings of neighbouring locations
    /// around the core tile (Sec. II-C, Figs. 2(d)-(e)).
    pub fn hve_assigned_locations(
        &self,
        rank: usize,
        scan: &ScanPattern,
        extra_rows: usize,
    ) -> Vec<ProbeLocation> {
        let step = scan.config().step_px.max(1.0);
        let margin = (extra_rows as f64 * step).ceil() as i64;
        let reach = self.tiles[rank].core.dilate(margin);
        scan.locations_owned_by(&reach)
    }

    /// The halo width (in pixels) the Halo Voxel Exchange method needs so that
    /// its halo covers all the extra probe locations' windows: the extra rings
    /// plus half a probe window.
    pub fn hve_required_halo_px(scan: &ScanPattern, extra_rows: usize) -> usize {
        let step = scan.config().step_px;
        let window_half = scan.config().window_px as f64 / 2.0;
        (extra_rows as f64 * step + window_half).ceil() as usize
    }

    /// The Halo Voxel Exchange feasibility constraint (Sec. VI-B): every core
    /// tile must be at least as large as the neighbouring halos it has to
    /// fill, otherwise neighbouring tiles cannot be made consistent and the
    /// method cannot run ("NA" entries of Table II(b)).
    pub fn hve_feasible(&self, hve_halo_px: usize) -> bool {
        self.tiles
            .iter()
            .all(|t| t.core.rows() >= hve_halo_px && t.core.cols() >= hve_halo_px)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptycho_sim::scan::{ScanConfig, ScanPattern};

    fn test_scan() -> ScanPattern {
        ScanPattern::generate(ScanConfig {
            rows: 6,
            cols: 6,
            step_px: 16.0,
            origin_px: (24.0, 24.0),
            window_px: 32,
            probe_radius_px: 12.0,
        })
    }

    fn grid_3x3() -> TileGrid {
        TileGrid::new(128, 128, 3, 3, 8, &test_scan())
    }

    #[test]
    fn cores_partition_image() {
        let grid = grid_3x3();
        let total: usize = grid.tiles().iter().map(|t| t.core.area()).sum();
        assert_eq!(total, 128 * 128);
        for (i, a) in grid.tiles().iter().enumerate() {
            for b in grid.tiles().iter().skip(i + 1) {
                assert!(!a.core.intersects(&b.core));
            }
        }
    }

    #[test]
    fn extended_tiles_stay_in_bounds_and_contain_core() {
        let grid = grid_3x3();
        for t in grid.tiles() {
            assert!(grid.image_bounds().contains_rect(&t.extended));
            assert!(t.extended.contains_rect(&t.core));
            assert!(t.halo_area() > 0, "interior tiles must have halos");
        }
    }

    #[test]
    fn ownership_partitions_probe_locations() {
        let grid = grid_3x3();
        assert!(grid.ownership_partitions_scan(&test_scan()));
    }

    #[test]
    fn neighbors_of_center_tile() {
        let grid = grid_3x3();
        let center = grid.rank_at(1, 1);
        let mut n = grid.neighbors(center);
        n.sort_unstable();
        assert_eq!(n, vec![0, 1, 2, 3, 5, 6, 7, 8]);
    }

    #[test]
    fn neighbors_of_corner_tile() {
        let grid = grid_3x3();
        let mut n = grid.neighbors(0);
        n.sort_unstable();
        assert_eq!(n, vec![1, 3, 4]);
    }

    #[test]
    fn overlaps_are_symmetric_and_nonempty_for_adjacent() {
        let grid = grid_3x3();
        let a = grid.rank_at(1, 1);
        let b = grid.rank_at(1, 2);
        let ov = grid.overlap(a, b);
        assert!(!ov.is_empty());
        assert_eq!(ov, grid.overlap(b, a));
        // Diagonal overlap is the small corner square of Fig. 3(b).
        let d = grid.rank_at(2, 2);
        let corner = grid.overlap(a, d);
        assert!(!corner.is_empty());
        assert!(corner.area() < ov.area());
    }

    #[test]
    fn distant_tiles_do_not_overlap_with_small_halo() {
        let grid = grid_3x3();
        assert!(grid.overlap(0, 8).is_empty());
        assert!(grid
            .overlap(grid.rank_at(0, 0), grid.rank_at(0, 2))
            .is_empty());
    }

    #[test]
    fn a_halo_wider_than_the_image_extends_every_tile_to_all_of_it() {
        let scan = test_scan();
        let widest = TileGrid::new(128, 96, 3, 2, usize::MAX, &scan);
        let capped = TileGrid::new(128, 96, 3, 2, 128, &scan);
        assert_eq!(widest.tiles(), capped.tiles());
        for t in widest.tiles() {
            assert_eq!(t.extended, widest.image_bounds());
        }
    }

    #[test]
    fn grid_dims_factorisations() {
        assert_eq!(TileGrid::grid_dims_for(1), (1, 1));
        assert_eq!(TileGrid::grid_dims_for(6), (2, 3));
        assert_eq!(TileGrid::grid_dims_for(24), (4, 6));
        assert_eq!(TileGrid::grid_dims_for(54), (6, 9));
        assert_eq!(TileGrid::grid_dims_for(126), (9, 14));
        assert_eq!(TileGrid::grid_dims_for(198), (11, 18));
        assert_eq!(TileGrid::grid_dims_for(462), (21, 22));
        assert_eq!(TileGrid::grid_dims_for(924), (28, 33));
        assert_eq!(TileGrid::grid_dims_for(4158), (63, 66));
    }

    #[test]
    fn hve_assigns_extra_probe_locations() {
        let grid = grid_3x3();
        let scan = test_scan();
        let center = grid.rank_at(1, 1);
        let owned = grid.tile(center).owned_locations.len();
        let assigned = grid.hve_assigned_locations(center, &scan, 2).len();
        assert!(
            assigned > owned,
            "HVE must assign extra probes: owned={owned}, assigned={assigned}"
        );
        // With a large enough reach the centre tile ends up with every probe
        // location (the pathological case of Fig. 2(e)).
        let everything = grid.hve_assigned_locations(center, &scan, 10).len();
        assert_eq!(everything, scan.len());
    }

    #[test]
    fn hve_halo_exceeds_gd_halo() {
        let scan = test_scan();
        let hve_halo = TileGrid::hve_required_halo_px(&scan, 2);
        // 2 rows x 16 px + 16 px half-window = 48.
        assert_eq!(hve_halo, 48);
        assert!(
            hve_halo > 8,
            "HVE halo must exceed the GD halo used in tests"
        );
    }

    #[test]
    fn hve_feasibility_constraint() {
        let grid = grid_3x3(); // ~42 px tiles
        assert!(grid.hve_feasible(20));
        assert!(!grid.hve_feasible(64));
    }

    #[test]
    fn tile_at_and_rank_at_roundtrip() {
        let grid = grid_3x3();
        for gr in 0..3 {
            for gc in 0..3 {
                let rank = grid.rank_at(gr, gc);
                let tile = grid.tile(rank);
                assert_eq!(tile.index, rank);
                assert_eq!(tile.grid_pos, (gr, gc));
            }
        }
    }
}
