//! Datasets: simulated acquisition at laptop scale, plus the paper-scale
//! geometry presets of Table I that drive the memory and performance models.

use crate::multislice::MultisliceModel;
use crate::noise::{apply_poisson_noise, intensity_to_amplitude};
use crate::physics::ImagingGeometry;
use crate::probe::{Probe, ProbeConfig};
use crate::scan::{ProbeLocation, ScanConfig, ScanPattern};
use crate::specimen::{Specimen, SpecimenConfig};
use ptycho_array::{Array2, Rect};
use ptycho_fft::{CArray3, Complex64};

/// Bytes per complex voxel (two `f64`s), used consistently by the memory model.
pub const BYTES_PER_COMPLEX: usize = 16;
/// Bytes per real measurement value (`f32` on the detector, as in the paper's
/// implementation which stores measurements in single precision).
pub const BYTES_PER_MEASUREMENT: usize = 4;

/// The *geometry* of a dataset — everything the scaling and memory models need,
/// without any pixel data. Table I of the paper in code form.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of probe locations (N in Eqn. 1).
    pub probe_locations: usize,
    /// Scan grid (rows, cols) whose product is `probe_locations`.
    pub scan_grid: (usize, usize),
    /// Detector size in pixels per side (diffraction patterns are square).
    pub detector_px: usize,
    /// Reconstruction size: (slices, rows, cols).
    pub reconstruction: (usize, usize, usize),
    /// Voxel size in picometres: (x, y, z).
    pub voxel_size_pm: (f64, f64, f64),
    /// Imaging geometry used for acquisition.
    pub geometry: ImagingGeometry,
}

impl DatasetSpec {
    /// The small Lead Titanate dataset of Table I: 4158 probe locations,
    /// 1024² detector, 1536²×100 reconstruction at 10×10×125 pm³ voxels.
    pub fn lead_titanate_small() -> Self {
        Self {
            name: "Lead Titanate small".to_string(),
            probe_locations: 4158,
            scan_grid: (63, 66),
            detector_px: 1024,
            reconstruction: (100, 1536, 1536),
            voxel_size_pm: (10.0, 10.0, 125.0),
            geometry: ImagingGeometry::paper(),
        }
    }

    /// The large Lead Titanate dataset of Table I: 16632 probe locations,
    /// 1024² detector, 3072²×100 reconstruction at 10×10×125 pm³ voxels.
    pub fn lead_titanate_large() -> Self {
        Self {
            name: "Lead Titanate large".to_string(),
            probe_locations: 16632,
            scan_grid: (126, 132),
            detector_px: 1024,
            reconstruction: (100, 3072, 3072),
            voxel_size_pm: (10.0, 10.0, 125.0),
            geometry: ImagingGeometry::paper(),
        }
    }

    /// Total number of measurement values (`1024 × 1024 × N` in Table I).
    pub fn measurement_values(&self) -> usize {
        self.detector_px * self.detector_px * self.probe_locations
    }

    /// Total number of voxels in the reconstruction.
    pub fn voxel_count(&self) -> usize {
        let (d, r, c) = self.reconstruction;
        d * r * c
    }

    /// Lateral size of the reconstruction in pixels (rows == cols for both
    /// paper datasets).
    pub fn lateral_px(&self) -> usize {
        self.reconstruction.1
    }

    /// Number of object slices.
    pub fn slices(&self) -> usize {
        self.reconstruction.0
    }

    /// Margin between the image edge and the first probe centre, in pixels:
    /// the defocused probe (and a little slack) must stay inside the
    /// reconstruction.
    pub fn scan_margin_px(&self) -> f64 {
        1.5 * self.probe_radius_px()
    }

    /// Scan step in pixels, derived from the reconstruction extent and grid:
    /// the probe centres cover the image up to [`Self::scan_margin_px`] on
    /// each side.
    pub fn scan_step_px(&self) -> f64 {
        let (rows, cols) = self.scan_grid;
        let usable = self.lateral_px() as f64 - 2.0 * self.scan_margin_px();
        (usable / (rows.max(cols) as f64 - 1.0)).max(1.0)
    }

    /// The probe-location circle radius in pixels (defocus spread).
    pub fn probe_radius_px(&self) -> f64 {
        self.geometry.probe_radius_px()
    }

    /// Linear probe overlap ratio, `1 − step/(2·radius)`, clamped to `[0, 1]`.
    /// Both paper datasets sit far above the 70% threshold quoted in Sec. II-A.
    pub fn overlap_ratio(&self) -> f64 {
        (1.0 - self.scan_step_px() / (2.0 * self.probe_radius_px())).clamp(0.0, 1.0)
    }
}

/// Configuration for synthesising a laptop-scale dataset that exercises every
/// code path of the reconstruction (acquisition through the same forward model
/// used for reconstruction, optional Poisson noise).
#[derive(Clone, Copy, Debug)]
pub struct SyntheticConfig {
    /// Lateral object size in pixels (square).
    pub object_px: usize,
    /// Number of object slices.
    pub slices: usize,
    /// Scan grid (rows, cols).
    pub scan_grid: (usize, usize),
    /// Probe window in pixels (power of two).
    pub window_px: usize,
    /// Poisson dose scale; `None` means noiseless data.
    pub dose: Option<f64>,
    /// Probe defocus in picometres; larger values spread the probe into the
    /// large overlapping circles of the paper's high-overlap regime.
    pub defocus_pm: f64,
    /// RNG seed for specimen and noise.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            object_px: 128,
            slices: 2,
            scan_grid: (4, 4),
            window_px: 32,
            dose: None,
            defocus_pm: 12_000.0,
            seed: 11,
        }
    }
}

impl SyntheticConfig {
    /// The tiny configuration used by fast unit tests.
    pub fn tiny() -> Self {
        Self {
            object_px: 96,
            slices: 2,
            scan_grid: (3, 3),
            window_px: 32,
            dose: None,
            defocus_pm: 12_000.0,
            seed: 5,
        }
    }

    /// The geometry the `quickstart` example runs: a 6×6 raster with 45 nm
    /// defocus spreading each probe into a ~24 px circle, giving the >70%
    /// probe overlap of the paper's acquisitions (the example prints ~73%).
    /// Shared with the regression test that pins this overlap, so the
    /// example and its test cannot drift apart.
    pub fn quickstart() -> Self {
        Self {
            object_px: 128,
            slices: 2,
            scan_grid: (6, 6),
            window_px: 64,
            dose: None,
            defocus_pm: 45_000.0,
            seed: 42,
        }
    }

    /// Why [`Dataset::synthesize`] cannot run this recipe; `None` when it
    /// can. Besides the constructors' own preconditions, the object
    /// (`object_px²·slices` complex voxels) and the measurements
    /// (`rows·cols·window²` `f64`s) must each fit in `isize::MAX` bytes,
    /// Rust's allocation limit, so a decoded recipe cannot overflow a size.
    pub fn refusal_reason(&self) -> Option<String> {
        let (window, object) = (self.window_px, self.object_px);
        let (rows, cols) = self.scan_grid;
        let fits = |factors: &[usize]| {
            factors
                .iter()
                .try_fold(1usize, |bytes, &factor| bytes.checked_mul(factor))
                .is_some_and(|bytes| bytes <= isize::MAX as usize)
        };
        if !window.is_power_of_two() || window < 4 {
            Some(format!(
                "probe window {window} px is not a power of two >= 4"
            ))
        } else if object == 0 || self.slices == 0 {
            Some(format!(
                "the object is empty ({object} px, {} slices)",
                self.slices
            ))
        } else if window > object {
            Some(format!(
                "probe window {window} px is larger than the {object} px object"
            ))
        } else if rows == 0 || cols == 0 {
            Some(format!("scan grid {rows}x{cols} has no positions"))
        } else if let Some(dose) = self.dose.filter(|dose| dose.is_nan() || *dose <= 0.0) {
            Some(format!("dose {dose} is not positive"))
        } else if !fits(&[object, object, self.slices, BYTES_PER_COMPLEX]) {
            Some(format!(
                "a {object} px, {}-slice object exceeds isize::MAX bytes",
                self.slices
            ))
        } else if !fits(&[rows, cols, window, window, std::mem::size_of::<f64>()]) {
            Some(format!(
                "the measurements of a {rows}x{cols} scan with a {window} px window \
                 exceed isize::MAX bytes"
            ))
        } else {
            None
        }
    }
}

/// A fully synthesised dataset: ground-truth specimen, probe, scan pattern and
/// per-probe-location diffraction amplitudes.
#[derive(Clone, Debug)]
pub struct Dataset {
    spec_name: String,
    /// The configuration the acquisition was synthesised from — retained so
    /// a resumed process can re-synthesise the identical dataset from the
    /// persisted job spec alone.
    synthetic: SyntheticConfig,
    specimen: Specimen,
    model: MultisliceModel,
    /// The same model in complex `f32`: what every solver evaluates.
    model_f32: MultisliceModel<f32>,
    scan: ScanPattern,
    /// Measured diffraction amplitudes `|y_i|`, one per probe location, in
    /// acquisition order.
    measurements: Vec<Array2<f64>>,
}

impl Dataset {
    /// Simulates acquisition of a synthetic dataset.
    ///
    /// # Panics
    /// Panics on a recipe that [`SyntheticConfig::refusal_reason`] refuses;
    /// past its size bounds the allocation may abort the process instead.
    pub fn synthesize(config: SyntheticConfig) -> Self {
        let geometry = ImagingGeometry {
            pixel_size_pm: 50.0,
            defocus_pm: config.defocus_pm,
            ..ImagingGeometry::paper()
        };
        let specimen = Specimen::generate(SpecimenConfig {
            shape_px: (config.object_px, config.object_px),
            slices: config.slices,
            geometry,
            seed: config.seed,
            ..SpecimenConfig::default()
        });
        let probe = Probe::new(ProbeConfig {
            window_px: config.window_px,
            geometry,
            total_intensity: 1.0,
        });
        let scan = ScanPattern::generate(ScanConfig::covering(
            config.object_px,
            config.object_px,
            config.scan_grid.0,
            config.scan_grid.1,
            config.window_px,
            probe.radius_px(),
        ));
        let model = MultisliceModel::new(probe, config.slices);

        let truth = specimen.transmission();
        let mut measurements = Vec::with_capacity(scan.len());
        for (i, loc) in scan.locations().iter().enumerate() {
            let patch = extract_patch(truth, &loc.window);
            let pass = model.forward(&patch);
            let amplitude = match config.dose {
                None => pass.amplitude(),
                Some(dose) => {
                    let noisy =
                        apply_poisson_noise(&pass.intensity(), dose, config.seed ^ (i as u64));
                    intensity_to_amplitude(&noisy)
                }
            };
            measurements.push(amplitude);
        }

        Self {
            spec_name: format!(
                "synthetic {}x{} / {} slices / {} probes",
                config.object_px,
                config.object_px,
                config.slices,
                scan.len()
            ),
            synthetic: config,
            specimen,
            model_f32: model.narrowed(),
            model,
            scan,
            measurements,
        }
    }

    /// Human-readable description of the dataset.
    pub fn name(&self) -> &str {
        &self.spec_name
    }

    /// The configuration this dataset was synthesised from.
    pub fn synthetic_config(&self) -> SyntheticConfig {
        self.synthetic
    }

    /// The dataset restricted to its first `n` probe locations, in
    /// acquisition order. The synthesis recipe is kept, so a checkpointed
    /// job over a prefix is rebuilt by re-synthesising and trimming again.
    ///
    /// # Panics
    /// Panics if `n` exceeds the number of scanned locations.
    pub fn with_scan_prefix(mut self, n: usize) -> Self {
        self.scan = self.scan.prefix(n);
        self.measurements.truncate(n);
        self
    }

    /// The ground-truth specimen the data was simulated from.
    pub fn specimen(&self) -> &Specimen {
        &self.specimen
    }

    /// The bound multi-slice model (probe + propagation) in `f64`: the
    /// model the measurements were synthesised with, and the oracle the
    /// working-precision model is tested against.
    pub fn model(&self) -> &MultisliceModel {
        &self.model
    }

    /// The same model in complex `f32`, its tables the `f64` ones rounded
    /// once: the working precision of every per-probe evaluation a solver
    /// runs.
    pub fn model_f32(&self) -> &MultisliceModel<f32> {
        &self.model_f32
    }

    /// The scan pattern.
    pub fn scan(&self) -> &ScanPattern {
        &self.scan
    }

    /// Measured amplitudes in acquisition order.
    pub fn measurements(&self) -> &[Array2<f64>] {
        &self.measurements
    }

    /// The measurement for one probe location.
    pub fn measurement(&self, location: &ProbeLocation) -> &Array2<f64> {
        &self.measurements[location.index]
    }

    /// Shape of the reconstruction volume `(slices, rows, cols)`.
    pub fn object_shape(&self) -> (usize, usize, usize) {
        self.specimen.transmission().shape()
    }

    /// The standard initial guess: unit transmission everywhere.
    pub fn initial_guess(&self) -> CArray3 {
        self.specimen.flat_like()
    }
}

/// Extracts the (slices, window, window) object patch covered by a probe
/// window; cells outside the object are vacuum (unit transmission).
pub fn extract_patch(object: &CArray3, window: &Rect) -> CArray3 {
    object.extract_region_with_fill(*window, Complex64::ONE)
}

/// Adds a patch-shaped gradient into a full-volume gradient accumulator at the
/// probe window position (the scatter step of Eqn. 2).
pub fn scatter_patch(accumulator: &mut CArray3, window: &Rect, patch: &CArray3) {
    accumulator.add_region(*window, patch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::probe_loss;

    /// The total Maximum-Likelihood cost `F(V)` of Eqn. (1) for a candidate
    /// reconstruction, summed over every probe location.
    fn total_cost(ds: &Dataset, object: &CArray3) -> f64 {
        ds.scan()
            .locations()
            .iter()
            .map(|loc| {
                let patch = extract_patch(object, &loc.window);
                probe_loss(ds.model(), &patch, ds.measurement(loc))
            })
            .sum()
    }

    #[test]
    fn table1_small_sizes() {
        let spec = DatasetSpec::lead_titanate_small();
        assert_eq!(spec.probe_locations, 4158);
        assert_eq!(spec.scan_grid.0 * spec.scan_grid.1, 4158);
        assert_eq!(spec.measurement_values(), 1024 * 1024 * 4158);
        assert_eq!(spec.voxel_count(), 1536 * 1536 * 100);
        assert_eq!(spec.voxel_size_pm, (10.0, 10.0, 125.0));
    }

    #[test]
    fn table1_large_sizes() {
        let spec = DatasetSpec::lead_titanate_large();
        assert_eq!(spec.probe_locations, 16632);
        assert_eq!(spec.scan_grid.0 * spec.scan_grid.1, 16632);
        assert_eq!(spec.measurement_values(), 1024 * 1024 * 16632);
        assert_eq!(spec.voxel_count(), 3072 * 3072 * 100);
        // The large dataset is 4x the small one both in probes and voxels.
        let small = DatasetSpec::lead_titanate_small();
        assert_eq!(spec.probe_locations, 4 * small.probe_locations);
        assert_eq!(spec.voxel_count(), 4 * small.voxel_count());
    }

    #[test]
    fn paper_datasets_have_high_overlap() {
        for spec in [
            DatasetSpec::lead_titanate_small(),
            DatasetSpec::lead_titanate_large(),
        ] {
            assert!(
                spec.overlap_ratio() > 0.7,
                "{} overlap ratio {} should exceed the 70% threshold",
                spec.name,
                spec.overlap_ratio()
            );
        }
    }

    #[test]
    fn paper_datasets_pin_the_86_87_percent_overlap() {
        // Regression test for the overlap-ratio audit: the paper quotes
        // 86-87% probe overlap for both Lead Titanate datasets, and Table I
        // renders the ratio as a whole percentage. Pin both the numeric range
        // and the rendered value so neither the scan-step derivation nor the
        // ratio formula can silently drift.
        for (spec, expected_percent) in [
            (DatasetSpec::lead_titanate_small(), "87"),
            (DatasetSpec::lead_titanate_large(), "86"),
        ] {
            let ratio = spec.overlap_ratio();
            assert!(
                (0.85..0.88).contains(&ratio),
                "{}: overlap ratio {ratio} outside the paper's 86-87% band",
                spec.name
            );
            let rendered = format!("{:.0}", ratio * 100.0);
            assert_eq!(
                rendered, expected_percent,
                "{}: Table I would render {rendered}%, paper says {expected_percent}%",
                spec.name
            );
        }
    }

    #[test]
    fn synthetic_dataset_shapes() {
        let ds = Dataset::synthesize(SyntheticConfig::tiny());
        assert_eq!(ds.scan().len(), 9);
        assert_eq!(ds.measurements().len(), 9);
        assert_eq!(ds.object_shape(), (2, 96, 96));
        for m in ds.measurements() {
            assert_eq!(m.shape(), (32, 32));
        }
    }

    #[test]
    fn ground_truth_has_zero_cost_noiseless() {
        let ds = Dataset::synthesize(SyntheticConfig::tiny());
        let truth = ds.specimen().transmission().clone();
        let cost = total_cost(&ds, &truth);
        assert!(cost < 1e-14, "got {cost}");
    }

    #[test]
    fn initial_guess_has_positive_cost() {
        let ds = Dataset::synthesize(SyntheticConfig::tiny());
        let flat = ds.initial_guess();
        assert!(total_cost(&ds, &flat) > 1e-6);
    }

    #[test]
    fn noise_increases_ground_truth_cost() {
        let mut config = SyntheticConfig::tiny();
        config.dose = Some(1000.0);
        let noisy = Dataset::synthesize(config);
        let truth = noisy.specimen().transmission().clone();
        let cost = total_cost(&noisy, &truth);
        assert!(
            cost > 1e-10,
            "noisy data should not fit exactly, got {cost}"
        );
    }

    #[test]
    fn extract_and_scatter_roundtrip() {
        let ds = Dataset::synthesize(SyntheticConfig::tiny());
        let loc = ds.scan().locations()[4];
        let truth = ds.specimen().transmission();
        let patch = extract_patch(truth, &loc.window);
        assert_eq!(patch.shape(), (2, 32, 32));

        let (d, r, c) = ds.object_shape();
        let mut acc = ptycho_array::Array3::full(d, r, c, Complex64::ZERO);
        scatter_patch(&mut acc, &loc.window, &patch);
        // The scattered energy equals the patch energy over the in-bounds part.
        let clipped = loc.window.intersect(&acc.plane_bounds());
        assert_eq!(clipped, loc.window, "tiny scan windows stay in bounds");
        let acc_energy: f64 = acc.iter().map(|v| v.norm_sqr()).sum();
        let patch_energy: f64 = patch.iter().map(|v| v.norm_sqr()).sum();
        assert!((acc_energy - patch_energy).abs() < 1e-9);
    }

    /// Over a sweep of small recipes the precondition refuses exactly those
    /// `synthesize` panics on. Window and object size are crossed in full;
    /// depth, scan grid and dose are crossed over window/object pairs on
    /// both sides of the window checks.
    #[test]
    fn the_precondition_refuses_exactly_what_synthesis_panics_on() {
        let base = SyntheticConfig {
            slices: 1,
            scan_grid: (1, 1),
            ..SyntheticConfig::tiny()
        };
        let mut recipes = Vec::new();
        for window_px in 0..=64 {
            for object_px in 0..=96 {
                recipes.push(SyntheticConfig {
                    window_px,
                    object_px,
                    ..base
                });
            }
        }
        let doses = [
            None,
            Some(f64::NAN),
            Some(-1.0),
            Some(0.0),
            Some(1e4),
            Some(f64::INFINITY),
        ];
        for (window_px, object_px) in [(4, 4), (8, 16), (4, 0), (6, 8), (16, 8)] {
            for slices in 0..=2 {
                for scan_grid in (0..=3).flat_map(|rows| (0..=3).map(move |cols| (rows, cols))) {
                    for dose in doses {
                        recipes.push(SyntheticConfig {
                            object_px,
                            slices,
                            scan_grid,
                            window_px,
                            dose,
                            ..base
                        });
                    }
                }
            }
        }
        for recipe in recipes {
            let panicked = std::panic::catch_unwind(|| Dataset::synthesize(recipe)).is_err();
            let refusal = recipe.refusal_reason();
            assert_eq!(refusal.is_some(), panicked, "{recipe:?}: {refusal:?}");
        }
    }

    #[test]
    fn the_size_bounds_refuse_overflowing_recipes() {
        let huge = |object_px, scan_grid| SyntheticConfig {
            object_px,
            scan_grid,
            ..SyntheticConfig::tiny()
        };
        let object = huge(1 << 40, (3, 3)).refusal_reason().expect("refused");
        assert!(object.contains("object exceeds isize::MAX"), "{object}");
        let scan = huge(96, (1 << 40, 1 << 20))
            .refusal_reason()
            .expect("refused");
        assert!(scan.contains("measurements"), "{scan}");
        assert_eq!(huge(96, (3, 3)).refusal_reason(), None);
    }

    #[test]
    fn measurements_are_deterministic() {
        let a = Dataset::synthesize(SyntheticConfig::tiny());
        let b = Dataset::synthesize(SyntheticConfig::tiny());
        for (x, y) in a.measurements().iter().zip(b.measurements()) {
            assert_eq!(x, y);
        }
    }
}
