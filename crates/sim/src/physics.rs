//! Electron-optics constants and unit helpers.
//!
//! The paper's datasets are acquired (in simulation) at 200 keV with a 30 mrad
//! probe-forming aperture, 25 nm defocus, 10 pm lateral voxel size and 125 pm
//! slice thickness. This module converts those experimental knobs into the
//! dimensionless quantities the wave-optics code needs (wavelength in
//! picometres, spatial-frequency cutoffs in cycles per pixel).

/// Planck constant times speed of light, in eV·pm (h·c ≈ 1.2398 MeV·pm).
const HC_EV_PM: f64 = 1.239_841_984e6;

/// Electron rest energy in eV.
const ELECTRON_REST_ENERGY_EV: f64 = 510_998.95;

/// Relativistically corrected electron wavelength in picometres for an
/// accelerating voltage given in electron-volts.
///
/// `λ = hc / sqrt(E·(E + 2·m0c²))` with `E` the kinetic energy.
///
/// At 200 keV this evaluates to ≈ 2.508 pm, the value used for the paper's
/// datasets.
pub fn electron_wavelength_pm(energy_ev: f64) -> f64 {
    assert!(energy_ev > 0.0, "electron energy must be positive");
    HC_EV_PM / (energy_ev * (energy_ev + 2.0 * ELECTRON_REST_ENERGY_EV)).sqrt()
}

/// The interaction parameter σ (radians per volt per picometre of thickness),
/// used to turn a projected electrostatic potential into a phase shift.
///
/// `σ = 2π m e λ / h²` with the relativistic mass; expressed here through the
/// wavelength and energies to avoid raw SI constants.
pub fn interaction_parameter(energy_ev: f64) -> f64 {
    let lambda = electron_wavelength_pm(energy_ev);
    let gamma = 1.0 + energy_ev / ELECTRON_REST_ENERGY_EV;
    // 2π / (λ·E_total) · (γ / (1 + γ)) has the right limiting behaviour; the
    // absolute scale only matters relative to the synthetic potential strength.
    2.0 * std::f64::consts::PI * gamma / (lambda * energy_ev * (1.0 + gamma))
}

/// Geometry of the imaging experiment, tying physical units to pixels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImagingGeometry {
    /// Accelerating voltage in electron-volts (the paper: 200 keV).
    pub energy_ev: f64,
    /// Lateral sampling of the reconstruction in picometres per pixel
    /// (the paper: 10 pm).
    pub pixel_size_pm: f64,
    /// Slice thickness along the beam in picometres (the paper: 125 pm).
    pub slice_thickness_pm: f64,
    /// Probe-forming aperture semi-angle in milliradians (the paper: 30 mrad).
    pub aperture_mrad: f64,
    /// Probe defocus in picometres (the paper: 25 nm = 25000 pm).
    pub defocus_pm: f64,
}

impl Default for ImagingGeometry {
    fn default() -> Self {
        Self::paper()
    }
}

impl ImagingGeometry {
    /// The geometry used for both Lead Titanate datasets in the paper.
    pub fn paper() -> Self {
        Self {
            energy_ev: 200_000.0,
            pixel_size_pm: 10.0,
            slice_thickness_pm: 125.0,
            aperture_mrad: 30.0,
            defocus_pm: 25_000.0,
        }
    }

    /// Electron wavelength in picometres.
    pub fn wavelength_pm(&self) -> f64 {
        electron_wavelength_pm(self.energy_ev)
    }

    /// The aperture cutoff expressed as a spatial frequency in cycles per
    /// picometre: `k_max = α / λ`.
    pub fn aperture_cutoff_per_pm(&self) -> f64 {
        (self.aperture_mrad * 1e-3) / self.wavelength_pm()
    }

    /// Physical radius of the geometric probe-location circle in picometres:
    /// the defocused probe spreads to roughly `defocus · α`.
    pub fn probe_radius_pm(&self) -> f64 {
        self.defocus_pm * self.aperture_mrad * 1e-3
    }

    /// The same probe radius in reconstruction pixels.
    pub fn probe_radius_px(&self) -> f64 {
        self.probe_radius_pm() / self.pixel_size_pm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_200kev_matches_textbook_value() {
        // 2.5079 pm is the standard relativistic value for 200 kV.
        let lambda = electron_wavelength_pm(200_000.0);
        assert!((lambda - 2.508).abs() < 0.01, "got {lambda}");
    }

    #[test]
    fn wavelength_decreases_with_energy() {
        assert!(electron_wavelength_pm(300_000.0) < electron_wavelength_pm(200_000.0));
        assert!(electron_wavelength_pm(200_000.0) < electron_wavelength_pm(80_000.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_energy_panics() {
        let _ = electron_wavelength_pm(0.0);
    }

    #[test]
    fn interaction_parameter_positive_and_decreasing() {
        let s200 = interaction_parameter(200_000.0);
        let s300 = interaction_parameter(300_000.0);
        assert!(s200 > 0.0);
        assert!(s300 < s200, "higher energy interacts more weakly");
    }

    #[test]
    fn paper_geometry_probe_radius() {
        let g = ImagingGeometry::paper();
        // 25 nm defocus x 30 mrad = 750 pm radius = 75 px at 10 pm/px.
        assert!((g.probe_radius_pm() - 750.0).abs() < 1e-9);
        assert!((g.probe_radius_px() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn aperture_cutoff_resolvable_at_paper_sampling() {
        let g = ImagingGeometry::paper();
        // Cutoff in cycles per pixel over the grid's Nyquist frequency (0.5).
        let fraction = g.aperture_cutoff_per_pm() * g.pixel_size_pm / 0.5;
        assert!(fraction > 0.0 && fraction < 1.0, "got {fraction}");
    }
}
