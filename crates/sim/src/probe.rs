//! Electron probe formation.
//!
//! The probe `p_i` of Eqn. (1) models the focused (here: deliberately
//! defocused) electron beam incident on the sample. It is formed in the back
//! focal plane as a hard circular aperture of semi-angle `α` with a defocus
//! aberration phase, then transformed to real space. The defocus spreads the
//! probe into the large overlapping circles of Fig. 1(b); the probe-location
//! circle radius is what determines the tile halo width in `ptycho-core`.

use crate::physics::ImagingGeometry;
use ptycho_array::Array2;
use ptycho_fft::fft2d::{fftshift, Fft2Plan};
use ptycho_fft::{CArray2, Complex64};
use std::f64::consts::PI;

/// Configuration for probe formation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeConfig {
    /// Side length of the (square) probe window in pixels. Must be a power of
    /// two because the forward model transforms it with the radix-2 FFT.
    pub window_px: usize,
    /// Imaging geometry (energy, sampling, aperture, defocus).
    pub geometry: ImagingGeometry,
    /// Total beam current expressed as the sum of squared probe amplitudes.
    /// Normalising to a fixed dose makes losses comparable across window sizes.
    pub total_intensity: f64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self {
            window_px: 64,
            geometry: ImagingGeometry::paper(),
            total_intensity: 1.0,
        }
    }
}

impl ProbeConfig {
    /// A small laptop-scale probe window with otherwise paper-like optics.
    pub fn small(window_px: usize) -> Self {
        Self {
            window_px,
            ..Self::default()
        }
    }
}

/// A complex probe wavefunction sampled on a square window, plus the metadata
/// the decomposition logic needs (its effective radius in pixels).
#[derive(Clone, Debug)]
pub struct Probe {
    field: CArray2,
    config: ProbeConfig,
    radius_px: f64,
}

impl Probe {
    /// Forms a probe from the given configuration.
    ///
    /// The probe is built as `IFFT( A(k) · e^{-i·χ(k)} )` where `A` is a hard
    /// circular aperture at the configured semi-angle and
    /// `χ(k) = π·λ·Δf·|k|²` is the defocus aberration.
    ///
    /// # Panics
    /// Panics if `window_px` is not a power of two.
    pub fn new(config: ProbeConfig) -> Self {
        let n = config.window_px;
        assert!(
            n.is_power_of_two() && n >= 4,
            "probe window must be a power of two >= 4, got {n}"
        );
        let geom = &config.geometry;
        let lambda = geom.wavelength_pm();
        let dx = geom.pixel_size_pm;

        // Aperture cutoff in cycles / pm and the frequency step of the window.
        let k_max = geom.aperture_cutoff_per_pm();
        let dk = 1.0 / (n as f64 * dx);

        // Build the aperture * aberration phase in unshifted FFT layout.
        let mut pupil = Array2::full(n, n, Complex64::ZERO);
        for r in 0..n {
            for c in 0..n {
                // Signed frequency indices in FFT order.
                let fr = if r <= n / 2 {
                    r as f64
                } else {
                    r as f64 - n as f64
                };
                let fc = if c <= n / 2 {
                    c as f64
                } else {
                    c as f64 - n as f64
                };
                let kr = fr * dk;
                let kc = fc * dk;
                let k2 = kr * kr + kc * kc;
                if k2.sqrt() <= k_max {
                    // Defocus aberration phase χ(k) = π λ Δf k².
                    let chi = PI * lambda * geom.defocus_pm * k2;
                    pupil[(r, c)] = Complex64::cis(-chi);
                }
            }
        }

        let plan = Fft2Plan::new(n, n);
        let mut field = plan.inverse(&pupil);
        // Centre the probe in the window for intuitive placement.
        field = fftshift(&field);

        // Normalise to the requested total intensity.
        let total: f64 = field.as_slice().iter().map(|v| v.norm_sqr()).sum();
        if total > 0.0 {
            let scale = (config.total_intensity / total).sqrt();
            field.map_inplace(|v| *v = v.scale(scale));
        }

        // Effective radius: radius containing 90% of the intensity, measured
        // from the window centre. This is the "probe location circle" radius
        // used to size tile halos.
        let radius_px = Self::effective_radius(&field);

        Self {
            field,
            config,
            radius_px,
        }
    }

    fn effective_radius(field: &CArray2) -> f64 {
        let n = field.rows();
        let centre = (n as f64 - 1.0) / 2.0;
        let mut by_radius: Vec<(f64, f64)> = field
            .indexed_iter()
            .map(|(r, c, v)| {
                let dr = r as f64 - centre;
                let dc = c as f64 - centre;
                ((dr * dr + dc * dc).sqrt(), v.norm_sqr())
            })
            .collect();
        by_radius.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let total: f64 = by_radius.iter().map(|&(_, i)| i).sum();
        if total == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (radius, intensity) in by_radius {
            acc += intensity;
            if acc >= 0.9 * total {
                return radius;
            }
        }
        n as f64 / 2.0
    }

    /// The complex probe wavefunction.
    pub fn field(&self) -> &CArray2 {
        &self.field
    }

    /// Side length of the probe window in pixels.
    pub fn window_px(&self) -> usize {
        self.config.window_px
    }

    /// The configuration the probe was formed from.
    pub fn config(&self) -> &ProbeConfig {
        &self.config
    }

    /// Radius (in pixels) of the circle containing 90% of the probe intensity —
    /// the "probe location circle" of Fig. 1(b).
    pub fn radius_px(&self) -> f64 {
        self.radius_px
    }

    /// Total probe intensity (should equal the configured dose).
    pub fn total_intensity(&self) -> f64 {
        self.field.as_slice().iter().map(|v| v.norm_sqr()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_probe() -> Probe {
        Probe::new(ProbeConfig {
            window_px: 32,
            geometry: ImagingGeometry {
                // Scale the optics so the probe fits comfortably in a 32 px
                // window: bigger pixels, smaller defocus.
                pixel_size_pm: 50.0,
                defocus_pm: 10_000.0,
                ..ImagingGeometry::paper()
            },
            total_intensity: 1.0,
        })
    }

    #[test]
    fn probe_is_normalised() {
        let p = small_probe();
        assert!((p.total_intensity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probe_energy_is_centred() {
        let p = small_probe();
        let n = p.window_px();
        let field = p.field();
        // Intensity-weighted centroid should be near the window centre.
        let mut sr = 0.0;
        let mut sc = 0.0;
        let mut total = 0.0;
        for (r, c, v) in field.indexed_iter() {
            let w = v.norm_sqr();
            sr += r as f64 * w;
            sc += c as f64 * w;
            total += w;
        }
        let centre = (n as f64 - 1.0) / 2.0;
        assert!((sr / total - centre).abs() < 1.5);
        assert!((sc / total - centre).abs() < 1.5);
    }

    #[test]
    fn radius_positive_and_within_window() {
        let p = small_probe();
        assert!(p.radius_px() > 1.0);
        assert!(p.radius_px() <= p.window_px() as f64 / 2.0 * std::f64::consts::SQRT_2);
    }

    #[test]
    fn larger_defocus_gives_larger_probe() {
        let geometry = ImagingGeometry {
            pixel_size_pm: 50.0,
            ..ImagingGeometry::paper()
        };
        let small = Probe::new(ProbeConfig {
            window_px: 64,
            geometry: ImagingGeometry {
                defocus_pm: 5_000.0,
                ..geometry
            },
            total_intensity: 1.0,
        });
        let large = Probe::new(ProbeConfig {
            window_px: 64,
            geometry: ImagingGeometry {
                defocus_pm: 20_000.0,
                ..geometry
            },
            total_intensity: 1.0,
        });
        assert!(large.radius_px() > small.radius_px());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_window_panics() {
        let _ = Probe::new(ProbeConfig {
            window_px: 48,
            ..ProbeConfig::default()
        });
    }

    #[test]
    fn dose_scaling() {
        let mut config = small_probe().config;
        config.total_intensity = 4.0;
        let p = Probe::new(config);
        assert!((p.total_intensity() - 4.0).abs() < 1e-9);
    }
}
