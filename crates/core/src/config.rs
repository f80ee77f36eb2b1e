//! Solver configuration shared by both decomposition methods.

/// How often the accumulated-gradient buffers are synchronised between tiles
/// (the parameter `T` of Algorithm 1, expressed in the units the paper uses in
/// Fig. 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassFrequency {
    /// Perform the directional passes after every probe location
    /// (`T = 1`; the yellow curve of Fig. 9).
    EveryProbe,
    /// Perform the passes a fixed number of times per iteration (per full
    /// cycle through the probe locations). `PerIteration(1)` is the paper's
    /// default; `PerIteration(2)` is the red curve of Fig. 9.
    PerIteration(usize),
}

/// Configuration for the parallel reconstruction solvers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolverConfig {
    /// Number of reconstruction iterations (full cycles through all probe
    /// locations). The paper reports runtimes for a fixed 100 iterations.
    pub iterations: usize,
    /// Relaxation factor multiplying the automatically scaled gradient step
    /// (`α` in Algorithm 1); values in `(0, 1]` are safe.
    pub step_relaxation: f64,
    /// Halo width in pixels added around each tile (the paper uses 600 pm ≈ 60
    /// voxels for Gradient Decomposition and 890 pm for Halo Voxel Exchange).
    pub halo_px: usize,
    /// How often gradients are exchanged between tiles.
    pub pass_frequency: PassFrequency,
    /// Whether each probe's gradient is also applied locally as soon as it is
    /// computed (step 8 of Algorithm 1). When `false` the tile is only updated
    /// from the fully accumulated buffer at synchronisation points, which makes
    /// the parallel method exactly equivalent to serial full-gradient descent
    /// and is used by the equivalence tests.
    pub local_updates: bool,
    /// Number of extra probe-location rows assigned to every tile by the Halo
    /// Voxel Exchange baseline (the paper uses 2).
    pub hve_extra_probe_rows: usize,
    /// How many embarrassingly-parallel iterations the Halo Voxel Exchange
    /// baseline performs between voxel copy-paste exchanges (Sec. II-C
    /// describes independent tile reconstruction followed by exchange,
    /// repeated). `1` exchanges after every iteration.
    pub hve_exchange_period: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            iterations: 10,
            step_relaxation: 0.5,
            halo_px: 24,
            pass_frequency: PassFrequency::PerIteration(1),
            local_updates: true,
            hve_extra_probe_rows: 2,
            hve_exchange_period: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_reasonable() {
        let config = SolverConfig::default();
        assert!(config.step_relaxation > 0.0 && config.step_relaxation <= 1.0);
        assert!(config.halo_px > 0);
        assert!(config.local_updates);
    }
}
