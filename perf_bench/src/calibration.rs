//! Calibration against the speed of the box, and pinning to one CPU.
//!
//! The benchmark runs on a few virtual CPUs of a shared host whose speed
//! moves by tens of percent for tens of seconds at a time, so a wall-clock
//! time says as much about the neighbours as about the program. Two things
//! take the host out of the end-to-end times:
//!
//! * [`pin_to_one_cpu`] keeps every thread of the process on one CPU. The
//!   lockstep backend lets one rank run at a time anyway; on one CPU a baton
//!   hand-over is a context switch instead of a wake-up of an idle virtual
//!   CPU, whose latency is the host scheduler's, not the program's.
//! * A [`Calibrator`] times a fixed reference kernel in short slices between
//!   the timed units of work (iterations, jobs, bursts, set-ups). Each timed
//!   unit is divided by the reference time measured right around it and
//!   multiplied by [`NOMINAL_UNIT_S`]: seconds on a box on which the
//!   reference unit takes exactly its nominal time. A slow minute stretches
//!   the work and the reference alike and cancels.
//!
//! The reference kernel is this file's own code and never changes with the
//! library, so calibrated times of two commits compare like wall times do.

use std::time::Instant;

/// What one reference unit takes on the box the benchmark was written on
/// (pinned, caches cold after a stretch of real work). Calibrated seconds are
/// wall seconds x `NOMINAL_UNIT_S` / (reference unit time measured nearby).
pub const NOMINAL_UNIT_S: f64 = 0.00062;
/// Reference units per slice.
const UNITS_PER_SLICE: usize = 8;
/// `slice_if_due` takes a slice when the last one ended this long ago.
const SLICE_EVERY_S: f64 = 0.04;
/// A timed interval is calibrated with the slices up to this long before and
/// after it: one slice is 8 units and catches every hiccup of the host; the
/// speed of the box moves over seconds.
const SMOOTH_S: f64 = 0.25;
/// Complex values the reference kernel rotates (512 KiB: past L1, inside L2).
const REFERENCE_VALUES: usize = 32 * 1024;
/// Sweeps over the buffer per unit.
const SWEEPS_PER_UNIT: usize = 40;

/// One slice of reference work: when it ran and what a unit took in it.
#[derive(Clone, Copy, Debug)]
struct Slice {
    start_s: f64,
    end_s: f64,
    unit_s: f64,
}

pub struct Calibrator {
    origin: Instant,
    re: Vec<f64>,
    im: Vec<f64>,
    slices: Vec<Slice>,
}

impl Calibrator {
    /// Starts the clock every time handed to [`Calibrator::factor`] is on,
    /// and takes the first slice.
    pub fn new() -> Self {
        let mut calibrator = Self {
            origin: Instant::now(),
            re: vec![0.5; REFERENCE_VALUES],
            im: vec![0.25; REFERENCE_VALUES],
            slices: Vec::new(),
        };
        calibrator.slice();
        calibrator
    }

    /// Seconds since the calibrator was made.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn seconds_at(&self, instant: Instant) -> f64 {
        instant.duration_since(self.origin).as_secs_f64()
    }

    /// A rotation of every value by a fixed angle, `SWEEPS_PER_UNIT` times:
    /// multiply-adds streaming through a buffer, like the transforms and
    /// tile updates the solvers spend their time in.
    fn unit(&mut self) {
        for _ in 0..SWEEPS_PER_UNIT {
            for (re, im) in self.re.iter_mut().zip(self.im.iter_mut()) {
                let (a, b) = (*re, *im);
                *re = a * 0.6 - b * 0.8;
                *im = a * 0.8 + b * 0.6;
            }
        }
        std::hint::black_box(&mut self.re);
    }

    /// Runs one slice of reference work now.
    pub fn slice(&mut self) {
        let start_s = self.now_s();
        for _ in 0..UNITS_PER_SLICE {
            self.unit();
        }
        let end_s = self.now_s();
        self.slices.push(Slice {
            start_s,
            end_s,
            unit_s: (end_s - start_s) / UNITS_PER_SLICE as f64,
        });
    }

    /// Runs a slice unless one ended less than [`SLICE_EVERY_S`] ago, so a
    /// stream of millisecond jobs is not mostly reference work.
    pub fn slice_if_due(&mut self) {
        let last_end = self.slices.last().map_or(f64::NEG_INFINITY, |s| s.end_s);
        if self.now_s() - last_end >= SLICE_EVERY_S {
            self.slice();
        }
    }

    /// What to multiply a wall time measured over `[start_s, end_s]` by:
    /// [`NOMINAL_UNIT_S`] over the mean reference unit time of the slices
    /// that began inside the interval or within [`SMOOTH_S`] of it, the last
    /// one before those and the first one after.
    pub fn factor(&self, start_s: f64, end_s: f64) -> f64 {
        let first_near = self
            .slices
            .partition_point(|s| s.start_s < start_s - SMOOTH_S);
        let first_far = self
            .slices
            .partition_point(|s| s.start_s < end_s + SMOOTH_S);
        let from = first_near.saturating_sub(1);
        let to = (first_far + 1).min(self.slices.len());
        let around = &self.slices[from..to];
        let mean = around.iter().map(|s| s.unit_s).sum::<f64>() / around.len() as f64;
        NOMINAL_UNIT_S / mean
    }

    /// Median reference unit time over the whole run.
    pub fn median_unit_s(&self) -> f64 {
        let units: Vec<f64> = self.slices.iter().map(|s| s.unit_s).collect();
        crate::stats::median(&units)
    }

    pub fn slices(&self) -> usize {
        self.slices.len()
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    // The C library std already links; no crate is needed for two calls.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed.
        let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (status == 0).then_some(set)
    }

    /// Restricts the calling thread (and every thread it spawns later).
    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

/// The CPUs the process was allowed on before [`pin_to_one_cpu`].
#[cfg(target_os = "linux")]
static ALLOWED: std::sync::OnceLock<affinity::CpuSet> = std::sync::OnceLock::new();

/// Pins the calling thread, and with it every thread spawned afterwards, to
/// the highest-numbered CPU it is allowed on (the lowest-numbered one serves
/// most interrupts). Returns that CPU, or why the process stays unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let allowed = affinity::get().ok_or("sched_getaffinity failed")?;
    let cpu = (0..1024)
        .rev()
        .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("no CPU allowed")?;
    let mut one: affinity::CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    if affinity::set(&one) {
        ALLOWED.get_or_init(|| allowed);
        Ok(cpu)
    } else {
        Err("sched_setaffinity failed".to_string())
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("pinning is implemented for Linux only".to_string())
}

/// Runs `work` with the calling thread (and the threads it spawns meanwhile)
/// back on every CPU [`pin_to_one_cpu`] found allowed, for the measurements
/// that need real parallelism, and restores the pin afterwards.
#[cfg(target_os = "linux")]
pub fn unpinned<T>(work: impl FnOnce() -> T) -> T {
    let (Some(allowed), Some(pinned)) = (ALLOWED.get(), affinity::get()) else {
        return work();
    };
    affinity::set(allowed);
    let out = work();
    affinity::set(&pinned);
    out
}

#[cfg(not(target_os = "linux"))]
pub fn unpinned<T>(work: impl FnOnce() -> T) -> T {
    work()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_uses_the_slices_around_and_inside_the_interval() {
        let mut c = Calibrator::new();
        let slice = |start_s: f64, unit_s: f64| Slice {
            start_s,
            end_s: start_s + 0.5,
            unit_s,
        };
        c.slices = vec![
            slice(0.0, 1.0),
            slice(10.0, 2.0),
            slice(20.0, 4.0),
            slice(30.0, 8.0),
        ];
        // Nothing inside or near: the neighbours on either side.
        assert_eq!(c.factor(11.0, 19.0), NOMINAL_UNIT_S / 3.0);
        // Two inside, plus the neighbours.
        assert_eq!(c.factor(5.0, 25.0), NOMINAL_UNIT_S / (15.0 / 4.0));
        // Near counts as inside: 20.0 is within SMOOTH_S of the end.
        assert_eq!(c.factor(11.0, 19.9), NOMINAL_UNIT_S / (14.0 / 3.0));
        // Past the last slice: only the one before.
        assert_eq!(c.factor(31.0, 32.0), NOMINAL_UNIT_S / 8.0);
    }
}
