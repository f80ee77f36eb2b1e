//! The per-rank simulated clock and the runtime breakdown read from it.
//!
//! Fig. 7b of the paper breaks reconstruction runtime into *computation*,
//! *GPU waiting* and *communication* time. Each rank keeps one
//! [`RankClock`] in integer nanoseconds of the modelled machine, and only the
//! model moves it:
//!
//! * **compute** — each probe gradient charges the Summit model's per-probe
//!   time ([`HardwareModel::probe_gradient_time`]);
//! * **send** — the sender charges the message's analytic wire time
//!   ([`ClusterTopology::transfer_time`]), and the message carries the
//!   sender's clock after that charge: its arrival time;
//! * **receive** — the clock moves to `max(own, arrival)`, and the gap is
//!   booked as wait;
//! * **barrier** — every rank moves to the latest arrival, each booking its
//!   own gap as wait.
//!
//! This is Lamport's logical clock (CACM 1978) with the LogGP-shaped message
//! cost of `transfer_time` (Alexandrov et al., SPAA 1995). A rank's clock is
//! a function of its program order and of the arrival times it receives, so
//! every reading of it — [`TimeBreakdown`], the telemetry stamps — is the
//! same on every backend and on every run. No wall time enters it.
//!
//! [`HardwareModel::probe_gradient_time`]: crate::HardwareModel::probe_gradient_time
//! [`ClusterTopology::transfer_time`]: crate::ClusterTopology::transfer_time

/// A breakdown of where a rank's time went, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Time spent in gradient / update computation.
    pub compute: f64,
    /// Time spent blocked waiting for peers (load imbalance).
    pub wait: f64,
    /// Time charged for moving bytes between ranks.
    pub communication: f64,
}

impl TimeBreakdown {
    /// Total of all categories.
    pub fn total(&self) -> f64 {
        self.compute + self.wait + self.communication
    }
}

/// One rank's simulated clock: the time it has spent computing,
/// communicating and waiting, in integer nanoseconds. Its reading,
/// [`Self::now`], is their sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankClock {
    compute_ns: u64,
    comm_ns: u64,
    wait_ns: u64,
}

impl RankClock {
    /// The rank's simulated time.
    pub fn now(&self) -> u64 {
        self.compute_ns + self.comm_ns + self.wait_ns
    }

    /// Modelled compute booked so far.
    pub fn compute_ns(&self) -> u64 {
        self.compute_ns
    }

    /// Analytic communication booked so far.
    pub fn comm_ns(&self) -> u64 {
        self.comm_ns
    }

    /// Charges `ns` of modelled compute.
    pub fn compute(&mut self, ns: u64) {
        self.compute_ns += ns;
    }

    /// Charges a message's analytic wire time, `seconds`, and returns the
    /// clock after it: the message's arrival time.
    pub(crate) fn send(&mut self, seconds: f64) -> u64 {
        self.comm_ns += (seconds * 1e9) as u64;
        self.now()
    }

    /// Moves the clock to `at` if that is later, booking the gap as wait: a
    /// receive of a message arriving at `at`, or a barrier whose latest
    /// arrival is `at`.
    pub(crate) fn wait_until(&mut self, at: u64) {
        self.wait_ns += at.saturating_sub(self.now());
    }

    /// The breakdown in seconds.
    pub fn breakdown(&self) -> TimeBreakdown {
        let seconds = |ns: u64| ns as f64 / 1e9;
        TimeBreakdown {
            compute: seconds(self.compute_ns),
            wait: seconds(self.wait_ns),
            communication: seconds(self.comm_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_receive_books_the_gap_to_its_arrival_as_wait() {
        let mut sender = RankClock::default();
        sender.compute(1_000);
        let arrival = sender.send(250e-9);
        assert_eq!(
            arrival, 1_250,
            "a message arrives at the sender's clock after its wire time"
        );

        let mut receiver = RankClock::default();
        receiver.compute(400);
        receiver.wait_until(arrival);
        assert_eq!(receiver.now(), 1_250);
        assert_eq!(receiver.wait_ns, 850);

        // A message that arrived while the receiver was busy costs no wait.
        receiver.compute(1_000);
        receiver.wait_until(arrival);
        assert_eq!((receiver.now(), receiver.wait_ns), (2_250, 850));
    }

    #[test]
    fn a_barrier_moves_every_rank_to_the_latest_arrival() {
        let mut clocks = [300, 1_200, 700].map(|ns| {
            let mut clock = RankClock::default();
            clock.compute(ns);
            clock
        });
        let latest = clocks.iter().map(RankClock::now).max().unwrap();
        for clock in &mut clocks {
            clock.wait_until(latest);
        }
        assert!(clocks.iter().all(|clock| clock.now() == 1_200));
        let waits = clocks.map(|clock| clock.wait_ns);
        assert_eq!(waits, [900, 0, 500]);
    }

    #[test]
    fn charges_accumulate() {
        let mut clock = RankClock::default();
        clock.send(1.5);
        clock.send(0.5);
        clock.compute(250_000_000);
        let b = clock.breakdown();
        assert_eq!(b.communication, 2.0);
        assert_eq!(b.compute, 0.25);
        assert_eq!(b.wait, 0.0);
        assert_eq!(b.total(), 2.25);
        assert_eq!(clock.now(), 2_250_000_000);
    }
}
