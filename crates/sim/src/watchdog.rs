//! Sim-time progress watchdog.
//!
//! A discrete-event simulation has two failure shapes: the event queue
//! runs dry with work outstanding (caught by the engine's deadlock panic),
//! and a *live-lock* — events keep flowing (timers rescheduling, pollers
//! polling) but no operation ever completes, so the sim spins forever
//! looking perfectly healthy. [`Watchdog`] catches the second shape: the
//! driver notes progress whenever an op completes, and the engine checks
//! the elapsed sim-time since the last note against a budget. When the
//! budget is exceeded the caller assembles a diagnostic (oldest pending
//! op, queue depths, per-component last-activity from the tracer) and
//! panics loudly instead of spinning silently.
//!
//! The watchdog measures *simulated* time, so it is deterministic: the
//! same run either always fires or never fires, independent of host
//! speed. Budgets are generous by design — a watchdog that fires on a
//! legitimate GC storm is worse than none — and configurable per driver.

use crate::time::{SimDuration, SimTime};

/// A sim-time progress monitor. See the module docs.
#[derive(Debug, Clone)]
pub struct Watchdog {
    budget: SimDuration,
    last_progress: SimTime,
    enabled: bool,
}

impl Watchdog {
    /// A watchdog that fires when `budget` of sim-time passes without
    /// [`Watchdog::note_progress`]. The progress clock starts at epoch;
    /// call [`Watchdog::arm_at`] when the measured run actually begins.
    pub fn new(budget: SimDuration) -> Self {
        Watchdog {
            budget,
            last_progress: SimTime::ZERO,
            enabled: true,
        }
    }

    /// A watchdog that never fires.
    pub fn disarmed() -> Self {
        Watchdog {
            budget: SimDuration::ZERO,
            last_progress: SimTime::ZERO,
            enabled: false,
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> SimDuration {
        self.budget
    }

    /// (Re)starts the progress clock at `now` without counting progress —
    /// used when a run begins at a nonzero sim time.
    pub fn arm_at(&mut self, now: SimTime) {
        self.last_progress = now;
    }

    /// Records that forward progress happened at `now`.
    #[inline]
    pub fn note_progress(&mut self, now: SimTime) {
        self.last_progress = self.last_progress.max(now);
    }

    /// Sim time since the last noted progress.
    pub fn stalled_for(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.last_progress)
    }

    /// Whether the budget is exhausted at `now`. `>` not `>=`: a run
    /// whose ops complete exactly one budget apart is slow, not stuck.
    #[inline]
    pub fn is_stalled(&self, now: SimTime) -> bool {
        self.enabled && self.stalled_for(now) > self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn fires_only_after_budget_without_progress() {
        let mut wd = Watchdog::new(SimDuration::from_micros(100));
        assert!(!wd.is_stalled(t(100)), "exactly at budget is not stalled");
        assert!(wd.is_stalled(t(101)));
        wd.note_progress(t(90));
        assert!(!wd.is_stalled(t(190)));
        assert!(wd.is_stalled(t(191)));
        assert_eq!(wd.stalled_for(t(190)), SimDuration::from_micros(100));
    }

    #[test]
    fn progress_never_moves_backwards() {
        let mut wd = Watchdog::new(SimDuration::from_micros(10));
        wd.note_progress(t(50));
        wd.note_progress(t(20)); // out-of-order note must not rewind
        assert!(!wd.is_stalled(t(60)));
        assert!(wd.is_stalled(t(61)));
    }

    #[test]
    fn arm_at_restarts_the_clock() {
        let mut wd = Watchdog::new(SimDuration::from_micros(10));
        wd.arm_at(t(1000));
        assert!(!wd.is_stalled(t(1010)));
        assert!(wd.is_stalled(t(1011)));
    }

    #[test]
    fn disarmed_never_fires() {
        let wd = Watchdog::disarmed();
        assert!(!wd.is_stalled(t(u64::MAX / 2_000_000)));
    }
}
