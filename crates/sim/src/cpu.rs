//! The processor cost model.
//!
//! BABOL moves the controller's scheduling logic from hardware into software,
//! so the speed of the processor running that software determines whether the
//! channel is fed promptly (the paper's Figure 10 sweeps CPU frequency from a
//! 150 MHz MicroBlaze soft-core to a 1 GHz ARM Cortex-A9). This module models
//! the processor as a single serial resource: every software action charges a
//! cycle budget, the budget is converted to simulated time at the configured
//! frequency, and actions queue behind each other.
//!
//! The per-action cycle budgets live in [`CostModel`]. Two calibrated models
//! ship with the reproduction, matching the paper's two software
//! environments:
//!
//! * [`CostModel::coroutine`] — the C++20-coroutine runtime. Programmer
//!   friendly but heavy: the paper's Section VI-B measures ~30 µs per
//!   poll cycle at 1 GHz, i.e. ~30k cycles spent on resume/suspend, the
//!   scheduler pass and transaction management.
//! * [`CostModel::rtos`] — the FreeRTOS runtime. Lean context switches, at
//!   the price of a harder programming model.

use std::fmt;

use crate::time::{Freq, SimTime};

/// Cycle budgets for each software action the controller performs.
///
/// These are the calibration constants of the reproduction; see
/// `EXPERIMENTS.md` for how they were fit to the paper's measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Resuming a suspended operation (coroutine resume / RTOS task switch
    /// in).
    pub resume: u64,
    /// Suspending the running operation at an await/yield point.
    pub suspend: u64,
    /// One pass of the task scheduler choosing the next operation to run.
    pub task_sched_pass: u64,
    /// One pass of the transaction scheduler choosing the next transaction
    /// for the channel.
    pub txn_sched_pass: u64,
    /// Building a transaction descriptor and enqueuing it.
    pub enqueue_txn: u64,
    /// Handling a hardware completion notification (interrupt service or
    /// queue poll).
    pub completion_irq: u64,
    /// Straight-line work inside operation bodies per step (argument
    /// marshalling, status decoding, branch logic).
    pub op_body_step: u64,
}

impl CostModel {
    /// Cost model for the C++20-coroutine software environment.
    ///
    /// The heavy C++ runtime costs a few thousand cycles per action. The
    /// ~30 µs polling period the paper measures at 1 GHz (Fig. 11) is the
    /// *sum* of these action costs and the runtime's poll-pacing interval
    /// (`poll_backoff` in the BABOL runtime configuration): a busy-looping
    /// coroutine is rescheduled on the runtime's timer quantum rather than
    /// hot-spinning the channel.
    pub const fn coroutine() -> Self {
        CostModel {
            resume: 1_500,
            suspend: 1_100,
            task_sched_pass: 900,
            txn_sched_pass: 600,
            enqueue_txn: 800,
            completion_irq: 700,
            op_body_step: 250,
        }
    }

    /// Cost model for the FreeRTOS software environment.
    ///
    /// Roughly an order of magnitude leaner than the coroutine runtime —
    /// the paper's Fig. 11 shows FreeRTOS polling many times within the
    /// window a single coroutine poll needs.
    pub const fn rtos() -> Self {
        CostModel {
            resume: 250,
            suspend: 200,
            task_sched_pass: 180,
            txn_sched_pass: 120,
            enqueue_txn: 150,
            completion_irq: 140,
            op_body_step: 60,
        }
    }

    /// A zero-cost model, used for the hardware-baseline controllers whose
    /// scheduling logic runs in dedicated FPGA area rather than on the CPU.
    pub const fn free() -> Self {
        CostModel {
            resume: 0,
            suspend: 0,
            task_sched_pass: 0,
            txn_sched_pass: 0,
            enqueue_txn: 0,
            completion_irq: 0,
            op_body_step: 0,
        }
    }

    /// Total cycles of one poll-loop iteration under this model (used by the
    /// ablation benches and tests).
    pub const fn poll_cycle(&self) -> u64 {
        self.resume
            + self.op_body_step
            + self.enqueue_txn
            + self.suspend
            + self.completion_irq
            + self.task_sched_pass
            + self.txn_sched_pass
    }

    /// Returns a copy of this model with every budget scaled by
    /// `numer / denom` (used by the context-switch-cost ablation).
    pub const fn scaled(&self, numer: u64, denom: u64) -> Self {
        CostModel {
            resume: self.resume * numer / denom,
            suspend: self.suspend * numer / denom,
            task_sched_pass: self.task_sched_pass * numer / denom,
            txn_sched_pass: self.txn_sched_pass * numer / denom,
            enqueue_txn: self.enqueue_txn * numer / denom,
            completion_irq: self.completion_irq * numer / denom,
            op_body_step: self.op_body_step * numer / denom,
        }
    }
}

/// A single serial processor executing the controller software.
///
/// The processor is modelled as a busy-until cursor: work requested at time
/// `t` starts at `max(t, busy_until)`, runs for `cycles / freq`, and pushes
/// the cursor forward. The returned completion time is when the action's
/// effects (e.g. a freshly enqueued transaction) become visible to the rest
/// of the system.
///
/// # Examples
///
/// ```
/// use babol_sim::{Cpu, CostModel, Freq, SimTime, SimDuration};
///
/// let mut cpu = Cpu::new(Freq::from_mhz(1000), CostModel::rtos());
/// let t0 = SimTime::ZERO;
/// let done1 = cpu.charge(t0, 1000); // 1000 cycles at 1 GHz = 1 us
/// assert_eq!(done1 - t0, SimDuration::from_micros(1));
///
/// // A second action requested at the same instant queues behind the first.
/// let done2 = cpu.charge(t0, 1000);
/// assert_eq!(done2 - t0, SimDuration::from_micros(2));
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    freq: Freq,
    cost: CostModel,
    busy_until: SimTime,
    busy_cycles: u64,
}

impl Cpu {
    /// Creates a processor with the given clock frequency and cost model.
    pub fn new(freq: Freq, cost: CostModel) -> Self {
        Cpu {
            freq,
            cost,
            busy_until: SimTime::ZERO,
            busy_cycles: 0,
        }
    }

    /// The processor's clock frequency.
    pub fn freq(&self) -> Freq {
        self.freq
    }

    /// The cycle budgets charged for software actions: the software
    /// runtime charges this model, so a processor's cost model is the one
    /// its controller pays.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The time at which the processor becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total cycles charged so far (for utilization reporting).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Fraction of wall time `[SimTime::ZERO, now]` the processor spent busy.
    ///
    /// Cumulative from epoch — boot and calibration dilute it.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        let busy = self.freq.cycles(self.busy_cycles);
        (busy.as_picos() as f64 / now.since_epoch().as_picos() as f64).min(1.0)
    }

    /// Charges `cycles` of work requested at `now`; returns the completion
    /// time. Work serializes behind any still-running action.
    pub fn charge(&mut self, now: SimTime, cycles: u64) -> SimTime {
        let start = now.max(self.busy_until);
        let done = start + self.freq.cycles(cycles);
        self.busy_until = done;
        self.busy_cycles += cycles;
        done
    }

    /// Accounts `cycles` of work that ran by `until` without being charged
    /// one action at a time: the polls of a summarized status wait
    /// (`babol::runtime`). The busy cursor moves to `until` if that is
    /// later.
    pub fn credit(&mut self, cycles: u64, until: SimTime) {
        self.busy_cycles += cycles;
        self.busy_until = self.busy_until.max(until);
    }

    /// Resets the busy cursor (used between experiment repetitions).
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.busy_cycles = 0;
    }
}

impl fmt::Display for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu@{}", self.freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn charge_serializes_work() {
        let mut cpu = Cpu::new(Freq::from_mhz(100), CostModel::free());
        let t0 = SimTime::ZERO;
        let d1 = cpu.charge(t0, 100); // 1 us at 100 MHz
        let d2 = cpu.charge(t0, 100);
        assert_eq!(d1 - t0, SimDuration::from_micros(1));
        assert_eq!(d2 - t0, SimDuration::from_micros(2));
        assert_eq!(cpu.busy_until(), d2);
    }

    #[test]
    fn charge_after_idle_starts_at_request_time() {
        let mut cpu = Cpu::new(Freq::from_mhz(100), CostModel::free());
        cpu.charge(SimTime::ZERO, 100);
        let later = SimTime::ZERO + SimDuration::from_millis(1);
        let done = cpu.charge(later, 100);
        assert_eq!(done - later, SimDuration::from_micros(1));
    }

    #[test]
    fn zero_cycles_is_instant() {
        let mut cpu = Cpu::new(Freq::from_ghz(1), CostModel::free());
        let t = SimTime::ZERO + SimDuration::from_nanos(5);
        assert_eq!(cpu.charge(t, 0), t);
    }

    #[test]
    fn coroutine_poll_actions_cost_a_few_microseconds_at_1ghz() {
        let m = CostModel::coroutine();
        let t = Freq::from_ghz(1).cycles(m.poll_cycle());
        // The action costs are the CPU-bound part of the ~30 us polling
        // period (Fig. 11); the rest is the runtime's pacing interval.
        let us = t.as_micros_f64();
        assert!((3.0..=10.0).contains(&us), "poll actions took {us} us");
    }

    #[test]
    fn rtos_poll_cycle_is_much_cheaper() {
        let coro = CostModel::coroutine().poll_cycle();
        let rtos = CostModel::rtos().poll_cycle();
        assert!(rtos * 5 < coro, "rtos {rtos} vs coro {coro}");
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut cpu = Cpu::new(Freq::from_mhz(100), CostModel::free());
        cpu.charge(SimTime::ZERO, 100); // busy 1 us
        let now = SimTime::ZERO + SimDuration::from_micros(4);
        let u = cpu.utilization(now);
        assert!((u - 0.25).abs() < 1e-9, "utilization {u}");
        assert_eq!(cpu.utilization(SimTime::ZERO), 0.0);
    }

    /// Bugfix regression: past ~1.8e7 busy cycles the cycle-to-time
    /// conversion overflowed, so long runs read a wrong utilization.
    #[test]
    fn utilization_is_right_past_twenty_ms_busy() {
        let mut cpu = Cpu::new(Freq::from_ghz(1), CostModel::free());
        cpu.charge(SimTime::ZERO, 25_000_000); // busy 25 ms
        let now = SimTime::ZERO + SimDuration::from_millis(100);
        let u = cpu.utilization(now);
        assert!((u - 0.25).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn utilization_is_cumulative_from_the_epoch() {
        let mut cpu = Cpu::new(Freq::from_mhz(100), CostModel::free());
        // "Boot": 4 us of work in the first 4 us — 100% busy.
        cpu.charge(SimTime::ZERO, 400);
        let warm = SimTime::ZERO + SimDuration::from_micros(4);
        // Steady state: 1 us of work over the next 4 us — 25% busy.
        cpu.charge(warm, 100);
        let now = warm + SimDuration::from_micros(4);
        // The cumulative number blends both windows: (4+1)/8.
        let total = cpu.utilization(now);
        assert!((total - 0.625).abs() < 1e-9, "cumulative {total}");
    }

    #[test]
    fn scaled_cost_model() {
        let m = CostModel::rtos().scaled(2, 1);
        assert_eq!(m.resume, CostModel::rtos().resume * 2);
        let half = CostModel::rtos().scaled(1, 2);
        assert_eq!(half.resume, CostModel::rtos().resume / 2);
    }

    #[test]
    fn reset_clears_state() {
        let mut cpu = Cpu::new(Freq::from_ghz(1), CostModel::rtos());
        cpu.charge(SimTime::ZERO, 12345);
        cpu.reset();
        assert_eq!(cpu.busy_until(), SimTime::ZERO);
        assert_eq!(cpu.busy_cycles(), 0);
    }
}
