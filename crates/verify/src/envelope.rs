//! Static timing & energy envelopes for μFSM programs.
//!
//! The abstract domain is the **interval**: every transaction is symbolically
//! executed against the package's timing profile to derive a sound
//! `[min, max]` bound on its wall-clock duration (picoseconds) and on the
//! array + bus energy it draws (picojoules). Bus time is exact — the
//! execution engine plays phases deterministically, so
//! [`EmitConfig::duration_of`] *is* the bus occupancy — and all width comes
//! from the array side: jittered busy windows
//! ([`PackageProfile::jitter_bounds`]), pSLC ambiguity (a `SET FEATURES`
//! write whose payload lives in DRAM makes the next array op either the SLC
//! or the nominal time), and suspend races.
//!
//! # Soundness argument
//!
//! The analyzer runs the LUN model's command grammar itself
//! ([`babol_onfi::decode`], the transition function `babol_flash::lun`
//! applies) and maps the busy kinds it starts to array-time intervals,
//! with three conservative rules:
//!
//! 1. **Busy windows are intervals.** Every `begin_busy` in the model draws
//!    `jittered(nominal)`, which is uniform over the *inclusive* range
//!    returned by [`PackageProfile::jitter_bounds`]; the analyzer uses that
//!    range verbatim, so the actual deadline is always inside the abstract
//!    one.
//! 2. **Unknowable branches take the hull.** When the pSLC feature was set
//!    from DRAM (payload invisible to a static pass over instructions), the
//!    busy window is the hull of the SLC and nominal bounds; when a suspend
//!    straddles a busy deadline interval, both outcomes (already finished /
//!    actually suspended) are folded in.
//! 3. **Replay semantics bound the per-transaction elapsed time.** The
//!    differential harness starts each transaction only after every LUN's
//!    busy deadline has passed, so per-transaction elapsed time is exactly
//!    `max(bus duration, pending busy deadlines)` — the quantity the
//!    envelope brackets — and pending effects always commit (energy exact)
//!    rather than being lost across a transaction boundary.
//!
//! The envelope is checked against the simulator by
//! `tests/verify_differential.rs`: every random replay must land inside it,
//! in both time and charged energy.

use babol_flash::PackageProfile;
use babol_onfi::addr::AddrLayout;
use babol_onfi::bus::{BusPhase, ChipMask, PhaseKind};
use babol_onfi::decode::{self, Action, BusyKind, Cycle, Decode};
use babol_onfi::feature::addr as feat;
use babol_onfi::opcode::op;
use babol_sim::{PageData, SimDuration};
use babol_ufsm::{DmaDest, EmitConfig, Instr, Latch, PostWait, Transaction};

use crate::diag::{Diagnostic, Report};
use crate::rules::Rule;

/// A closed integer interval `[min, max]` — picoseconds for time, picojoules
/// for energy. The bottom element of the domain is the point `[v, v]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub min: u64,
    /// Inclusive upper bound.
    pub max: u64,
}

impl Interval {
    /// The zero point.
    pub const ZERO: Interval = Interval { min: 0, max: 0 };

    /// An interval from explicit bounds (`min <= max` expected).
    pub fn new(min: u64, max: u64) -> Self {
        debug_assert!(min <= max, "interval bounds inverted: [{min}, {max}]");
        Interval { min, max }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: u64) -> Self {
        Interval { min: v, max: v }
    }

    /// The smallest interval containing both operands.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Whether `v` lies inside the interval (inclusive).
    pub fn contains(self, v: u64) -> bool {
        self.min <= v && v <= self.max
    }

    /// Interval width, `max - min`.
    pub fn width(self) -> u64 {
        self.max - self.min
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;
    fn add(self, rhs: Interval) -> Interval {
        Interval {
            min: self.min + rhs.min,
            max: self.max + rhs.max,
        }
    }
}

impl std::ops::AddAssign for Interval {
    fn add_assign(&mut self, rhs: Interval) {
        *self = *self + rhs;
    }
}

/// A transaction's (or stream's) static envelope: duration and energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Wall-clock duration bounds, picoseconds.
    pub time_ps: Interval,
    /// Drawn energy bounds, picojoules.
    pub energy_pj: Interval,
}

impl Envelope {
    /// The empty envelope (identity of [`Envelope`] addition).
    pub const ZERO: Envelope = Envelope {
        time_ps: Interval::ZERO,
        energy_pj: Interval::ZERO,
    };
}

impl std::ops::Add for Envelope {
    type Output = Envelope;
    fn add(self, rhs: Envelope) -> Envelope {
        Envelope {
            time_ps: self.time_ps + rhs.time_ps,
            energy_pj: self.energy_pj + rhs.energy_pj,
        }
    }
}

impl std::ops::AddAssign for Envelope {
    fn add_assign(&mut self, rhs: Envelope) {
        *self = *self + rhs;
    }
}

/// Energy cost table, picojoules per operation class.
///
/// The one table in the workspace: the envelope analyzer bounds operations
/// with it, and the FTL charges every admitted operation from it
/// (`babol_ftl::SsdConfig::energy`). Magnitudes follow the Olivier et al.
/// measurements for an SLC-class part: a page read costs a few μJ, a
/// program roughly an order of magnitude more, an erase another order
/// above that, and bus transfer energy scales with the bytes moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyCosts {
    /// Array read (tR), per page fetched.
    pub read_pj: u64,
    /// Array program pulse (tPROG), per attempt.
    pub program_pj: u64,
    /// Block erase pulse (tBERS), per attempt.
    pub erase_pj: u64,
    /// Channel transfer, per KiB moved.
    pub transfer_pj_per_kib: u64,
}

impl EnergyCosts {
    /// The default table (Olivier et al. magnitudes): 2.1 μJ read,
    /// 16.5 μJ program, 124 μJ erase, 0.3 μJ per KiB transferred.
    pub const fn nand() -> Self {
        EnergyCosts {
            read_pj: 2_100_000,
            program_pj: 16_500_000,
            erase_pj: 124_000_000,
            transfer_pj_per_kib: 300_000,
        }
    }

    /// Bus transfer energy for `len` bytes (multiply-first so sub-KiB
    /// bursts don't truncate to zero).
    pub const fn transfer_pj(&self, len: u64) -> u64 {
        len * self.transfer_pj_per_kib / 1024
    }
}

impl Default for EnergyCosts {
    fn default() -> Self {
        EnergyCosts::nand()
    }
}

/// V073 threshold: warn when `time.max * 10 > time.min * WIDTH_RATIO_X10`.
/// 15 (width ratio 1.5×) clears every shipped operation — 8% array jitter
/// widens a read to at most ~1.18× — while catching pSLC-ambiguous programs
/// (~1.9× on the paper profiles).
const WIDTH_RATIO_X10: u64 = 15;

/// The energy table the analyzer charges: the FTL's default costs.
const ENERGY: EnergyCosts = EnergyCosts::nand();

/// Worst-case array timing bounds of a package, in picoseconds, and the
/// address layout its LUNs decode with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrayBounds {
    layout: AddrLayout,
    t_r: Interval,
    t_r_slc: Interval,
    t_prog: Interval,
    t_prog_slc: Interval,
    t_bers: Interval,
    t_rst: Interval,
    t_param: Interval,
    plane_queue: u64,
    cache_end: u64,
    suspend_window: u64,
    resume_penalty: u64,
}

impl ArrayBounds {
    pub(crate) fn from_profile(p: &PackageProfile) -> Self {
        let iv = |nominal: SimDuration| {
            let (lo, hi) = p.jitter_bounds(nominal);
            Interval::new(lo.as_picos(), hi.as_picos())
        };
        ArrayBounds {
            layout: p.layout(),
            t_r: iv(p.t_r),
            t_r_slc: iv(p.t_r_slc),
            t_prog: iv(p.t_prog),
            t_prog_slc: iv(p.t_prog_slc),
            t_bers: iv(p.t_bers),
            t_rst: iv(p.t_rst),
            t_param: iv(p.t_param),
            plane_queue: PackageProfile::PLANE_QUEUE_WINDOW.as_picos(),
            cache_end: PackageProfile::CACHE_END_WINDOW.as_picos(),
            suspend_window: PackageProfile::SUSPEND_WINDOW.as_picos(),
            resume_penalty: PackageProfile::RESUME_PENALTY.as_picos(),
        }
    }
}

/// Three-valued pSLC knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeatState {
    Off,
    On,
    /// Set from DRAM: payload invisible to the static pass.
    Unknown,
}

/// A busy window opened inside the current transaction: its kind (a
/// suspend command only matches its own), deadline offsets (picoseconds
/// from the transaction's first phase) and the energy its effect commits
/// when it resolves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingBusy {
    deadline: Interval,
    energy: Interval,
    pub(crate) kind: BusyKind,
}

/// A suspended array operation (persists across transactions — the
/// remaining time is a duration, not a deadline).
#[derive(Debug, Clone, Copy)]
struct SuspendedOp {
    remaining: Interval,
    energy: Interval,
    kind: BusyKind,
    /// False when the suspend straddled the busy deadline interval: the
    /// operation may have already finished, so the resume may be a no-op.
    certain: bool,
}

/// Abstract LUN state carried across transactions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnvLun {
    /// The shared grammar's decode state; `None` when unknown. Grammar
    /// *errors* are the base verifier's job: the envelope assumes a
    /// program that replays cleanly and folds a refused cycle to unknown.
    pub(crate) dec: Option<Decode>,
    /// The feature address a SET FEATURES latched.
    feature: u8,
    pub(crate) busy: Option<PendingBusy>,
    suspended: Option<SuspendedOp>,
    pslc_armed: bool,
    pslc_feature: FeatState,
    queued_rows: u64,
}

impl EnvLun {
    pub(crate) fn power_on() -> Self {
        EnvLun {
            dec: Some(Decode::Idle),
            feature: 0,
            busy: None,
            suspended: None,
            pslc_armed: false,
            pslc_feature: FeatState::Off,
            queued_rows: 0,
        }
    }

    /// Mirrors `Lun::take_pslc`: the prefix arms one op, the feature arms
    /// every op; the prefix is consumed either way.
    fn take_pslc(&mut self) -> FeatState {
        let armed = if self.pslc_armed {
            FeatState::On
        } else {
            self.pslc_feature
        };
        self.pslc_armed = false;
        armed
    }

    fn array_time(&mut self, nominal: Interval, slc: Interval) -> Interval {
        match self.take_pslc() {
            FeatState::On => slc,
            FeatState::Off => nominal,
            FeatState::Unknown => slc.hull(nominal),
        }
    }

    /// Resolves the pending busy window against a new trigger at offset
    /// `p`. `begin_busy` in the model overwrites it (a program confirm
    /// during a cache program, which chains, is resolved by its caller),
    /// so the old deadline disappears either way; only the *energy* outcome is
    /// uncertain: committed (deadline certainly passed — `refresh` ran
    /// before the new command), dropped (certainly still pending, effect
    /// overwritten), or either (straddle).
    fn resolve(&mut self, p: u64, energy_acc: &mut Interval) {
        if let Some(b) = self.busy.take() {
            if b.deadline.max <= p {
                *energy_acc += b.energy;
            } else if b.deadline.min > p {
                // Effect overwritten before it could commit: no energy.
            } else {
                *energy_acc += Interval::new(0, b.energy.max);
            }
        }
    }

    fn begin(
        &mut self,
        p: u64,
        dur: Interval,
        energy: Interval,
        kind: BusyKind,
        energy_acc: &mut Interval,
    ) {
        self.resolve(p, energy_acc);
        self.busy = Some(PendingBusy {
            deadline: Interval::new(p + dur.min, p + dur.max),
            energy,
            kind,
        });
    }

    /// Takes one delivered event at offset `p` through the grammar and
    /// applies its action: array windows and their energy into `energy`,
    /// page-register data-in bytes into `moved`.
    pub(crate) fn on_event(
        &mut self,
        p: u64,
        event: &Event,
        b: &ArrayBounds,
        energy: &mut Interval,
        moved: &mut Interval,
    ) {
        let cycle = match *event {
            Event::Cmd(opcode) => Cycle::Cmd(opcode),
            Event::Addr(addr) => Cycle::Addr(addr.len()),
            Event::DataIn { .. } => Cycle::DataIn,
            // Data-out is counted for the driving LUN alone, by the caller.
            Event::DataOut { .. } => return,
        };
        let Ok((next, action)) = decode::step_abstract(self.dec, cycle, &b.layout) else {
            // Refused, or not knowable from an unknown state: the state is
            // unknown, and a burst's bytes may or may not have moved.
            self.dec = None;
            if let Event::DataIn { bytes, .. } = *event {
                *moved += Interval::new(0, bytes);
            }
            return;
        };
        self.dec = next;
        match (action, *event) {
            (Action::Busy(BusyKind::Reset), _) => {
                // The model clears everything, including a suspended op
                // (whose deferred effect then never commits — its energy
                // was never charged, so dropping the record is exact for a
                // certain suspend and an upper bound for a straddle).
                self.suspended = None;
                self.queued_rows = 0;
                self.pslc_armed = false;
                self.pslc_feature = FeatState::Off;
                self.begin(p, b.t_rst, Interval::ZERO, BusyKind::Reset, energy);
            }
            (Action::Suspend, Event::Cmd(opcode)) => self.on_suspend(p, opcode, b, energy),
            (Action::Resume, _) => self.on_resume(p, b, energy),
            (Action::ArmPslc, _) => self.pslc_armed = true,
            (Action::Busy(BusyKind::Read), _) => {
                let dur = self.array_time(b.t_r, b.t_r_slc);
                let rows = self.queued_rows + 1;
                self.queued_rows = 0;
                let cost = Interval::point(ENERGY.read_pj * rows);
                self.begin(p, dur, cost, BusyKind::Read, energy);
            }
            (Action::Busy(BusyKind::PlaneQueue), _) => {
                self.queued_rows += 1;
                let window = Interval::point(b.plane_queue);
                self.begin(p, window, Interval::ZERO, BusyKind::PlaneQueue, energy);
            }
            (Action::Busy(BusyKind::CacheRead), _) => {
                // Always the nominal tR: the model passes `pslc: false`.
                let cost = Interval::point(ENERGY.read_pj);
                self.begin(p, b.t_r, cost, BusyKind::CacheRead, energy);
            }
            (Action::CacheEnd, _) => {
                let window = Interval::point(b.cache_end);
                self.begin(p, window, Interval::ZERO, BusyKind::CacheRead, energy);
            }
            (Action::Busy(kind @ (BusyKind::Program | BusyKind::CacheProgram)), _) => {
                let mut dur = self.array_time(b.t_prog, b.t_prog_slc);
                if let Some(pend) = self.busy.take_if(|b| b.kind == BusyKind::CacheProgram) {
                    // The model commits a pending cache program before this
                    // confirm, so its energy is certain, and this tPROG
                    // starts when the array frees.
                    *energy += pend.energy;
                    let d = pend.deadline;
                    dur += Interval::new(d.min.saturating_sub(p), d.max.saturating_sub(p));
                }
                self.begin(p, dur, Interval::point(ENERGY.program_pj), kind, energy);
            }
            (Action::Busy(BusyKind::Erase), _) => {
                let cost = Interval::point(ENERGY.erase_pj);
                self.begin(p, b.t_bers, cost, BusyKind::Erase, energy);
            }
            (Action::Busy(BusyKind::ParamPage), _) => {
                // The param-page fetch starts at the *address* latch.
                self.begin(p, b.t_param, Interval::ZERO, BusyKind::ParamPage, energy);
            }
            (Action::LatchFeature, Event::Addr(addr)) => self.feature = addr[0],
            // Data-in counts as transfer bytes only on the page-register
            // path (the model's `bytes_in` stat ignores feature writes).
            (Action::Write, Event::DataIn { bytes, .. }) => *moved += Interval::point(bytes),
            // `value` is the payload when statically visible (raw phase
            // programs).
            (Action::SetFeature, Event::DataIn { value, .. })
                if self.feature == feat::PSLC_ENABLE =>
            {
                self.pslc_feature = match value {
                    Some(v) if v.first_byte().is_some_and(|b| b != 0) => FeatState::On,
                    Some(_) => FeatState::Off,
                    None => FeatState::Unknown,
                };
            }
            _ => {}
        }
    }

    fn on_suspend(&mut self, p: u64, opcode: u8, b: &ArrayBounds, acc: &mut Interval) {
        let Some(pend) = self.busy else {
            return; // Suspending an idle LUN is a no-op.
        };
        if pend.deadline.max <= p {
            // The operation certainly finished first: commit, no-op.
            self.busy = None;
            *acc += pend.energy;
            return;
        }
        if !pend.kind.suspended_by(opcode) {
            // Kind mismatch while possibly busy: the model rejects the
            // phase; a clean program never gets here. Fold both outcomes.
            self.busy = None;
            *acc += Interval::new(0, pend.energy.max);
            return;
        }
        self.busy = None;
        if pend.deadline.min > p {
            // Certainly still running: real suspend, energy deferred.
            self.suspended = Some(SuspendedOp {
                remaining: Interval::new(pend.deadline.min - p, pend.deadline.max - p),
                energy: pend.energy,
                kind: pend.kind,
                certain: true,
            });
            self.busy = Some(PendingBusy {
                deadline: Interval::point(p + b.suspend_window),
                energy: Interval::ZERO,
                kind: BusyKind::Suspending,
            });
        } else {
            // Straddle: either already done (energy committed, no window)
            // or suspended (energy deferred). Both folded in.
            *acc += Interval::new(0, pend.energy.max);
            self.suspended = Some(SuspendedOp {
                remaining: Interval::new(0, pend.deadline.max - p),
                energy: Interval::new(0, pend.energy.max),
                kind: pend.kind,
                certain: false,
            });
            self.busy = Some(PendingBusy {
                deadline: Interval::new(p, p + b.suspend_window),
                energy: Interval::ZERO,
                kind: BusyKind::Suspending,
            });
        }
    }

    fn on_resume(&mut self, p: u64, b: &ArrayBounds, acc: &mut Interval) {
        self.resolve(p, acc); // The suspend window (or a stale busy).
        let Some(s) = self.suspended.take() else {
            return; // Resume with nothing suspended is a no-op.
        };
        let (deadline, energy) = if s.certain {
            (
                Interval::new(
                    p + s.remaining.min + b.resume_penalty,
                    p + s.remaining.max + b.resume_penalty,
                ),
                s.energy,
            )
        } else {
            (
                Interval::new(p, p + s.remaining.max + b.resume_penalty),
                Interval::new(0, s.energy.max),
            )
        };
        self.busy = Some(PendingBusy {
            deadline,
            energy,
            kind: s.kind,
        });
    }
}

/// One delivered bus event, as the channel would deliver it: at the *end*
/// offset of its phase.
#[derive(Clone, Copy)]
pub(crate) enum Event<'a> {
    Cmd(u8),
    Addr(&'a [u8]),
    DataIn {
        bytes: u64,
        value: Option<&'a PageData>,
    },
    DataOut {
        bytes: u64,
    },
}

/// The envelope analyzer: feed it the same transaction (or phase) stream
/// the verifier sees; it returns a sound [`Envelope`] per transaction and
/// accumulates the stream total plus V073 width warnings.
#[derive(Debug)]
pub struct EnvelopeAnalyzer {
    emit: EmitConfig,
    bounds: ArrayBounds,
    luns: Vec<EnvLun>,
    total: Envelope,
    report: Report,
    txn_index: usize,
}

impl EnvelopeAnalyzer {
    /// Analyzer for a channel of `luns` LUNs of one package, played with
    /// `emit` (interface, timing set, packetizer — it fixes exact bus time).
    /// State starts at power-on (everything idle, features reset).
    pub fn new(profile: &PackageProfile, luns: u32, emit: EmitConfig) -> Self {
        EnvelopeAnalyzer {
            emit,
            bounds: ArrayBounds::from_profile(profile),
            luns: vec![EnvLun::power_on(); luns as usize],
            total: Envelope::ZERO,
            report: Report::new(),
            txn_index: 0,
        }
    }

    /// Envelope of one μFSM transaction, advancing the abstract state.
    pub fn transaction_envelope(&mut self, txn: &Transaction) -> Envelope {
        let timings = self.emit.phase_timings(txn);
        let bus_ps = timings.last().map(|m| m.end.as_picos()).unwrap_or_default();
        let mut events = Vec::new();
        for (instr, timing) in txn.instrs().iter().zip(&timings) {
            match instr {
                Instr::CaWriter { latches, .. } => {
                    for (latch, end) in latches.iter().zip(&timing.latch_ends) {
                        let ev = match latch {
                            Latch::Cmd(opcode) => Event::Cmd(*opcode),
                            Latch::Addr(bytes) => Event::Addr(bytes),
                        };
                        events.push((end.as_picos(), ev));
                    }
                }
                Instr::DataWriter { bytes, .. } => events.push((
                    timing.end.as_picos(),
                    Event::DataIn {
                        bytes: *bytes as u64,
                        value: None,
                    },
                )),
                Instr::DataReader { bytes, .. } => events.push((
                    timing.end.as_picos(),
                    Event::DataOut {
                        bytes: *bytes as u64,
                    },
                )),
                Instr::Timer { .. } => {}
            }
        }
        self.run(txn.chip_mask(), bus_ps, &events)
    }

    /// Envelope of a raw bus-phase program (baseline controllers). Data-in
    /// payloads are statically visible here, so feature writes (pSLC) are
    /// tracked exactly.
    pub fn phases_envelope(&mut self, chips: ChipMask, phases: &[BusPhase]) -> Envelope {
        let mut at = 0u64;
        let mut events = Vec::new();
        for phase in phases {
            at += phase.duration.as_picos();
            match &phase.kind {
                PhaseKind::CmdLatch(opcode) => events.push((at, Event::Cmd(*opcode))),
                PhaseKind::AddrLatch(bytes) => events.push((at, Event::Addr(bytes))),
                PhaseKind::DataIn(data) => events.push((
                    at,
                    Event::DataIn {
                        bytes: data.len() as u64,
                        value: Some(data),
                    },
                )),
                PhaseKind::DataOut { bytes } => events.push((
                    at,
                    Event::DataOut {
                        bytes: *bytes as u64,
                    },
                )),
                PhaseKind::Pause => {}
            }
        }
        self.run(chips, at, &events)
    }

    fn run(&mut self, chips: ChipMask, bus_ps: u64, events: &[(u64, Event)]) -> Envelope {
        let t = self.txn_index;
        self.txn_index += 1;
        // Data-out phases drive from the lowest selected LUN only (see
        // `Channel::transmit`); everything else is delivered to the gang.
        let driver = chips.iter().next();
        let mut energy = Interval::ZERO;
        let mut bytes = Interval::ZERO;
        let mut time = Interval::point(bus_ps);
        let lun_count = self.luns.len();
        for chip in chips.iter().filter(|&c| (c as usize) < lun_count) {
            let mut st = self.luns[chip as usize];
            for (p, event) in events {
                match *event {
                    Event::DataOut { bytes: n } => {
                        if Some(chip) == driver && n > 0 {
                            bytes += Interval::point(n);
                        }
                    }
                    _ => st.on_event(*p, event, &self.bounds, &mut energy, &mut bytes),
                }
            }
            // Transaction end: the replay harness waits out every pending
            // deadline before the next transaction, so the window both
            // bounds this transaction's elapsed time and certainly commits
            // its effect (energy exact).
            if let Some(pend) = st.busy.take() {
                energy += pend.energy;
                time = Interval::new(
                    time.min.max(pend.deadline.min),
                    time.max.max(pend.deadline.max),
                );
            }
            self.luns[chip as usize] = st;
        }
        let transfer = Interval::new(ENERGY.transfer_pj(bytes.min), ENERGY.transfer_pj(bytes.max));
        let env = Envelope {
            time_ps: time,
            energy_pj: energy + transfer,
        };
        if env.time_ps.min > 0 && env.time_ps.max * 10 > env.time_ps.min * WIDTH_RATIO_X10 {
            self.report.push(Diagnostic {
                rule: Rule::WideEnvelope,
                severity: Rule::WideEnvelope.severity(),
                txn: t,
                at: None,
                lun: None,
                detail: format!(
                    "duration envelope [{:.1} us, {:.1} us] is wider than {:.1}x — an \
                     unconstrained branch (e.g. pSLC set from DRAM) makes this \
                     transaction's timing unpredictable",
                    env.time_ps.min as f64 / 1e6,
                    env.time_ps.max as f64 / 1e6,
                    WIDTH_RATIO_X10 as f64 / 10.0,
                ),
            });
        }
        self.total += env;
        env
    }

    /// Interval sum of every per-transaction envelope seen so far — the
    /// stream envelope (addition is the exact composition: per-transaction
    /// elapsed times and energies sum independently under replay).
    pub fn total(&self) -> Envelope {
        self.total
    }

    /// Number of transactions analyzed.
    pub fn transactions(&self) -> usize {
        self.txn_index
    }

    /// Width warnings (V073) accumulated so far.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Consumes the analyzer: the stream envelope and its report.
    pub fn finish(self) -> (Envelope, Report) {
        (self.total, self.report)
    }
}

/// The widest envelope any single well-formed operation can have on this
/// package: a full raw-page write plus read-back at boot-time SDR speed
/// (the slowest interface the controller ever drives), every mandatory
/// post-wait, and the worst-case array window on top. Watchdog budgets are
/// derived from this bound instead of hard-coded constants — see
/// `babol::system::Engine` and `babol_ftl::Ssd`.
pub fn worst_op_envelope(profile: &PackageProfile) -> SimDuration {
    let cfg = EmitConfig::sdr();
    let layout = profile.layout();
    let raw = profile.geometry.raw_page_size();
    let txn = Transaction::new(ChipMask::single(0))
        .ca(
            vec![
                Latch::Cmd(op::PROGRAM_1),
                Latch::Addr(vec![0; layout.full_cycles()]),
            ],
            PostWait::Adl,
        )
        .write(raw, 0)
        .ca(vec![Latch::Cmd(op::PROGRAM_2)], PostWait::Wb)
        .ca(
            vec![
                Latch::Cmd(op::READ_1),
                Latch::Addr(vec![0; layout.full_cycles()]),
                Latch::Cmd(op::READ_2),
            ],
            PostWait::Wb,
        )
        .read(raw, DmaDest::Dram(0))
        .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
        .read(1, DmaDest::Inline);
    cfg.duration_of(&txn) + profile.worst_array_window()
}

#[cfg(test)]
mod tests {
    use super::*;
    use babol_onfi::addr::{ColumnAddr, RowAddr};

    fn tiny() -> PackageProfile {
        PackageProfile::test_tiny()
    }

    fn analyzer(p: &PackageProfile) -> EnvelopeAnalyzer {
        EnvelopeAnalyzer::new(p, p.luns_per_channel, EmitConfig::nv_ddr2(200))
    }

    fn addr_full(p: &PackageProfile) -> Vec<u8> {
        p.layout().pack_full(
            ColumnAddr(0),
            RowAddr {
                lun: 0,
                block: 0,
                page: 0,
            },
        )
    }

    fn status_poll() -> Transaction {
        Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline)
    }

    fn read_latch(p: &PackageProfile) -> Transaction {
        Transaction::new(ChipMask::single(0)).ca(
            vec![
                Latch::Cmd(op::READ_1),
                Latch::Addr(addr_full(p)),
                Latch::Cmd(op::READ_2),
            ],
            PostWait::Wb,
        )
    }

    #[test]
    fn interval_arithmetic() {
        let a = Interval::new(2, 5);
        let b = Interval::point(3);
        assert_eq!(a + b, Interval::new(5, 8));
        assert_eq!(a.hull(Interval::new(0, 4)), Interval::new(0, 5));
        assert!(a.contains(2) && a.contains(5) && !a.contains(6));
        assert_eq!(a.width(), 3);
    }

    #[test]
    fn status_poll_is_a_point_envelope() {
        let p = tiny();
        let mut a = analyzer(&p);
        let txn = status_poll();
        let env = a.transaction_envelope(&txn);
        let bus = EmitConfig::nv_ddr2(200).duration_of(&txn).as_picos();
        assert_eq!(env.time_ps, Interval::point(bus));
        // One inline status byte moves over the bus.
        assert_eq!(
            env.energy_pj,
            Interval::point(EnergyCosts::nand().transfer_pj(1))
        );
        assert!(a.report().is_clean(), "{}", a.report());
    }

    #[test]
    fn read_confirm_envelope_covers_the_array_busy() {
        let p = tiny(); // jitter 0: the window is exact
        let cfg = EmitConfig::nv_ddr2(200);
        let mut a = analyzer(&p);
        let txn = read_latch(&p);
        let env = a.transaction_envelope(&txn);
        let bus = cfg.duration_of(&txn);
        // Busy starts at the confirm latch end, i.e. tWB before bus end.
        let confirm_end = bus - cfg.timing.t_wb;
        let expect = (confirm_end + p.t_r).as_picos();
        assert_eq!(env.time_ps, Interval::point(expect));
        assert!(env.time_ps.min > bus.as_picos());
        assert_eq!(env.energy_pj, Interval::point(EnergyCosts::nand().read_pj));
    }

    #[test]
    fn jitter_widens_below_the_warning_threshold() {
        let p = PackageProfile::hynix(); // 8% jitter
        let mut a = analyzer(&p);
        let env = a.transaction_envelope(&read_latch(&p));
        assert!(env.time_ps.width() > 0);
        // 8% jitter widens tR to ~1.17x: under the 1.5x V073 threshold.
        assert!(a.report().is_clean(), "{}", a.report());
    }

    #[test]
    fn pslc_set_from_dram_widens_the_program_envelope() {
        let p = tiny();
        let mut a = analyzer(&p);
        // SET FEATURES 0x91 with payload from DRAM: statically unknowable.
        let arm = Transaction::new(ChipMask::single(0))
            .ca(
                vec![
                    Latch::Cmd(op::SET_FEATURES),
                    Latch::Addr(vec![feat::PSLC_ENABLE]),
                ],
                PostWait::Adl,
            )
            .write(4, 0x100);
        a.transaction_envelope(&arm);
        let prog = Transaction::new(ChipMask::single(0))
            .ca(
                vec![Latch::Cmd(op::PROGRAM_1), Latch::Addr(addr_full(&p))],
                PostWait::Adl,
            )
            .write(64, 0x200)
            .ca(vec![Latch::Cmd(op::PROGRAM_2)], PostWait::Wb);
        let env = a.transaction_envelope(&prog);
        // The busy window is the hull of tPROG(15 us pSLC, 40 us nominal).
        assert!(env.time_ps.width() >= (p.t_prog - p.t_prog_slc).as_picos() - 1);
        assert!(a.report().has_rule(Rule::WideEnvelope), "{}", a.report());
    }

    #[test]
    fn pslc_prefix_is_exact_and_consumed() {
        let p = tiny();
        let cfg = EmitConfig::nv_ddr2(200);
        let mut a = analyzer(&p);
        let prefixed = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::PSLC_PREFIX)], PostWait::None)
            .ca(
                vec![
                    Latch::Cmd(op::READ_1),
                    Latch::Addr(addr_full(&p)),
                    Latch::Cmd(op::READ_2),
                ],
                PostWait::Wb,
            );
        let env = a.transaction_envelope(&prefixed);
        let bus = cfg.duration_of(&prefixed);
        let confirm_end = bus - cfg.timing.t_wb;
        assert_eq!(
            env.time_ps,
            Interval::point((confirm_end + p.t_r_slc).as_picos())
        );
        // The prefix armed exactly one op: the next read is nominal again.
        let env2 = a.transaction_envelope(&read_latch(&p));
        assert!(env2.time_ps.min > env.time_ps.max);
    }

    #[test]
    fn multi_plane_queue_charges_one_read_per_plane() {
        let p = tiny();
        let mut a = analyzer(&p);
        let txn = Transaction::new(ChipMask::single(0))
            .ca(
                vec![
                    Latch::Cmd(op::READ_1),
                    Latch::Addr(addr_full(&p)),
                    Latch::Cmd(op::MULTI_PLANE_NEXT),
                ],
                PostWait::Wb,
            )
            .ca(
                vec![
                    Latch::Cmd(op::READ_1),
                    Latch::Addr(addr_full(&p)),
                    Latch::Cmd(op::READ_2),
                ],
                PostWait::Wb,
            );
        let env = a.transaction_envelope(&txn);
        assert_eq!(
            env.energy_pj,
            Interval::point(2 * EnergyCosts::nand().read_pj)
        );
    }

    #[test]
    fn suspend_resume_extends_the_erase_deadline() {
        let p = tiny();
        let cfg = EmitConfig::nv_ddr2(200);
        let mut a = analyzer(&p);
        let row = p.layout().pack_row(RowAddr {
            lun: 0,
            block: 0,
            page: 0,
        });
        let txn = Transaction::new(ChipMask::single(0))
            .ca(
                vec![
                    Latch::Cmd(op::ERASE_1),
                    Latch::Addr(row),
                    Latch::Cmd(op::ERASE_2),
                ],
                PostWait::Wb,
            )
            .ca(vec![Latch::Cmd(op::ERASE_SUSPEND)], PostWait::Wb)
            .ca(vec![Latch::Cmd(op::SUSPEND_RESUME)], PostWait::Wb);
        let env = a.transaction_envelope(&txn);
        // Suspend certainly lands inside the 100 us erase (the bus is
        // microseconds): deadline = resume point + remaining + penalty,
        // which exceeds the plain erase deadline by the full detour.
        let plain = {
            let mut b = analyzer(&p);
            let erase_only = Transaction::new(ChipMask::single(0)).ca(
                vec![
                    Latch::Cmd(op::ERASE_1),
                    Latch::Addr(p.layout().pack_row(RowAddr {
                        lun: 0,
                        block: 0,
                        page: 0,
                    })),
                    Latch::Cmd(op::ERASE_2),
                ],
                PostWait::Wb,
            );
            b.transaction_envelope(&erase_only)
        };
        assert!(env.time_ps.min > plain.time_ps.max);
        assert_eq!(env.energy_pj, Interval::point(EnergyCosts::nand().erase_pj));
        // Sanity: the detour is at least the resume penalty.
        assert!(env.time_ps.min >= plain.time_ps.min + PackageProfile::RESUME_PENALTY.as_picos());
        let _ = cfg;
    }

    #[test]
    fn cache_program_commits_then_chains_the_next_tprog() {
        let p = tiny(); // jitter 0: the windows are exact
        let cfg = EmitConfig::nv_ddr2(200);
        let mut a = analyzer(&p);
        let page = |page| {
            p.layout().pack_full(
                ColumnAddr(0),
                RowAddr {
                    lun: 0,
                    block: 0,
                    page,
                },
            )
        };
        // Page 1's confirm lands inside page 0's cache-program tPROG.
        let txn = Transaction::new(ChipMask::single(0))
            .ca(
                vec![Latch::Cmd(op::PROGRAM_1), Latch::Addr(page(0))],
                PostWait::Adl,
            )
            .write(64, 0x200)
            .ca(vec![Latch::Cmd(op::PROGRAM_CACHE)], PostWait::Wb)
            .ca(
                vec![Latch::Cmd(op::PROGRAM_1), Latch::Addr(page(1))],
                PostWait::Adl,
            )
            .write(64, 0x200)
            .ca(vec![Latch::Cmd(op::PROGRAM_2)], PostWait::Wb);
        let env = a.transaction_envelope(&txn);
        let costs = EnergyCosts::nand();
        assert_eq!(
            env.energy_pj,
            Interval::point(2 * costs.program_pj + costs.transfer_pj(128))
        );
        assert!(env.time_ps.min >= 2 * p.t_prog.as_picos());
        assert!(env.time_ps.max < (cfg.duration_of(&txn) + p.t_prog * 2).as_picos());
    }

    #[test]
    fn totals_compose_as_interval_sums() {
        let p = tiny();
        let mut a = analyzer(&p);
        let txns = [read_latch(&p), status_poll(), read_latch(&p)];
        let mut sum = Envelope::ZERO;
        for txn in &txns {
            sum += a.transaction_envelope(txn);
        }
        assert_eq!(a.total(), sum);
        assert_eq!(a.transactions(), 3);
    }

    #[test]
    fn phase_mode_matches_instruction_mode() {
        let p = tiny();
        let cfg = EmitConfig::nv_ddr2(200);
        let mut instr_mode = analyzer(&p);
        let env_i = instr_mode.transaction_envelope(&read_latch(&p));
        // The same waveform spelled as raw phases.
        let mut phase_mode = analyzer(&p);
        let phases = vec![
            BusPhase::new(
                PhaseKind::CmdLatch(op::READ_1),
                cfg.timing.ca_segment(cfg.iface, 1),
            ),
            BusPhase::new(
                PhaseKind::AddrLatch(addr_full(&p)),
                cfg.timing.ca_segment(cfg.iface, addr_full(&p).len()),
            ),
            BusPhase::new(
                PhaseKind::CmdLatch(op::READ_2),
                cfg.timing.ca_segment(cfg.iface, 1),
            ),
            BusPhase::new(PhaseKind::Pause, cfg.timing.t_wb),
        ];
        let env_p = phase_mode.phases_envelope(ChipMask::single(0), &phases);
        assert_eq!(env_i, env_p);
    }

    #[test]
    fn worst_op_envelope_dominates_any_single_operation() {
        for p in PackageProfile::paper_set() {
            let worst = worst_op_envelope(&p);
            assert!(worst > p.worst_array_window(), "{}", p.name);
            let mut a = analyzer(&p);
            let env = a.transaction_envelope(&read_latch(&p));
            assert!(worst.as_picos() > env.time_ps.max, "{}", p.name);
        }
    }

    #[test]
    fn energy_costs_match_the_ftl_table_shape() {
        let c = EnergyCosts::nand();
        assert_eq!(c.transfer_pj(1024), c.transfer_pj_per_kib);
        assert_eq!(c.transfer_pj(512), c.transfer_pj_per_kib / 2);
        assert_eq!(c.transfer_pj(0), 0);
        assert!(c.read_pj < c.program_pj && c.program_pj < c.erase_pj);
    }
}
