//! The abstract interpreter.
//!
//! One [`LunState`] per wired LUN runs the ONFI command grammar the flash
//! package model (`babol_flash::Lun`) runs, [`babol_onfi::decode`], but
//! applies its actions over *abstract* values: where the simulator knows
//! the decode state and whether a LUN is busy, the verifier also tracks
//! an unknown state (the join of every state, [`decode::step_abstract`])
//! and known-idle / known-busy / maybe-busy / unknown busy knowledge, and
//! resolves the uncertainty optimistically — a diagnostic fires only when
//! every consistent concrete execution is wrong (errors) or suspicious
//! (warnings). Rejections the grammar returns become the diagnostics of
//! their rule ids. Transactions are first lowered to [`Seg`]ments — the same
//! shape whether they come from μFSM instructions or raw bus phases — so
//! the one engine lints ops *and* the hard-coded baseline FSMs.

use babol_onfi::addr::AddrLayout;
use babol_onfi::bus::{BusPhase, PhaseKind};
use babol_onfi::decode::{self, Action, BusyKind, Cycle, Decode, Reject};
use babol_onfi::opcode::{classify, mnemonic, op, OpClass};
use babol_onfi::timing::TimingParams;
use babol_sim::SimDuration;
use babol_ufsm::{DmaDest, Instr, Latch, PostWait};

use crate::diag::{Diagnostic, Report};
use crate::rules::Rule;
use crate::TargetModel;

/// The ONFI parameter page is served as three identical 256-byte copies.
const PARAM_PAGE_BYTES: usize = 3 * 256;

// ---------------------------------------------------------------------------
// Segment lowering
// ---------------------------------------------------------------------------

/// The trailing wait attached to a C/A group: a μFSM `PostWait` category
/// (instruction mode) or an accumulated pause budget (phase mode).
#[derive(Debug, Clone)]
pub(crate) enum WaitSpec {
    Post(PostWait),
    Credit(SimDuration),
}

/// One verifier segment: a C/A latch group with its trailing wait, a data
/// burst, or an explicit pause.
#[derive(Debug, Clone)]
pub(crate) enum SegKind {
    Ca { latches: Vec<Latch>, wait: WaitSpec },
    Din { bytes: usize },
    Dout { bytes: usize, dest: Option<DmaDest> },
    Timer,
}

#[derive(Debug, Clone)]
pub(crate) struct Seg {
    pub kind: SegKind,
    /// Instruction index (instruction mode) or first phase index (phase
    /// mode) for diagnostics.
    pub at: usize,
}

/// Lowers μFSM instructions one-to-one into segments.
pub(crate) fn lower_instrs(instrs: &[Instr]) -> Vec<Seg> {
    instrs
        .iter()
        .enumerate()
        .map(|(at, instr)| {
            let kind = match instr {
                Instr::CaWriter { latches, post } => SegKind::Ca {
                    latches: latches.clone(),
                    wait: WaitSpec::Post(*post),
                },
                Instr::DataWriter { bytes, .. } => SegKind::Din { bytes: *bytes },
                Instr::DataReader { bytes, dest } => SegKind::Dout {
                    bytes: *bytes,
                    dest: Some(*dest),
                },
                Instr::Timer { .. } => SegKind::Timer,
            };
            Seg { kind, at }
        })
        .collect()
}

/// Lowers a raw bus-phase program into segments. Pauses directly after a
/// C/A group accumulate into its wait credit; consecutive data bursts (the
/// packetizer splits one logical transfer into many) merge into one
/// segment; orphan pauses elsewhere (packet gaps) carry no protocol
/// meaning and are dropped.
pub(crate) fn lower_phases(phases: &[BusPhase]) -> Vec<Seg> {
    let mut segs: Vec<Seg> = Vec::new();
    // An open C/A group: (latches, credit, first phase index).
    let mut open: Option<(Vec<Latch>, SimDuration, usize)> = None;
    let close = |open: &mut Option<(Vec<Latch>, SimDuration, usize)>, segs: &mut Vec<Seg>| {
        if let Some((latches, credit, at)) = open.take() {
            segs.push(Seg {
                kind: SegKind::Ca {
                    latches,
                    wait: WaitSpec::Credit(credit),
                },
                at,
            });
        }
    };
    for (i, phase) in phases.iter().enumerate() {
        match &phase.kind {
            PhaseKind::CmdLatch(opcode) => {
                // A pause ends the group: a new latch after it starts the
                // next segment.
                if matches!(&open, Some((_, credit, _)) if !credit.is_zero()) {
                    close(&mut open, &mut segs);
                }
                open.get_or_insert_with(|| (Vec::new(), SimDuration::ZERO, i))
                    .0
                    .push(Latch::Cmd(*opcode));
            }
            PhaseKind::AddrLatch(bytes) => {
                if matches!(&open, Some((_, credit, _)) if !credit.is_zero()) {
                    close(&mut open, &mut segs);
                }
                open.get_or_insert_with(|| (Vec::new(), SimDuration::ZERO, i))
                    .0
                    .push(Latch::Addr(bytes.clone()));
            }
            PhaseKind::Pause => {
                if let Some((_, credit, _)) = &mut open {
                    *credit += phase.duration;
                }
            }
            PhaseKind::DataIn(buf) => {
                close(&mut open, &mut segs);
                if let Some(Seg {
                    kind: SegKind::Din { bytes },
                    ..
                }) = segs.last_mut()
                {
                    *bytes += buf.len();
                } else {
                    segs.push(Seg {
                        kind: SegKind::Din { bytes: buf.len() },
                        at: i,
                    });
                }
            }
            PhaseKind::DataOut { bytes } => {
                close(&mut open, &mut segs);
                if let Some(Seg {
                    kind: SegKind::Dout { bytes: total, .. },
                    ..
                }) = segs.last_mut()
                {
                    *total += bytes;
                } else {
                    segs.push(Seg {
                        kind: SegKind::Dout {
                            bytes: *bytes,
                            dest: None,
                        },
                        at: i,
                    });
                }
            }
        }
    }
    close(&mut open, &mut segs);
    segs
}

// ---------------------------------------------------------------------------
// Abstract LUN state
// ---------------------------------------------------------------------------

/// What the LUN streams on data-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutSrc {
    Unknown,
    None,
    Status,
    Page,
    Cache,
    Param,
    Features,
    Id,
}

/// Tri-state busy knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Busy {
    Unknown,
    Idle,
    /// Busy started inside the current transaction: no time has passed in
    /// which it could have completed.
    Certain(BusyKind),
    /// Busy started earlier (or time passed): a ready observation is
    /// needed before the LUN may be assumed idle.
    Maybe(BusyKind),
}

/// Knowledge about a suspended array operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Suspended {
    Unknown,
    No,
    Maybe(BusyKind),
    Yes(BusyKind),
}

/// Tri-state flag (used for "a page has been loaded").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tri {
    Unknown,
    No,
    Yes,
}

/// Abstract state of one LUN.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LunState {
    /// The grammar's decode state; `None` when not known (single-
    /// transaction mode starts there).
    pub decode: Option<Decode>,
    /// `decode` is `ReadAddr` entered by an ONFI `00h` output restore: a
    /// legal place to stream data or end the transaction, not a pending
    /// read.
    pub restored: bool,
    pub out: OutSrc,
    /// Output source parked behind a READ STATUS (restored by `00h`).
    pub parked: OutSrc,
    pub busy: Busy,
    pub suspended: Suspended,
    pub row_loaded: Tri,
}

impl LunState {
    /// A freshly built channel: known-idle everywhere.
    pub fn reset() -> Self {
        LunState {
            decode: Some(Decode::Idle),
            restored: false,
            out: OutSrc::None,
            parked: OutSrc::None,
            busy: Busy::Idle,
            suspended: Suspended::No,
            row_loaded: Tri::No,
        }
    }

    /// Single-transaction mode: nothing is known about prior history.
    pub fn unknown() -> Self {
        LunState {
            decode: None,
            restored: false,
            out: OutSrc::Unknown,
            parked: OutSrc::Unknown,
            busy: Busy::Unknown,
            suspended: Suspended::Unknown,
            row_loaded: Tri::Unknown,
        }
    }

    /// States that are legal transaction-end points.
    fn is_rest(&self) -> bool {
        matches!(self.decode, None | Some(Decode::Idle)) || self.restored
    }

    /// The decode state, for diagnostics.
    fn state_name(&self) -> &'static str {
        if self.restored {
            "output restored"
        } else {
            self.decode.map_or("unknown", Decode::name)
        }
    }

    /// Takes `cycle` through the grammar: the action of an accepted cycle;
    /// `Err(Some(_))` for a refused one, which leaves the decoder idle as
    /// it leaves the LUN; `Err(None)` when the state is unknown and only
    /// some states take the cycle.
    fn step(&mut self, cycle: Cycle, layout: &AddrLayout) -> Result<Action, Option<Reject>> {
        match decode::step_abstract(self.decode, cycle, layout) {
            Ok((next, action)) => {
                self.restored &= next == self.decode;
                self.decode = next;
                Ok(action)
            }
            Err(Some(reject)) => {
                self.decode = Some(Decode::Idle);
                self.restored = false;
                Err(Some(reject))
            }
            Err(None) => Err(None),
        }
    }

    /// Deferred completion effect of a busy period: what becomes true once
    /// the array operation finishes. Applied when busy knowledge is
    /// demoted from `Certain` to `Maybe` (transaction boundary or explicit
    /// pause).
    fn apply_completion(&mut self, kind: BusyKind) {
        match kind {
            BusyKind::Read => {
                // LoadPage: the page register fills and becomes the bulk
                // output source (parked if a status poll is in front).
                if self.out == OutSrc::Status {
                    self.parked = OutSrc::Page;
                } else {
                    self.out = OutSrc::Page;
                }
                self.row_loaded = Tri::Yes;
            }
            BusyKind::CacheRead => self.row_loaded = Tri::Yes,
            BusyKind::ParamPage => {
                if self.out == OutSrc::Status {
                    self.parked = OutSrc::Param;
                } else {
                    self.out = OutSrc::Param;
                }
            }
            _ => {}
        }
    }

    /// Demotes certain-busy to maybe-busy, applying the completion effect
    /// (the operation *will* have completed by the time the LUN reports
    /// ready, which is the only way maybe-busy is cleared).
    pub fn demote_busy(&mut self) {
        if let Busy::Certain(kind) = self.busy {
            self.apply_completion(kind);
            self.busy = Busy::Maybe(kind);
        }
    }
}

// ---------------------------------------------------------------------------
// The interpreter
// ---------------------------------------------------------------------------

/// Outcome of one command latch, feeding the wait-requirement logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CmdOutcome {
    /// The command certainly started an array operation (tWB applies).
    busy_started: bool,
    /// The command *may* have started one (unknown prior state): skip wait
    /// diagnostics rather than guess.
    maybe_started: bool,
}

pub(crate) struct Machine<'a> {
    model: &'a TargetModel,
    txn: usize,
    report: &'a mut Report,
}

impl<'a> Machine<'a> {
    pub fn new(model: &'a TargetModel, txn: usize, report: &'a mut Report) -> Self {
        Machine { model, txn, report }
    }

    fn diag(&mut self, rule: Rule, at: usize, lun: u32, detail: String) {
        self.report.push(Diagnostic {
            rule,
            severity: rule.severity(),
            txn: self.txn,
            at: Some(at),
            lun: Some(lun),
            detail,
        });
    }

    /// Runs one LUN's state machine over a lowered segment list.
    /// `timing` supplies the wait budget thresholds in phase mode.
    /// `dout_driver` is false for every selected LUN except the
    /// lowest-numbered one: the channel drives a data-out from that LUN
    /// alone, so the others never see the phase and their output state is
    /// neither consulted nor advanced by it (the gang itself is already
    /// reported as V042 at the transaction level).
    pub fn run_lun(
        &mut self,
        lun_id: u32,
        state: &mut LunState,
        segs: &[Seg],
        timing: Option<&TimingParams>,
        dout_driver: bool,
    ) {
        for (i, seg) in segs.iter().enumerate() {
            match &seg.kind {
                SegKind::Ca { latches, .. } => {
                    let mut outcome = CmdOutcome::default();
                    let mut last_cmd = None;
                    for latch in latches {
                        match latch {
                            Latch::Cmd(opcode) => {
                                last_cmd = Some(*opcode);
                                let o = self.on_cmd(lun_id, state, *opcode, seg.at);
                                outcome.busy_started |= o.busy_started;
                                outcome.maybe_started |= o.maybe_started;
                            }
                            Latch::Addr(bytes) => {
                                let o = self.on_addr(lun_id, state, bytes, seg.at);
                                outcome.busy_started |= o.busy_started;
                                outcome.maybe_started |= o.maybe_started;
                            }
                        }
                    }
                    self.check_wait(lun_id, seg, outcome, last_cmd, segs.get(i + 1), timing);
                }
                SegKind::Din { bytes } => self.on_data_in(lun_id, state, *bytes, seg.at),
                SegKind::Dout { bytes, dest } => {
                    if dout_driver {
                        self.on_data_out(lun_id, state, *bytes, *dest, seg.at)
                    }
                }
                SegKind::Timer => {
                    // A timer is purposeful when something could be in
                    // flight on the LUN (a busy-wait or a stand-in for a
                    // confirm's tWB) or when it precedes a data phase (a
                    // hand-rolled tWHR/tCCS/tADL turnaround). With the LUN
                    // known idle and no data phase next, it only inflates
                    // the worst-case execution time.
                    let before_data = matches!(
                        segs.get(i + 1).map(|s| &s.kind),
                        Some(SegKind::Din { .. }) | Some(SegKind::Dout { .. })
                    );
                    if state.busy == Busy::Idle && !before_data {
                        self.diag(
                            Rule::RedundantWait,
                            seg.at,
                            lun_id,
                            "timer pause while the LUN is known idle — nothing to wait for"
                                .to_string(),
                        );
                    }
                    // An explicit pause gives a just-started array
                    // operation time to complete: certainty is lost.
                    state.demote_busy();
                }
            }
        }
    }

    // -- mandatory waits ----------------------------------------------------

    /// Computes the wait the segment must be followed by, and compares it
    /// with what the program actually specifies.
    fn check_wait(
        &mut self,
        lun_id: u32,
        seg: &Seg,
        outcome: CmdOutcome,
        last_cmd: Option<u8>,
        next: Option<&Seg>,
        timing: Option<&TimingParams>,
    ) {
        if outcome.maybe_started {
            // The segment may or may not have kicked off an array op; both
            // a wait and no wait are defensible. Stay silent.
            return;
        }
        let required = if outcome.busy_started {
            Some(PostWait::Wb)
        } else {
            match next.map(|s| &s.kind) {
                Some(SegKind::Dout { .. }) => Some(if last_cmd == Some(op::CHANGE_READ_COL_2) {
                    PostWait::Ccs
                } else {
                    PostWait::Whr
                }),
                Some(SegKind::Din { .. }) => Some(if last_cmd == Some(op::CHANGE_WRITE_COL) {
                    PostWait::Ccs
                } else {
                    PostWait::Adl
                }),
                _ => None,
            }
        };
        let wait = match &seg.kind {
            SegKind::Ca { wait, .. } => wait,
            _ => return,
        };
        match wait {
            WaitSpec::Post(post) => match (required, *post) {
                (Some(req), found) if req == found => {}
                (Some(_), _) if matches!(next.map(|s| &s.kind), Some(SegKind::Timer)) => {
                    // An explicit Timer instruction after the segment is an
                    // acceptable hand-rolled wait.
                }
                (Some(req), PostWait::None) => self.diag(
                    Rule::MissingWait,
                    seg.at,
                    lun_id,
                    format!("expected {}, found no trailing wait", wait_name(req)),
                ),
                (Some(req), found) => self.diag(
                    Rule::WrongWait,
                    seg.at,
                    lun_id,
                    format!("expected {}, found {}", wait_name(req), wait_name(found)),
                ),
                (None, PostWait::None) => {}
                (None, found) => self.diag(
                    Rule::SpuriousWait,
                    seg.at,
                    lun_id,
                    format!(
                        "{} trails a segment that requires no wait",
                        wait_name(found)
                    ),
                ),
            },
            WaitSpec::Credit(credit) => {
                // Phase mode: the program carries explicit pause durations;
                // check the budget covers the requirement. (No spurious
                // check — generous pauses are merely slow.)
                if let (Some(req), Some(t)) = (required, timing) {
                    let need = match req {
                        PostWait::None => SimDuration::ZERO,
                        PostWait::Wb => t.t_wb,
                        PostWait::Whr => t.t_whr,
                        PostWait::Adl => t.t_adl,
                        PostWait::Ccs => t.t_ccs,
                    };
                    if *credit < need {
                        self.diag(
                            Rule::MissingWait,
                            seg.at,
                            lun_id,
                            format!(
                                "expected a pause of at least {need:?} ({}), found {credit:?}",
                                wait_name(req)
                            ),
                        );
                    }
                }
            }
        }
    }

    // -- command latches ----------------------------------------------------

    fn on_cmd(&mut self, lun_id: u32, s: &mut LunState, opcode: u8, at: usize) -> CmdOutcome {
        let found = s.state_name();
        let pending = !s.is_rest();
        let stepped = s.step(Cycle::Cmd(opcode), &self.model.layout);
        if stepped == Err(Some(Reject::Unsupported)) {
            let (rule, detail) = if classify(opcode) == OpClass::Unknown {
                let detail = format!("opcode {opcode:#04x} is not a recognized ONFI command");
                (Rule::UnknownOpcode, detail)
            } else {
                let detail = format!(
                    "{} is not implemented by the package model",
                    mnemonic(opcode)
                );
                (Rule::UnsupportedOpcode, detail)
            };
            self.diag(rule, at, lun_id, detail);
            return CmdOutcome::default();
        }

        // Busy discipline: only status/reset/suspend commands may interrupt
        // a known array operation (cache operations exempt everything).
        match s.busy {
            Busy::Certain(kind) if !kind.admits(opcode) => self.diag(
                Rule::BusyViolation,
                at,
                lun_id,
                format!("{} issued during {}", mnemonic(opcode), kind.name()),
            ),
            Busy::Maybe(kind) if !kind.admits(opcode) => self.diag(
                Rule::MaybeBusyViolation,
                at,
                lun_id,
                format!(
                    "{} issued while {} may still be in progress (no ready observation)",
                    mnemonic(opcode),
                    kind.name()
                ),
            ),
            _ => {}
        }

        // A fresh command while a latch sequence is half-done silently
        // drops the pending state on real parts — almost always a bug.
        // Data-accepting states are consumed by data phases, not commands;
        // a command there is a real abandonment too.
        if pending && !decode::consumes_pending(opcode) {
            self.diag(
                Rule::AbandonedSequence,
                at,
                lun_id,
                format!("{} abandons a pending sequence ({found})", mnemonic(opcode)),
            );
        }

        match stepped {
            Ok(action) => self.apply(lun_id, s, action, opcode, &[], at),
            // Unsupported opcodes returned above: a command is refused only
            // for the state it needs.
            Err(Some(Reject::Expected(want))) => {
                self.diag(
                    Rule::ConfirmWithoutStart,
                    at,
                    lun_id,
                    format!(
                        "{} expects the LUN {}, found it {found}",
                        mnemonic(opcode),
                        want.name()
                    ),
                );
                CmdOutcome::default()
            }
            Err(Some(reject)) => unreachable!("a command refused with {reject:?}"),
            Err(None) => CmdOutcome {
                busy_started: false,
                maybe_started: true,
            },
        }
    }

    fn on_addr(&mut self, lun_id: u32, s: &mut LunState, bytes: &[u8], at: usize) -> CmdOutcome {
        let found = s.state_name();
        let n = bytes.len();
        match s.step(Cycle::Addr(n), &self.model.layout) {
            Ok(action) => return self.apply(lun_id, s, action, 0, bytes, at),
            Err(Some(Reject::AddrLength(want))) => self.diag(
                Rule::BadAddressLength,
                at,
                lun_id,
                format!("a LUN {found} expects {want} address cycle(s), found {n}"),
            ),
            Err(Some(_)) => self.diag(
                Rule::UnexpectedAddress,
                at,
                lun_id,
                format!("address latch ({n} cycles) while the LUN is {found}"),
            ),
            Err(None) => {
                return CmdOutcome {
                    busy_started: false,
                    maybe_started: true,
                }
            }
        }
        CmdOutcome::default()
    }

    /// Applies an accepted command (`opcode`) or address (`bytes`) over
    /// the abstract state.
    fn apply(
        &mut self,
        lun_id: u32,
        s: &mut LunState,
        action: Action,
        opcode: u8,
        bytes: &[u8],
        at: usize,
    ) -> CmdOutcome {
        let mut out = CmdOutcome::default();
        match action {
            Action::Status => {
                if s.out != OutSrc::Status {
                    s.parked = s.out;
                }
                s.out = OutSrc::Status;
            }
            Action::Restore => {
                // ONFI 00h output restore.
                s.restored = s.out == OutSrc::Status;
                if s.restored {
                    s.out = match s.parked {
                        OutSrc::None | OutSrc::Status => match s.busy {
                            Busy::Certain(k) | Busy::Maybe(k) if k.allows_data_out() => {
                                OutSrc::Cache
                            }
                            _ => OutSrc::Page,
                        },
                        other => other,
                    };
                }
            }
            Action::Busy(BusyKind::Reset) => {
                s.out = OutSrc::None;
                s.parked = OutSrc::None;
                s.suspended = Suspended::No;
                s.busy = Busy::Certain(BusyKind::Reset);
                out.busy_started = true;
            }
            Action::Suspend => match s.busy {
                Busy::Certain(kind) => {
                    if kind.suspended_by(opcode) {
                        s.suspended = Suspended::Yes(kind);
                        s.busy = Busy::Certain(BusyKind::Suspending);
                        out.busy_started = true;
                    } else {
                        self.diag(
                            Rule::BusyViolation,
                            at,
                            lun_id,
                            format!(
                                "{} does not match the running {}",
                                mnemonic(opcode),
                                kind.name()
                            ),
                        );
                    }
                }
                Busy::Maybe(kind) => {
                    if kind.suspended_by(opcode) {
                        s.suspended = Suspended::Maybe(kind);
                        s.busy = Busy::Maybe(BusyKind::Suspending);
                        out.maybe_started = true;
                    } else {
                        self.diag(
                            Rule::MaybeBusyViolation,
                            at,
                            lun_id,
                            format!(
                                "{} may not match a still-running {}",
                                mnemonic(opcode),
                                kind.name()
                            ),
                        );
                    }
                }
                Busy::Idle => {} // suspending an idle LUN is a no-op
                Busy::Unknown => out.maybe_started = true,
            },
            Action::Resume => match s.suspended {
                Suspended::Yes(kind) => {
                    s.suspended = Suspended::No;
                    s.busy = Busy::Certain(kind);
                    out.busy_started = true;
                }
                Suspended::Maybe(kind) => {
                    s.suspended = Suspended::No;
                    s.busy = Busy::Maybe(kind);
                    out.maybe_started = true;
                }
                Suspended::No => {} // resuming with nothing suspended is a no-op
                Suspended::Unknown => out.maybe_started = true,
            },
            Action::Busy(BusyKind::CacheRead) => match s.row_loaded {
                Tri::Yes => {
                    s.out = OutSrc::Cache;
                    s.busy = Busy::Certain(BusyKind::CacheRead);
                    out.busy_started = true;
                }
                Tri::No => {
                    self.diag(
                        Rule::ConfirmWithoutStart,
                        at,
                        lun_id,
                        format!("{} with no page loaded to continue from", mnemonic(opcode)),
                    );
                }
                Tri::Unknown => {
                    s.out = OutSrc::Cache;
                    s.busy = Busy::Maybe(BusyKind::CacheRead);
                    out.maybe_started = true;
                }
            },
            Action::CacheEnd => {
                s.out = OutSrc::Cache;
                s.busy = Busy::Certain(BusyKind::CacheRead);
                out.busy_started = true;
            }
            Action::Busy(kind) => {
                if kind == BusyKind::Read {
                    s.out = OutSrc::None;
                }
                s.busy = Busy::Certain(kind);
                out.busy_started = true;
            }
            Action::SelectColumn => {
                if !matches!(s.out, OutSrc::Cache | OutSrc::Param | OutSrc::Unknown) {
                    s.out = OutSrc::Page;
                }
            }
            Action::LatchPage | Action::LatchProgram => {
                self.check_row(lun_id, at, &bytes[self.model.layout.col_cycles..])
            }
            Action::LatchBlock => self.check_row(lun_id, at, bytes),
            Action::ReadFeature => s.out = OutSrc::Features,
            Action::ReadId => s.out = OutSrc::Id,
            Action::None
            | Action::ArmPslc
            | Action::ArmRetry
            | Action::LatchColumn
            | Action::LatchWriteColumn
            | Action::LatchFeature
            | Action::Write
            | Action::SetFeature => {}
        }
        out
    }

    /// Bounds-checks a packed row address against the package geometry.
    fn check_row(&mut self, lun_id: u32, at: usize, row_bytes: &[u8]) {
        let row = self.model.layout.unpack_row(row_bytes);
        if row.block >= self.model.blocks_per_lun || row.page >= self.model.pages_per_block {
            self.diag(
                Rule::RowOutOfBounds,
                at,
                lun_id,
                format!(
                    "row {row} outside geometry ({} blocks x {} pages per LUN)",
                    self.model.blocks_per_lun, self.model.pages_per_block
                ),
            );
        }
    }

    // -- data phases ---------------------------------------------------------

    fn on_data_in(&mut self, lun_id: u32, s: &mut LunState, bytes: usize, at: usize) {
        let found = s.state_name();
        match s.step(Cycle::DataIn, &self.model.layout) {
            Ok(Action::Write) => {
                if bytes > self.model.raw_page_size {
                    self.diag(
                        Rule::OversizeDataIn,
                        at,
                        lun_id,
                        format!(
                            "{bytes} bytes into a {}-byte page register (truncated)",
                            self.model.raw_page_size
                        ),
                    );
                }
            }
            Ok(_) => {
                if bytes != 4 {
                    self.diag(
                        Rule::FeatureDataLength,
                        at,
                        lun_id,
                        format!("SET FEATURES expects exactly 4 parameter bytes, found {bytes}"),
                    );
                }
            }
            Err(Some(_)) => self.diag(
                Rule::DataInIllegal,
                at,
                lun_id,
                format!("data-in ({bytes} bytes) while the LUN is {found}"),
            ),
            Err(None) => {}
        }
    }

    fn on_data_out(
        &mut self,
        lun_id: u32,
        s: &mut LunState,
        bytes: usize,
        dest: Option<DmaDest>,
        at: usize,
    ) {
        // A zero-byte mover emits no bus phases, so the simulator never
        // consults the LUN: none of the sim-enforced checks below can
        // apply. V071 (dead instruction) is the right diagnosis.
        if bytes == 0 {
            return;
        }
        // DMA window check (model-dependent; only when a DRAM size is set).
        if let (Some(DmaDest::Dram(base)), Some(limit)) = (dest, self.model.dram_bytes) {
            let end = base.checked_add(bytes as u64);
            if end.is_none() || end.unwrap() > limit {
                self.diag(
                    Rule::DmaOutOfBounds,
                    at,
                    lun_id,
                    format!("DMA [{base:#x}, +{bytes}) exceeds the {limit}-byte DRAM window"),
                );
            }
        }
        // Busy discipline: only a status byte (or a cache register) may
        // stream while the array works.
        match s.busy {
            Busy::Certain(kind) if !kind.allows_data_out() && s.out != OutSrc::Status => {
                self.diag(
                    Rule::BusyViolation,
                    at,
                    lun_id,
                    format!("data-out ({bytes} bytes) during {}", kind.name()),
                );
            }
            Busy::Maybe(kind) if !kind.allows_data_out() && s.out != OutSrc::Status => {
                self.diag(
                    Rule::MaybeBusyViolation,
                    at,
                    lun_id,
                    format!(
                        "data-out ({bytes} bytes) while {} may still be in progress",
                        kind.name()
                    ),
                );
            }
            _ => {}
        }
        match s.out {
            OutSrc::Unknown => {}
            OutSrc::None => self.diag(
                Rule::DataOutIllegal,
                at,
                lun_id,
                format!("data-out ({bytes} bytes) with no output source selected"),
            ),
            OutSrc::Status => {
                // Polling loops read status until ready: observing the
                // status register is the one thing that clears maybe-busy.
                if matches!(s.busy, Busy::Maybe(_)) {
                    s.busy = Busy::Idle;
                }
            }
            OutSrc::Page | OutSrc::Cache => {
                if bytes > self.model.raw_page_size {
                    self.diag(
                        Rule::OversizeDataOut,
                        at,
                        lun_id,
                        format!(
                            "{bytes} bytes from a {}-byte page register (padded)",
                            self.model.raw_page_size
                        ),
                    );
                }
            }
            OutSrc::Param => {
                if bytes > PARAM_PAGE_BYTES {
                    self.diag(
                        Rule::OversizeDataOut,
                        at,
                        lun_id,
                        format!("{bytes} bytes from the {PARAM_PAGE_BYTES}-byte parameter page"),
                    );
                }
            }
            // Feature/ID reads repeat or pad; any length is served.
            OutSrc::Features | OutSrc::Id => {}
        }
    }

    /// Transaction-boundary hygiene for one LUN.
    pub fn end_of_transaction(&mut self, lun_id: u32, state: &mut LunState, last_at: usize) {
        if !state.is_rest() {
            self.diag(
                Rule::DanglingSequence,
                last_at,
                lun_id,
                format!(
                    "transaction ends with the LUN {} — not a legal deschedule point",
                    state.state_name()
                ),
            );
        }
        // Between transactions the channel is released and time passes:
        // certain-busy decays to maybe-busy (with its completion effect).
        state.demote_busy();
    }
}

fn wait_name(post: PostWait) -> &'static str {
    match post {
        PostWait::None => "no wait",
        PostWait::Wb => "tWB",
        PostWait::Whr => "tWHR",
        PostWait::Adl => "tADL",
        PostWait::Ccs => "tCCS",
    }
}

#[cfg(test)]
mod tests {
    //! The three consumers of the shared grammar — the flash model's LUN,
    //! this verifier and the envelope analyzer — agree on every reachable
    //! (decode state, opcode), (decode state, address length) and
    //! (decode state, data-in) pair: on accept or reject, on the state
    //! each ends in, and on the busy period each starts.

    use super::*;
    use crate::envelope::{ArrayBounds, EnvLun, Event, Interval};
    use babol_flash::lun::{Lun, LunConfig, LunResponse};
    use babol_flash::PackageProfile;
    use babol_onfi::decode::step;
    use babol_sim::{PageData, SimTime};

    /// The busy period each accepted cycle starts, as the datasheet has it,
    /// written apart from the grammar's table so a kind swapped there is
    /// caught.
    fn datasheet_busy(state: Decode, cycle: Cycle) -> Option<BusyKind> {
        Some(match (state, cycle) {
            (_, Cycle::Cmd(op::READ_2)) => BusyKind::Read,
            (_, Cycle::Cmd(op::MULTI_PLANE_NEXT)) => BusyKind::PlaneQueue,
            (_, Cycle::Cmd(op::READ_CACHE_SEQ | op::READ_CACHE_END)) => BusyKind::CacheRead,
            (_, Cycle::Cmd(op::PROGRAM_2)) => BusyKind::Program,
            (_, Cycle::Cmd(op::PROGRAM_CACHE)) => BusyKind::CacheProgram,
            (_, Cycle::Cmd(op::ERASE_2)) => BusyKind::Erase,
            (_, Cycle::Cmd(op::RESET | op::SYNC_RESET)) => BusyKind::Reset,
            (Decode::ParamAddr, Cycle::Addr(_)) => BusyKind::ParamPage,
            _ => return None,
        })
    }

    /// Every cycle the pairs cover: each defined opcode and one undefined
    /// one, address lengths from zero to one past a full address, and a
    /// four-byte data-in.
    fn cycles(layout: &AddrLayout) -> Vec<Cycle> {
        let mut all: Vec<Cycle> = op::ALL.iter().map(|&o| Cycle::Cmd(o)).collect();
        all.push(Cycle::Cmd(0xA7));
        all.extend((0..=layout.full_cycles() + 1).map(Cycle::Addr));
        all.push(Cycle::DataIn);
        all
    }

    /// A shortest path of cycles from idle to every state, over cycles
    /// that start no busy period.
    fn paths(layout: &AddrLayout) -> Vec<(Decode, Vec<Cycle>)> {
        let mut found = vec![(Decode::Idle, Vec::new())];
        let mut i = 0;
        while i < found.len() {
            let (state, path) = found[i].clone();
            for cycle in cycles(layout) {
                if let Ok((next, action)) = step(state, cycle, layout) {
                    let starts_busy = matches!(action, Action::Busy(_) | Action::CacheEnd);
                    if !starts_busy && found.iter().all(|(s, _)| *s != next) {
                        let mut longer = path.clone();
                        longer.push(cycle);
                        found.push((next, longer));
                    }
                }
            }
            i += 1;
        }
        found
    }

    /// Plays `cycle` on the LUN at `now`: whether it is taken.
    fn play(lun: &mut Lun, now: SimTime, cycle: Cycle) -> bool {
        let kind = match cycle {
            Cycle::Cmd(opcode) => PhaseKind::CmdLatch(opcode),
            Cycle::Addr(n) => PhaseKind::AddrLatch(vec![0; n]),
            Cycle::DataIn => PhaseKind::DataIn(PageData::fill(0, 4)),
        };
        let phase = BusPhase::new(kind, SimDuration::ZERO);
        matches!(lun.phase(now, &phase), Ok(LunResponse::Accepted))
    }

    #[test]
    fn lun_verifier_and_envelope_agree_on_every_pair() {
        let profile = PackageProfile::test_tiny();
        let model = TargetModel::from_profile(&profile);
        let layout = model.layout;
        let bounds = ArrayBounds::from_profile(&profile);
        let paths = paths(&layout);
        assert_eq!(paths.len(), Decode::ALL.len(), "every state is reachable");
        let mut pairs = 0;
        for (state, path) in &paths {
            for cycle in cycles(&layout) {
                let at = format!("{cycle:?} from {state:?}");

                // The LUN: a page loaded (so a cache read has one to
                // continue from), then the path, then the cycle.
                let mut lun = Lun::new(LunConfig::test_default());
                let mut now = SimTime::ZERO;
                let load = [Cycle::Cmd(op::READ_1), Cycle::Addr(layout.full_cycles())];
                for c in load.into_iter().chain([Cycle::Cmd(op::READ_2)]) {
                    assert!(play(&mut lun, now, c));
                }
                now = lun.busy_until().unwrap() + SimDuration::from_nanos(1);
                for &c in path {
                    assert!(play(&mut lun, now, c), "path {path:?}");
                }
                assert_eq!(lun.decode_state(), *state, "path {path:?}");
                let lun_ok = play(&mut lun, now, cycle);

                // The verifier, from the same known state.
                let mut report = Report::new();
                let mut v = LunState::reset();
                v.decode = Some(*state);
                v.out = OutSrc::Page;
                v.row_loaded = Tri::Yes;
                let mut m = Machine::new(&model, 0, &mut report);
                match cycle {
                    Cycle::Cmd(opcode) => drop(m.on_cmd(0, &mut v, opcode, 0)),
                    Cycle::Addr(n) => drop(m.on_addr(0, &mut v, &vec![0; n], 0)),
                    Cycle::DataIn => m.on_data_in(0, &mut v, 4, 0),
                }
                let verifier_ok = !report.has_errors();

                // The envelope, from the same known state.
                let mut e = EnvLun::power_on();
                e.dec = Some(*state);
                let addr = vec![0; layout.full_cycles() + 1];
                let data = PageData::fill(0, 4);
                let event = match cycle {
                    Cycle::Cmd(opcode) => Event::Cmd(opcode),
                    Cycle::Addr(n) => Event::Addr(&addr[..n]),
                    Cycle::DataIn => Event::DataIn {
                        bytes: 4,
                        value: Some(&data),
                    },
                };
                let (mut energy, mut moved) = (Interval::ZERO, Interval::ZERO);
                e.on_event(0, &event, &bounds, &mut energy, &mut moved);
                let envelope_ok = e.dec.is_some();

                assert_eq!(lun_ok, verifier_ok, "{at}: LUN vs verifier accept");
                assert_eq!(lun_ok, envelope_ok, "{at}: LUN vs envelope accept");
                assert_eq!(Some(lun.decode_state()), v.decode, "{at}: next state");
                if lun_ok {
                    assert_eq!(e.dec, v.decode, "{at}: envelope next state");
                }
                let verifier_busy = match v.busy {
                    Busy::Certain(kind) => Some(kind),
                    _ => None,
                };
                let want = datasheet_busy(*state, cycle).filter(|_| lun_ok);
                assert_eq!(lun.busy_kind(), want, "{at}: LUN busy");
                assert_eq!(verifier_busy, want, "{at}: verifier busy");
                assert_eq!(e.busy.map(|b| b.kind), want, "{at}: envelope busy");
                pairs += 1;
            }
        }
        assert_eq!(pairs, Decode::ALL.len() * cycles(&layout).len());
    }
}
