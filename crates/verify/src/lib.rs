//! BABOL's static μFSM program verifier: an ONFI-protocol linter.
//!
//! The paper's premise (§III–IV) turns flash operations into *software* —
//! routines that enqueue μFSM instructions — which moves operation bugs
//! from FPGA synthesis time to run time: a malformed [`Transaction`] is
//! discovered only when the waveform goes wrong on the bus. This crate
//! closes that gap with an abstract interpreter that symbolically executes
//! a transaction against an ONFI 4.x command-sequence state machine and a
//! target-geometry model, *before* (or instead of) running it.
//!
//! It checks command/confirm sequencing (`READ(1) → address → READ(2)`,
//! program and erase pairs, vendor prefixes), address-cycle counts against
//! the package geometry, mandatory post-segment waits (tWB/tWHR/tADL/tCCS
//! — both missing and spurious), data-direction legality and sizes, DMA
//! bounds, chip-mask rules, and transaction-boundary hygiene. Each finding
//! is a structured [`Diagnostic`] with a stable rule id (see [`Rule`]).
//!
//! Three ways in:
//!
//! - [`Verifier`] over a stream of transactions ([`Verifier::sequence`])
//!   or raw bus-phase programs ([`Verifier::check_phases`]) — what the
//!   `ufsm_lint` CLI uses to lint shipped operations and the hard-coded
//!   baseline controllers.
//! - [`verify_transaction`] for a single transaction with no history
//!   (conservative: unknown prior state suppresses, never invents,
//!   findings).
//! - [`install_debug_hook`]: in debug builds, every
//!   [`babol_ufsm::execute`] verifies its transaction first and panics on
//!   an error-severity finding. In release builds the hook — and the call
//!   site in the execution engine — compile out entirely.
//!
//! # Examples
//!
//! ```
//! use babol_flash::PackageProfile;
//! use babol_onfi::bus::ChipMask;
//! use babol_onfi::opcode::op;
//! use babol_ufsm::{DmaDest, Latch, PostWait, Transaction};
//! use babol_verify::{verify_transaction, Rule, TargetModel};
//!
//! let model = TargetModel::from_profile(&PackageProfile::test_tiny());
//! // READ STATUS without the mandatory tWHR before the data byte:
//! let txn = Transaction::new(ChipMask::single(0))
//!     .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::None)
//!     .read(1, DmaDest::Inline);
//! let report = verify_transaction(&model, &txn);
//! assert!(report.has_rule(Rule::MissingWait));
//! ```

mod machine;

pub mod diag;
pub mod envelope;
pub mod rules;

pub use diag::{Diagnostic, Report};
pub use envelope::{EnergyCosts, Envelope, EnvelopeAnalyzer, EnvelopeConfig, Interval};
pub use rules::{Rule, Severity};

use babol_channel::Channel;
use babol_flash::PackageProfile;
use babol_onfi::addr::AddrLayout;
use babol_onfi::bus::{BusPhase, ChipMask, PhaseKind};
use babol_onfi::opcode::op;
use babol_onfi::timing::TimingParams;
use babol_sim::SimDuration;
use babol_ufsm::{Instr, Latch, Transaction};

use machine::{LunState, Machine};

/// The geometry/topology facts the verifier checks against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetModel {
    /// Address-cycle layout the channel's LUNs decode with.
    pub layout: AddrLayout,
    /// Page register size including the spare area, in bytes.
    pub raw_page_size: usize,
    /// Blocks per LUN.
    pub blocks_per_lun: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// LUNs wired to the channel.
    pub luns: u32,
    /// Modelled DRAM size for DMA bounds checks (`None` disables V050).
    pub dram_bytes: Option<u64>,
    /// The longest worst-case array-busy window of the package
    /// ([`PackageProfile::worst_array_window`]): a timer or pause longer
    /// than this cannot correspond to any protocol wait (V070).
    pub worst_wait: SimDuration,
}

impl TargetModel {
    /// Model for a channel fully populated with one package profile.
    pub fn from_profile(profile: &PackageProfile) -> Self {
        let g = &profile.geometry;
        TargetModel {
            layout: profile.layout(),
            raw_page_size: g.raw_page_size(),
            blocks_per_lun: g.blocks_per_lun(),
            pages_per_block: g.pages_per_block,
            luns: profile.luns_per_channel,
            dram_bytes: None,
            worst_wait: profile.worst_array_window(),
        }
    }

    /// Model matching a live channel (profile of LUN 0, actual LUN count).
    pub fn from_channel(channel: &Channel) -> Self {
        let mut model = Self::from_profile(channel.lun(0).profile());
        model.luns = channel.lun_count();
        model
    }

    /// Enables DMA bounds checking against a DRAM of `bytes` bytes.
    pub fn with_dram_bytes(mut self, bytes: u64) -> Self {
        self.dram_bytes = Some(bytes);
        self
    }
}

/// How much prior history the verifier assumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The stream starts from a freshly built channel: every LUN is known
    /// idle. Missing setup (e.g. a confirm with no prior latch) is an
    /// error. Used by the linter and the mutation harness.
    Sequence,
    /// Each transaction is judged in isolation: prior state is unknown,
    /// and anything a consistent history could make legal is accepted.
    /// Used by the debug execute hook.
    Standalone,
}

/// The verifier: feed it transactions (or phase programs), then
/// [`finish`](Verifier::finish) for the report.
#[derive(Debug)]
pub struct Verifier {
    model: TargetModel,
    mode: Mode,
    luns: Vec<LunState>,
    report: Report,
    txn_index: usize,
}

impl Verifier {
    /// Stream verification from power-on state.
    pub fn sequence(model: TargetModel) -> Self {
        Self::with_mode(model, Mode::Sequence)
    }

    /// Single-transaction verification with unknown prior state.
    pub fn standalone(model: TargetModel) -> Self {
        Self::with_mode(model, Mode::Standalone)
    }

    fn with_mode(model: TargetModel, mode: Mode) -> Self {
        let init = match mode {
            Mode::Sequence => LunState::reset(),
            Mode::Standalone => LunState::unknown(),
        };
        let luns = vec![init; model.luns as usize];
        Verifier {
            model,
            mode,
            luns,
            report: Report::new(),
            txn_index: 0,
        }
    }

    /// Verifies one μFSM transaction.
    pub fn check_transaction(&mut self, txn: &Transaction) {
        if self.mode == Mode::Standalone {
            // No cross-transaction knowledge in standalone mode.
            for lun in &mut self.luns {
                *lun = LunState::unknown();
            }
        }
        let t = self.txn_index;
        self.txn_index += 1;
        let mask = txn.chip_mask();
        let instrs = txn.instrs();

        if instrs.is_empty() {
            self.push_txn_diag(Rule::EmptyTransaction, t, "transaction has no instructions");
        }
        if mask.is_empty() {
            self.push_txn_diag(Rule::EmptyChipMask, t, "chip mask selects no LUNs");
            return;
        }
        for chip in mask.iter() {
            if chip >= self.model.luns {
                self.push_txn_diag(
                    Rule::ChipOutOfRange,
                    t,
                    &format!(
                        "chip {chip} selected but only {} LUN(s) are wired",
                        self.model.luns
                    ),
                );
            }
        }
        if mask.count() > 1 {
            for (at, instr) in instrs.iter().enumerate() {
                if let Instr::DataReader { bytes, .. } = instr {
                    self.report.push(Diagnostic {
                        rule: Rule::MultiChipDataOut,
                        severity: Rule::MultiChipDataOut.severity(),
                        txn: t,
                        at: Some(at),
                        lun: None,
                        detail: format!(
                            "data-out ({bytes} bytes) with {} chips selected — only the \
                             lowest-numbered LUN's bytes are returned",
                            mask.count()
                        ),
                    });
                }
            }
        }

        // Timing hygiene over the raw instruction list: waveform-free
        // instructions and statically-unbounded waits (V07x family).
        let mut reset_at: Option<usize> = None;
        for (at, instr) in instrs.iter().enumerate() {
            if let Some(r) = reset_at {
                // RESET holds the LUN busy for the rest of the transaction
                // and only status/reset commands would be accepted: the
                // tail cannot take effect.
                self.push_instr_diag(
                    Rule::DeadInstr,
                    t,
                    at,
                    &format!("unreachable: follows the RESET confirm at instruction {r}"),
                );
                break;
            }
            match instr {
                Instr::CaWriter { latches, .. } if latches.is_empty() => self.push_instr_diag(
                    Rule::DeadInstr,
                    t,
                    at,
                    "C/A writer with no latches emits no waveform",
                ),
                Instr::CaWriter { latches, .. }
                    if latches
                        .iter()
                        .any(|l| matches!(l, Latch::Cmd(op::RESET | op::SYNC_RESET))) =>
                {
                    reset_at = Some(at);
                }
                Instr::DataWriter { bytes: 0, .. } => self.push_instr_diag(
                    Rule::DeadInstr,
                    t,
                    at,
                    "zero-byte data-in emits no phases",
                ),
                Instr::DataReader { bytes: 0, .. } => self.push_instr_diag(
                    Rule::DeadInstr,
                    t,
                    at,
                    "zero-byte data-out emits no phases",
                ),
                Instr::Timer { duration } if duration.is_zero() => {
                    self.push_instr_diag(Rule::DeadInstr, t, at, "zero-length timer emits no pause")
                }
                Instr::Timer { duration } if *duration > self.model.worst_wait => self
                    .push_instr_diag(
                        Rule::UnboundedWait,
                        t,
                        at,
                        &format!(
                            "timer of {duration:?} exceeds the longest worst-case array window \
                             ({:?}) — no protocol wait can need it",
                            self.model.worst_wait
                        ),
                    ),
                _ => {}
            }
        }

        let segs = machine::lower_instrs(instrs);
        let last_at = instrs.len().saturating_sub(1);
        // Data-out only drives from the lowest selected LUN (see
        // `Channel::transmit`); the others never observe those phases.
        let driver = mask.iter().next();
        for chip in mask.iter().filter(|&c| c < self.model.luns) {
            let mut state = self.luns[chip as usize];
            let mut m = Machine::new(&self.model, t, &mut self.report);
            m.run_lun(chip, &mut state, &segs, None, Some(chip) == driver);
            m.end_of_transaction(chip, &mut state, last_at);
            self.luns[chip as usize] = state;
        }
    }

    /// Verifies a raw bus-phase program (one channel-monopolizing segment),
    /// as emitted by the hard-coded baseline controllers. Mandatory waits
    /// are checked as pause budgets against `timing`.
    pub fn check_phases(&mut self, chips: ChipMask, phases: &[BusPhase], timing: &TimingParams) {
        if self.mode == Mode::Standalone {
            for lun in &mut self.luns {
                *lun = LunState::unknown();
            }
        }
        let t = self.txn_index;
        self.txn_index += 1;
        if chips.is_empty() {
            self.push_txn_diag(Rule::EmptyChipMask, t, "chip mask selects no LUNs");
            return;
        }
        for (at, phase) in phases.iter().enumerate() {
            if matches!(phase.kind, PhaseKind::Pause) && phase.duration > self.model.worst_wait {
                self.push_instr_diag(
                    Rule::UnboundedWait,
                    t,
                    at,
                    &format!(
                        "pause of {:?} exceeds the longest worst-case array window ({:?}) — \
                         no protocol wait can need it",
                        phase.duration, self.model.worst_wait
                    ),
                );
            }
        }
        let segs = machine::lower_phases(phases);
        let last_at = phases.len().saturating_sub(1);
        let driver = chips.iter().next();
        for chip in chips.iter().filter(|&c| c < self.model.luns) {
            let mut state = self.luns[chip as usize];
            let mut m = Machine::new(&self.model, t, &mut self.report);
            m.run_lun(chip, &mut state, &segs, Some(timing), Some(chip) == driver);
            m.end_of_transaction(chip, &mut state, last_at);
            self.luns[chip as usize] = state;
        }
    }

    fn push_instr_diag(&mut self, rule: Rule, txn: usize, at: usize, detail: &str) {
        self.report.push(Diagnostic {
            rule,
            severity: rule.severity(),
            txn,
            at: Some(at),
            lun: None,
            detail: detail.to_string(),
        });
    }

    fn push_txn_diag(&mut self, rule: Rule, txn: usize, detail: &str) {
        self.report.push(Diagnostic {
            rule,
            severity: rule.severity(),
            txn,
            at: None,
            lun: None,
            detail: detail.to_string(),
        });
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Consumes the verifier, returning the full report.
    pub fn finish(self) -> Report {
        self.report
    }
}

/// Verifies a single transaction with no assumed history.
pub fn verify_transaction(model: &TargetModel, txn: &Transaction) -> Report {
    let mut v = Verifier::standalone(model.clone());
    v.check_transaction(txn);
    v.finish()
}

/// Verifies a transaction stream from power-on state.
pub fn verify_stream<'a>(
    model: &TargetModel,
    txns: impl IntoIterator<Item = &'a Transaction>,
) -> Report {
    let mut v = Verifier::sequence(model.clone());
    for txn in txns {
        v.check_transaction(txn);
    }
    v.finish()
}

/// Installs the debug-build execute-time gate: every transaction handed to
/// [`babol_ufsm::execute`] is verified in standalone mode first, and an
/// error-severity finding panics with the full report. Release builds
/// compile this to nothing — the hook, the check, and the engine's call
/// site all vanish.
///
/// Installing twice (or from several controllers) is fine; the first
/// installation wins and the rest are no-ops.
pub fn install_debug_hook() {
    #[cfg(debug_assertions)]
    babol_ufsm::hook::install(|channel, txn| {
        let model = TargetModel::from_channel(channel);
        let report = verify_transaction(&model, txn);
        if report.has_errors() {
            Err(report.to_string())
        } else {
            Ok(())
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use babol_onfi::opcode::op;
    use babol_sim::SimDuration;
    use babol_ufsm::{DmaDest, Latch, PostWait};

    fn model() -> TargetModel {
        TargetModel::from_profile(&PackageProfile::test_tiny())
    }

    fn addr_full(col: u32, block: u32, page: u32) -> Vec<u8> {
        model().layout.pack_full(
            babol_onfi::addr::ColumnAddr(col),
            babol_onfi::addr::RowAddr {
                lun: 0,
                block,
                page,
            },
        )
    }

    fn read_latch() -> Transaction {
        Transaction::new(ChipMask::single(0)).ca(
            vec![
                Latch::Cmd(op::READ_1),
                Latch::Addr(addr_full(0, 0, 0)),
                Latch::Cmd(op::READ_2),
            ],
            PostWait::Wb,
        )
    }

    fn status_poll() -> Transaction {
        Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline)
    }

    fn fetch(bytes: usize) -> Transaction {
        Transaction::new(ChipMask::single(0))
            .ca(
                vec![
                    Latch::Cmd(op::CHANGE_READ_COL_1),
                    Latch::Addr(model().layout.pack_col(babol_onfi::addr::ColumnAddr(0))),
                    Latch::Cmd(op::CHANGE_READ_COL_2),
                ],
                PostWait::Ccs,
            )
            .read(bytes, DmaDest::Dram(0))
    }

    #[test]
    fn clean_read_sequence_is_clean() {
        let report = verify_stream(&model(), &[read_latch(), status_poll(), fetch(512)]);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn confirm_without_start() {
        let txn =
            Transaction::new(ChipMask::single(0)).ca(vec![Latch::Cmd(op::READ_2)], PostWait::Wb);
        let report = verify_stream(&model(), &[txn]);
        assert!(report.has_rule(Rule::ConfirmWithoutStart), "{report}");
    }

    #[test]
    fn standalone_mode_gives_unknown_state_the_benefit_of_the_doubt() {
        // A bare confirm could legally follow a latch from an earlier
        // transaction: standalone mode stays silent...
        let txn =
            Transaction::new(ChipMask::single(0)).ca(vec![Latch::Cmd(op::READ_2)], PostWait::Wb);
        assert!(verify_transaction(&model(), &txn).is_clean());
        // ...but a malformed address length is wrong under any history.
        let txn = Transaction::new(ChipMask::single(0)).ca(
            vec![
                Latch::Cmd(op::READ_1),
                Latch::Addr(vec![0; 2]),
                Latch::Cmd(op::READ_2),
            ],
            PostWait::Wb,
        );
        let report = verify_transaction(&model(), &txn);
        assert!(report.has_rule(Rule::BadAddressLength), "{report}");
    }

    #[test]
    fn missing_and_spurious_waits() {
        let no_wb = Transaction::new(ChipMask::single(0)).ca(
            vec![
                Latch::Cmd(op::READ_1),
                Latch::Addr(addr_full(0, 0, 0)),
                Latch::Cmd(op::READ_2),
            ],
            PostWait::None,
        );
        assert!(verify_transaction(&model(), &no_wb).has_rule(Rule::MissingWait));

        let wrong = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Adl)
            .read(1, DmaDest::Inline);
        assert!(verify_transaction(&model(), &wrong).has_rule(Rule::WrongWait));

        let spurious = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline)
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Wb);
        assert!(verify_transaction(&model(), &spurious).has_rule(Rule::SpuriousWait));
    }

    #[test]
    fn timer_can_stand_in_for_a_post_wait() {
        let txn = Transaction::new(ChipMask::single(0))
            .ca(
                vec![
                    Latch::Cmd(op::READ_1),
                    Latch::Addr(addr_full(0, 0, 0)),
                    Latch::Cmd(op::READ_2),
                ],
                PostWait::None,
            )
            .timer(SimDuration::from_nanos(200));
        assert!(!verify_transaction(&model(), &txn).has_rule(Rule::MissingWait));
    }

    #[test]
    fn busy_discipline_across_transactions() {
        // Fetch directly after the latch, with no ready observation.
        let report = verify_stream(&model(), &[read_latch(), fetch(512)]);
        assert!(report.has_rule(Rule::MaybeBusyViolation), "{report}");
        // Same-transaction violation is certain.
        let txn = Transaction::new(ChipMask::single(0))
            .ca(
                vec![
                    Latch::Cmd(op::READ_1),
                    Latch::Addr(addr_full(0, 0, 0)),
                    Latch::Cmd(op::READ_2),
                ],
                PostWait::Wb,
            )
            .ca(vec![Latch::Cmd(op::READ_1)], PostWait::None);
        let report = verify_stream(&model(), &[txn]);
        assert!(report.has_rule(Rule::BusyViolation), "{report}");
    }

    #[test]
    fn chip_mask_rules() {
        let empty = Transaction::new(ChipMask::NONE).ca(vec![Latch::Cmd(op::RESET)], PostWait::Wb);
        assert!(verify_transaction(&model(), &empty).has_rule(Rule::EmptyChipMask));

        let out_of_range =
            Transaction::new(ChipMask::single(9)).ca(vec![Latch::Cmd(op::RESET)], PostWait::Wb);
        assert!(verify_transaction(&model(), &out_of_range).has_rule(Rule::ChipOutOfRange));

        let gang_read = Transaction::new(ChipMask::first_n(2))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline);
        assert!(verify_transaction(&model(), &gang_read).has_rule(Rule::MultiChipDataOut));
    }

    #[test]
    fn gang_data_out_checks_only_the_driving_lun() {
        // Arm an output source on LUN 0 alone, then gang a bare data-out
        // across LUNs 0 and 1. The channel drives the burst from LUN 0
        // only, so LUN 1's missing output source is not a sim-enforced
        // fault (the model never consults it) — the verifier must report
        // the gang itself (V042) but no V022 false positive.
        let mut v = Verifier::sequence(model());
        let arm = Transaction::new(ChipMask::single(0))
            .ca(
                vec![Latch::Cmd(op::READ_ID), Latch::Addr(vec![0x00])],
                PostWait::Whr,
            )
            .read(2, DmaDest::Inline);
        v.check_transaction(&arm);
        let gang = Transaction::new(ChipMask::first_n(2)).read(2, DmaDest::Inline);
        v.check_transaction(&gang);
        let report = v.finish();
        assert!(report.has_rule(Rule::MultiChipDataOut), "{report}");
        assert!(!report.has_rule(Rule::DataOutIllegal), "{report}");
    }

    #[test]
    fn dma_bounds() {
        let m = model().with_dram_bytes(1 << 20);
        let txn = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Dram(u64::MAX - 4));
        assert!(verify_transaction(&m, &txn).has_rule(Rule::DmaOutOfBounds));
    }

    #[test]
    fn unknown_and_unsupported_opcodes() {
        let unknown =
            Transaction::new(ChipMask::single(0)).ca(vec![Latch::Cmd(0xA7)], PostWait::None);
        assert!(verify_transaction(&model(), &unknown).has_rule(Rule::UnknownOpcode));

        let unsupported = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_UNIQUE_ID)], PostWait::None);
        assert!(verify_transaction(&model(), &unsupported).has_rule(Rule::UnsupportedOpcode));
    }

    #[test]
    fn dangling_sequence_at_transaction_end() {
        let txn = Transaction::new(ChipMask::single(0)).ca(
            vec![Latch::Cmd(op::READ_1), Latch::Addr(addr_full(0, 0, 0))],
            PostWait::None,
        );
        let report = verify_stream(&model(), &[txn]);
        assert!(report.has_rule(Rule::DanglingSequence), "{report}");
    }

    #[test]
    fn phase_mode_checks_pause_budgets() {
        use babol_onfi::bus::PhaseKind;
        let timing = TimingParams::nv_ddr2();
        let mut v = Verifier::sequence(model());
        // READ STATUS followed by a data byte with no tWHR pause.
        let phases = vec![
            BusPhase::new(
                PhaseKind::CmdLatch(op::READ_STATUS),
                SimDuration::from_nanos(25),
            ),
            BusPhase::new(PhaseKind::DataOut { bytes: 1 }, SimDuration::from_nanos(10)),
        ];
        v.check_phases(ChipMask::single(0), &phases, &timing);
        assert!(v.report().has_rule(Rule::MissingWait));
    }

    #[test]
    fn second_long_timer_is_an_unbounded_wait() {
        // No protocol wait on any shipped package needs a full second.
        let txn = Transaction::new(ChipMask::single(0))
            .ca(
                vec![
                    Latch::Cmd(op::READ_1),
                    Latch::Addr(addr_full(0, 0, 0)),
                    Latch::Cmd(op::READ_2),
                ],
                PostWait::None,
            )
            .timer(SimDuration::from_millis(1000));
        let report = verify_transaction(&model(), &txn);
        assert!(report.has_rule(Rule::UnboundedWait), "{report}");
        // A timer inside the worst array window is fine.
        let bounded = read_latch();
        assert!(!verify_transaction(&model(), &bounded).has_rule(Rule::UnboundedWait));
    }

    #[test]
    fn phase_mode_flags_unbounded_pauses() {
        use babol_onfi::bus::PhaseKind;
        let timing = TimingParams::nv_ddr2();
        let mut v = Verifier::sequence(model());
        let phases = vec![BusPhase::new(
            PhaseKind::Pause,
            SimDuration::from_millis(1000),
        )];
        v.check_phases(ChipMask::single(0), &phases, &timing);
        assert!(v.report().has_rule(Rule::UnboundedWait), "{}", v.report());
    }

    #[test]
    fn waveform_free_instructions_are_dead() {
        // Zero-byte data movers and zero timers emit no phases at all.
        let txn = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(0, DmaDest::Inline)
            .timer(SimDuration::ZERO);
        let report = verify_transaction(&model(), &txn);
        let dead: Vec<_> = report
            .diags()
            .iter()
            .filter(|d| d.rule == Rule::DeadInstr)
            .collect();
        assert_eq!(dead.len(), 2, "{report}");
        assert_eq!(dead[0].at, Some(1));
        assert_eq!(dead[1].at, Some(2));
    }

    #[test]
    fn instructions_after_a_reset_confirm_are_unreachable() {
        // RESET tears down the decode pipeline and goes busy for tRST; any
        // instruction after it in the same transaction never does useful
        // work (status polls must come in a later transaction).
        let txn = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::RESET)], PostWait::Wb)
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline);
        let report = verify_transaction(&model(), &txn);
        assert!(report.has_rule(Rule::DeadInstr), "{report}");
        // A bare reset is clean.
        let bare =
            Transaction::new(ChipMask::single(0)).ca(vec![Latch::Cmd(op::RESET)], PostWait::Wb);
        assert!(!verify_transaction(&model(), &bare).has_rule(Rule::DeadInstr));
    }

    #[test]
    fn redundant_timer_after_a_post_wait() {
        // After a complete status poll the LUN is known idle; a trailing
        // timer that is not a data-setup guard is pure waste.
        let txn = Transaction::new(ChipMask::single(0))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline)
            .timer(SimDuration::from_nanos(200));
        // Sequence mode: from power-on the LUN is *known* idle, so the
        // pause provably waits for nothing. (Single-transaction mode
        // cannot conclude this — prior history is unknown.)
        let report = verify_stream(&model(), &[txn]);
        assert!(report.has_rule(Rule::RedundantWait), "{report}");
        // The stand-in timer from `timer_can_stand_in_for_a_post_wait`
        // stays clean: it substitutes for a missing post-wait.
        let stand_in = Transaction::new(ChipMask::single(0))
            .ca(
                vec![
                    Latch::Cmd(op::READ_1),
                    Latch::Addr(addr_full(0, 0, 0)),
                    Latch::Cmd(op::READ_2),
                ],
                PostWait::None,
            )
            .timer(SimDuration::from_nanos(200));
        assert!(!verify_transaction(&model(), &stand_in).has_rule(Rule::RedundantWait));
    }
}
