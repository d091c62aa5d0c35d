//! The ONFI command grammar, written once.
//!
//! [`step`] is a pure transition function: given the decode state of a LUN
//! and one latched cycle (a command opcode, an address of `n` cycles, or a
//! data-in burst) it returns the next state and an [`Action`], or a
//! [`Reject`]ion naming what the state expected. It knows nothing about
//! registers, time or array contents; each consumer applies the action in
//! its own domain:
//!
//! * the flash package model (`babol_flash::Lun`) applies it concretely,
//!   keeping the latched row, column and feature address beside the state;
//! * the static verifier (`babol_verify`) lifts it over abstract values
//!   (unknown state, maybe-busy) and turns rejections into diagnostics;
//! * the envelope analyzer maps the busy kinds it starts to array-time
//!   intervals and folds a rejection to an unknown state.
//!
//! A consumer that may not know the state steps it with [`step_abstract`],
//! which takes an unknown state to the join of [`step`] over every state.

use crate::addr::AddrLayout;
use crate::opcode::op;

/// Decode state of a LUN's command grammar: which cycle it waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// No sequence pending.
    Idle,
    /// READ(1) taken: a column and row address follows.
    ReadAddr,
    /// Read address taken: READ(2) or MP-NEXT follows.
    ReadConfirm,
    /// CHANGE READ COLUMN(1) taken: a column address follows.
    ColAddr,
    /// RANDOM DATA OUT(1) taken: a column and row (plane select) follows.
    PlaneColAddr,
    /// Read column taken: CHANGE READ COLUMN(2) follows.
    ColConfirm,
    /// PROGRAM(1) taken: a column and row address follows.
    ProgAddr,
    /// Program address taken: data-in, CHANGE WRITE COLUMN or a confirm.
    ProgData,
    /// CHANGE WRITE COLUMN taken: a column address follows.
    WriteColAddr,
    /// ERASE(1) taken: a row address follows.
    EraseAddr,
    /// Erase row taken: ERASE(2) follows.
    EraseConfirm,
    /// SET FEATURES taken: a feature address follows.
    FeatAddrSet,
    /// Feature address taken: four parameter bytes of data-in follow.
    FeatData,
    /// GET FEATURES taken: a feature address follows.
    FeatAddrGet,
    /// READ ID taken: an address byte follows.
    IdAddr,
    /// READ PARAMETER PAGE taken: an address byte follows.
    ParamAddr,
}

impl Decode {
    /// Every state, for consumers that join over all of them.
    pub const ALL: [Decode; 16] = [
        Decode::Idle,
        Decode::ReadAddr,
        Decode::ReadConfirm,
        Decode::ColAddr,
        Decode::PlaneColAddr,
        Decode::ColConfirm,
        Decode::ProgAddr,
        Decode::ProgData,
        Decode::WriteColAddr,
        Decode::EraseAddr,
        Decode::EraseConfirm,
        Decode::FeatAddrSet,
        Decode::FeatData,
        Decode::FeatAddrGet,
        Decode::IdAddr,
        Decode::ParamAddr,
    ];

    /// What the state waits for, for error messages and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Decode::Idle => "idle",
            Decode::ReadAddr => "awaiting read address",
            Decode::ReadConfirm => "awaiting read confirm",
            Decode::ColAddr | Decode::PlaneColAddr => "awaiting column address",
            Decode::ColConfirm => "awaiting column confirm",
            Decode::ProgAddr => "awaiting program address",
            Decode::ProgData => "accepting program data",
            Decode::WriteColAddr => "awaiting write-column address",
            Decode::EraseAddr => "awaiting erase address",
            Decode::EraseConfirm => "awaiting erase confirm",
            Decode::FeatAddrSet => "awaiting feature address (set)",
            Decode::FeatData => "accepting feature data",
            Decode::FeatAddrGet => "awaiting feature address (get)",
            Decode::IdAddr => "awaiting id address",
            Decode::ParamAddr => "awaiting parameter-page address",
        }
    }
}

/// One latched cycle, as the grammar sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cycle {
    /// A command latch.
    Cmd(u8),
    /// An address latch of this many cycles.
    Addr(usize),
    /// A data-in burst.
    DataIn,
}

/// Why a LUN is busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyKind {
    /// Array fetch into the page register (tR).
    Read,
    /// Array fetch of the *next* page while the cache register streams
    /// (cache read; the LUN stays command-ready).
    CacheRead,
    /// Page program (tPROG).
    Program,
    /// Page program with cache handoff (status ready early).
    CacheProgram,
    /// Block erase (tBERS).
    Erase,
    /// RESET recovery.
    Reset,
    /// Parameter-page fetch.
    ParamPage,
    /// Short interleave window of a multi-plane queue cycle.
    PlaneQueue,
    /// Suspend latency window.
    Suspending,
}

impl BusyKind {
    /// Whether the LUN still streams data out, and takes every command,
    /// during this busy kind: the cache operations keep the bus usable
    /// while the array works.
    pub fn allows_data_out(self) -> bool {
        matches!(self, BusyKind::CacheRead | BusyKind::CacheProgram)
    }

    /// Whether the LUN takes `opcode` while busy this way: a status,
    /// reset or suspend command, or any command during a cache operation.
    #[inline]
    pub fn admits(self, opcode: u8) -> bool {
        let legal_while_busy = matches!(
            opcode,
            op::READ_STATUS
                | op::READ_STATUS_ENHANCED
                | op::RESET
                | op::SYNC_RESET
                | op::PROGRAM_SUSPEND
                | op::ERASE_SUSPEND
        );
        legal_while_busy || self.allows_data_out()
    }

    /// Whether the suspend command `opcode` suspends this busy period.
    pub fn suspended_by(self, opcode: u8) -> bool {
        matches!(
            (self, opcode),
            (
                BusyKind::Program | BusyKind::CacheProgram,
                op::PROGRAM_SUSPEND
            ) | (BusyKind::Erase, op::ERASE_SUSPEND)
        )
    }

    /// The operation's name, for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            BusyKind::Read => "read (tR)",
            BusyKind::PlaneQueue => "plane queue",
            BusyKind::CacheRead => "cache read",
            BusyKind::Program => "program (tPROG)",
            BusyKind::CacheProgram => "cache program",
            BusyKind::Erase => "erase (tBERS)",
            BusyKind::Reset => "reset (tRST)",
            BusyKind::Suspending => "suspending",
            BusyKind::ParamPage => "parameter-page fetch",
        }
    }
}

/// Commands that continue or leave untouched a half-latched sequence: the
/// confirms, status reads, vendor prefixes and suspend/resume. Any other
/// command silently abandons a pending sequence.
pub fn consumes_pending(opcode: u8) -> bool {
    matches!(
        opcode,
        op::READ_2
            | op::MULTI_PLANE_NEXT
            | op::CHANGE_READ_COL_2
            | op::PROGRAM_2
            | op::PROGRAM_CACHE
            | op::CHANGE_WRITE_COL
            | op::ERASE_2
            | op::READ_STATUS
            | op::READ_STATUS_ENHANCED
            | op::PSLC_PREFIX
            | op::READ_RETRY_PREFIX
            | op::PROGRAM_SUSPEND
            | op::ERASE_SUSPEND
            | op::SUSPEND_RESUME
    )
}

/// What a consumer does with an accepted cycle, beyond taking the next
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Nothing: the first cycle of a sequence.
    None,
    /// READ STATUS: stream the status register, parking the output source.
    Status,
    /// READ(1): if a status read is streaming, restore the parked output.
    Restore,
    /// Start a busy period of this kind. `Reset` also drops every mode,
    /// queued plane and suspended operation.
    Busy(BusyKind),
    /// READ CACHE END: the page register moves to the cache register and
    /// streams from it after a short [`BusyKind::CacheRead`] window.
    CacheEnd,
    /// PROGRAM or ERASE SUSPEND: suspend a busy period the opcode matches.
    Suspend,
    /// SUSPEND RESUME: resume the suspended operation, if any.
    Resume,
    /// The pSLC prefix: the next array operation runs in SLC mode.
    ArmPslc,
    /// The read-retry prefix.
    ArmRetry,
    /// CHANGE READ COLUMN(2): stream from the latched column (and plane).
    SelectColumn,
    /// Latch a column and row: a read's page, or a plane select.
    LatchPage,
    /// Latch a column alone, for a CHANGE READ COLUMN.
    LatchColumn,
    /// Latch a program's column and row: its page register starts blank.
    LatchProgram,
    /// Move the program's column pointer (CHANGE WRITE COLUMN).
    LatchWriteColumn,
    /// Latch an erase's block row.
    LatchBlock,
    /// Latch a SET FEATURES address.
    LatchFeature,
    /// Stream the addressed feature's parameters (GET FEATURES).
    ReadFeature,
    /// Stream the ID bytes (READ ID).
    ReadId,
    /// Program data into the page register at the column pointer.
    Write,
    /// Set the latched feature to the four data-in bytes.
    SetFeature,
}

/// Why the grammar refuses a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// A confirm or continuation that needs the decoder in this state.
    Expected(Decode),
    /// An address of the wrong length: the state takes this many cycles.
    AddrLength(usize),
    /// An address or data-in the state takes none of.
    Unexpected,
    /// An opcode the package model does not implement.
    Unsupported,
}

/// The outcome of one cycle: the next state and what to do, or why not.
pub type Step = Result<(Decode, Action), Reject>;

/// The transition the grammar takes on `cycle` from `state`. Address
/// lengths are checked against `layout`.
#[inline]
pub fn step(state: Decode, cycle: Cycle, layout: &AddrLayout) -> Step {
    match cycle {
        Cycle::Cmd(opcode) => command(state, opcode),
        Cycle::Addr(n) => address(state, n, layout),
        Cycle::DataIn => match state {
            Decode::ProgData => Ok((Decode::ProgData, Action::Write)),
            Decode::FeatData => Ok((Decode::Idle, Action::SetFeature)),
            _ => Err(Reject::Unexpected),
        },
    }
}

#[inline]
fn command(state: Decode, opcode: u8) -> Step {
    use Decode::*;
    Ok(match opcode {
        op::READ_STATUS | op::READ_STATUS_ENHANCED => (Idle, Action::Status),
        op::RESET | op::SYNC_RESET => (Idle, Action::Busy(BusyKind::Reset)),
        op::PROGRAM_SUSPEND | op::ERASE_SUSPEND => (state, Action::Suspend),
        op::SUSPEND_RESUME => (state, Action::Resume),
        op::PSLC_PREFIX => (state, Action::ArmPslc),
        op::READ_RETRY_PREFIX => (state, Action::ArmRetry),
        op::READ_1 => (ReadAddr, Action::Restore),
        op::CHANGE_READ_COL_1 => (ColAddr, Action::None),
        op::RANDOM_DATA_OUT_1 => (PlaneColAddr, Action::None),
        op::PROGRAM_1 => (ProgAddr, Action::None),
        op::ERASE_1 => (EraseAddr, Action::None),
        op::SET_FEATURES => (FeatAddrSet, Action::None),
        op::GET_FEATURES => (FeatAddrGet, Action::None),
        op::READ_ID => (IdAddr, Action::None),
        op::READ_PARAM_PAGE => (ParamAddr, Action::None),
        _ => {
            // Confirms and continuations: the state each one needs.
            let (from, next, action) = match opcode {
                op::READ_2 => (ReadConfirm, Idle, Action::Busy(BusyKind::Read)),
                op::MULTI_PLANE_NEXT => (ReadConfirm, Idle, Action::Busy(BusyKind::PlaneQueue)),
                op::READ_CACHE_SEQ => (Idle, Idle, Action::Busy(BusyKind::CacheRead)),
                op::READ_CACHE_END => (Idle, Idle, Action::CacheEnd),
                op::CHANGE_READ_COL_2 => (ColConfirm, Idle, Action::SelectColumn),
                op::CHANGE_WRITE_COL => (ProgData, WriteColAddr, Action::None),
                op::PROGRAM_2 => (ProgData, Idle, Action::Busy(BusyKind::Program)),
                op::PROGRAM_CACHE => (ProgData, Idle, Action::Busy(BusyKind::CacheProgram)),
                op::ERASE_2 => (EraseConfirm, Idle, Action::Busy(BusyKind::Erase)),
                _ => return Err(Reject::Unsupported),
            };
            if state != from {
                return Err(Reject::Expected(from));
            }
            (next, action)
        }
    })
}

#[inline]
fn address(state: Decode, n: usize, layout: &AddrLayout) -> Step {
    use Decode::*;
    let full = layout.full_cycles();
    let (want, next, action) = match state {
        ReadAddr => (full, ReadConfirm, Action::LatchPage),
        ColAddr => (layout.col_cycles, ColConfirm, Action::LatchColumn),
        PlaneColAddr => (full, ColConfirm, Action::LatchPage),
        ProgAddr => (full, ProgData, Action::LatchProgram),
        WriteColAddr => (layout.col_cycles, ProgData, Action::LatchWriteColumn),
        EraseAddr => (layout.row_cycles, EraseConfirm, Action::LatchBlock),
        FeatAddrSet => (1, FeatData, Action::LatchFeature),
        FeatAddrGet => (1, Idle, Action::ReadFeature),
        IdAddr => (1, Idle, Action::ReadId),
        ParamAddr => (1, Idle, Action::Busy(BusyKind::ParamPage)),
        Idle | ReadConfirm | ColConfirm | ProgData | EraseConfirm | FeatData => {
            return Err(Reject::Unexpected)
        }
    };
    if n != want {
        return Err(Reject::AddrLength(want));
    }
    Ok((next, action))
}

/// The transition on `cycle` from a state that may not be known (`None`).
/// A known state takes [`step`]; an unknown one takes the join of [`step`]
/// over every state:
///
/// * `Ok((next, action))`: every state takes the cycle with the same
///   action; `next` is the state they all reach, `None` if they reach
///   different ones (a prefix or suspend leaves each state as it was).
/// * `Err(Some(reject))`: every state refuses it the same way.
/// * `Err(None)`: whether it is taken, and how, depends on the state.
pub fn step_abstract(
    state: Option<Decode>,
    cycle: Cycle,
    layout: &AddrLayout,
) -> Result<(Option<Decode>, Action), Option<Reject>> {
    if let Some(state) = state {
        return step(state, cycle, layout)
            .map(|(next, action)| (Some(next), action))
            .map_err(Some);
    }
    let first = step(Decode::Idle, cycle, layout);
    let mut next = first.map(|(next, _)| next).ok();
    for &state in &Decode::ALL[1..] {
        match (first, step(state, cycle, layout)) {
            (Ok((_, a)), Ok((n, b))) if a == b => {
                if next != Some(n) {
                    next = None;
                }
            }
            (Err(a), Err(b)) if a == b => {}
            _ => return Err(None),
        }
    }
    first.map(|(_, action)| (next, action)).map_err(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> AddrLayout {
        AddrLayout::new(4096, 64, 128, 1)
    }

    #[test]
    fn confirms_need_their_start_state() {
        let l = layout();
        assert_eq!(
            step(Decode::Idle, Cycle::Cmd(op::READ_2), &l),
            Err(Reject::Expected(Decode::ReadConfirm))
        );
        assert_eq!(
            step(Decode::ReadConfirm, Cycle::Cmd(op::READ_2), &l),
            Ok((Decode::Idle, Action::Busy(BusyKind::Read)))
        );
        assert_eq!(
            step(Decode::ProgData, Cycle::Cmd(op::READ_CACHE_SEQ), &l),
            Err(Reject::Expected(Decode::Idle))
        );
    }

    #[test]
    fn addresses_are_checked_against_the_layout() {
        let l = layout();
        assert_eq!(
            step(Decode::ReadAddr, Cycle::Addr(l.full_cycles()), &l),
            Ok((Decode::ReadConfirm, Action::LatchPage))
        );
        assert_eq!(
            step(Decode::EraseAddr, Cycle::Addr(l.full_cycles()), &l),
            Err(Reject::AddrLength(l.row_cycles))
        );
        assert_eq!(
            step(Decode::Idle, Cycle::Addr(1), &l),
            Err(Reject::Unexpected)
        );
    }

    #[test]
    fn unknown_state_joins_every_state() {
        let l = layout();
        // State-independent commands land in a known state.
        assert_eq!(
            step_abstract(None, Cycle::Cmd(op::PROGRAM_1), &l),
            Ok((Some(Decode::ProgAddr), Action::None))
        );
        // A prefix keeps each state as it was.
        assert_eq!(
            step_abstract(None, Cycle::Cmd(op::PSLC_PREFIX), &l),
            Ok((None, Action::ArmPslc))
        );
        // A confirm depends on the state; an unsupported opcode does not.
        assert_eq!(step_abstract(None, Cycle::Cmd(op::READ_2), &l), Err(None));
        assert_eq!(
            step_abstract(None, Cycle::Cmd(op::READ_UNIQUE_ID), &l),
            Err(Some(Reject::Unsupported))
        );
        assert_eq!(step_abstract(None, Cycle::Addr(1), &l), Err(None));
    }

    #[test]
    fn busy_discipline() {
        assert!(BusyKind::Read.admits(op::READ_STATUS));
        assert!(!BusyKind::Read.admits(op::READ_1));
        assert!(BusyKind::CacheRead.admits(op::READ_1));
        assert!(BusyKind::CacheProgram.suspended_by(op::PROGRAM_SUSPEND));
        assert!(!BusyKind::Erase.suspended_by(op::PROGRAM_SUSPEND));
    }
}
