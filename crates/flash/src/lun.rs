//! The LUN: an ONFI command decoder wired to a timed flash array.
//!
//! A LUN is what a channel controller actually converses with. It receives
//! waveform phases (command latches, address latches, data bursts), decodes
//! them according to the ONFI operation grammar, runs array operations that
//! take real time (tR, tPROG, tBERS — Table I of the paper), and reports
//! progress through its status register and the R/B# line. The grammar
//! itself is [`babol_onfi::decode`], shared with the static verifier: the
//! LUN keeps the latched row, column and feature address beside the
//! shared decode state and applies each action the grammar returns.
//!
//! The model is *lazy*: a busy period is represented as a deadline, and the
//! next interaction resolves it if the deadline has passed. Callers that
//! need the R/B# edge (the hardware-baseline controllers watch the pin
//! directly) read [`Lun::busy_until`].
//!
//! Supported operation grammar (beyond the basic READ/PROGRAM/ERASE):
//! CHANGE READ/WRITE COLUMN, RANDOM DATA OUT (plane select), READ CACHE
//! (sequential and end), CACHE PROGRAM, multi-plane queueing, READ STATUS
//! (plain and enhanced), READ ID, READ PARAMETER PAGE, GET/SET FEATURES
//! (including timing-mode switches), RESET, and the vendor extensions the
//! paper highlights: pSLC prefix, read-retry prefix, program/erase suspend
//! and resume.

use babol_onfi::addr::{AddrLayout, RowAddr};
use std::ops::Range;

use babol_onfi::bus::{BusPhase, PhaseKind};
use babol_onfi::decode::{self, Action, Cycle, Decode, Reject};
use babol_onfi::feature::{addr as feat, FeatureSet};
use babol_onfi::opcode::mnemonic;
use babol_onfi::status::Status;
use babol_onfi::timing::DataInterface;
use babol_sim::rng::SplitMix64;
use babol_sim::{BufPool, PageData, SimDuration, SimTime};

use crate::array::{ArrayStore, ContentMode};
use crate::ber::{raw_ber, BerContext};
use crate::error::LunError;
use crate::profile::PackageProfile;

pub use babol_onfi::decode::BusyKind;

/// Configuration of one LUN instance.
#[derive(Debug, Clone)]
pub struct LunConfig {
    /// The package this LUN belongs to.
    pub profile: PackageProfile,
    /// What unwritten pages contain.
    pub content: ContentMode,
    /// Seed for latency jitter, error injection, and the hidden DQS phase.
    pub seed: u64,
    /// Whether reads suffer raw bit errors (off for throughput experiments,
    /// on for the ECC path).
    pub inject_errors: bool,
    /// Whether the boot contract is enforced: RESET plus DQS-phase
    /// calibration before high-speed bulk data phases (paper §IV-C).
    pub require_init: bool,
}

impl LunConfig {
    /// A convenient test configuration: tiny geometry, pristine content, no
    /// error injection, no boot contract.
    pub fn test_default() -> Self {
        LunConfig {
            profile: PackageProfile::test_tiny(),
            content: ContentMode::Pristine,
            seed: 1,
            inject_errors: false,
            require_init: false,
        }
    }
}

#[derive(Debug, Clone)]
struct Busy {
    until: SimTime,
    kind: BusyKind,
    /// Action to apply when the deadline passes.
    effect: Effect,
}

#[derive(Debug, Clone)]
enum Effect {
    /// Fetches the rows in `Lun::loading` into their page registers. A
    /// page read then streams its register from `col`; a cache read's
    /// background fetch (`None`) leaves the cache register streaming where
    /// it is.
    LoadPage {
        col: Option<u32>,
        pslc: bool,
    },
    /// Programs `data`, the page register as the confirm found it: a cache
    /// program frees the register for the next page before tPROG ends.
    CommitProgram {
        row: RowAddr,
        pslc: bool,
        data: PageData,
    },
    CommitErase {
        row: RowAddr,
    },
    FinishReset,
    LoadParamPage,
    None,
}

#[derive(Debug, Clone)]
struct Suspended {
    remaining: SimDuration,
    kind: BusyKind,
    effect: Effect,
}

/// Where data-out phases currently stream from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutSource {
    None,
    Status,
    Features(u8),
    Id,
    ParamPage,
    PageRegister,
    CacheRegister,
}

/// The LUN's reply to a delivered phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LunResponse {
    /// Phase consumed; nothing flows back.
    Accepted,
    /// Bytes flowing back to the controller (data-out phases). Page data
    /// stays described: a slice of the register's [`PageData`], never a
    /// copy of its bytes.
    Data(PageData),
}

/// Running statistics, used by experiments and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LunStats {
    /// Completed array reads (pages fetched).
    pub reads: u64,
    /// Completed page programs.
    pub programs: u64,
    /// Program pulses applied, successful or not. The array draws program
    /// energy for the pulse whether or not the commit is accepted, so
    /// energy accounting keys off attempts, not successes.
    pub program_attempts: u64,
    /// Completed block erases.
    pub erases: u64,
    /// Erase pulses applied, successful or not (energy accounting keys off
    /// attempts for the same reason as `program_attempts`).
    pub erase_attempts: u64,
    /// Status queries served.
    pub status_polls: u64,
    /// Data bytes streamed out.
    pub bytes_out: u64,
    /// Data bytes streamed in.
    pub bytes_in: u64,
}

impl LunStats {
    /// What was served since `earlier`, a snapshot of the same LUN.
    pub fn since(&self, earlier: &LunStats) -> LunStats {
        LunStats {
            reads: self.reads - earlier.reads,
            programs: self.programs - earlier.programs,
            program_attempts: self.program_attempts - earlier.program_attempts,
            erases: self.erases - earlier.erases,
            erase_attempts: self.erase_attempts - earlier.erase_attempts,
            status_polls: self.status_polls - earlier.status_polls,
            bytes_out: self.bytes_out - earlier.bytes_out,
            bytes_in: self.bytes_in - earlier.bytes_in,
        }
    }
}

/// One logical unit of a flash package.
pub struct Lun {
    cfg: LunConfig,
    layout: AddrLayout,
    array: ArrayStore,
    features: FeatureSet,
    iface: DataInterface,
    decode: Decode,
    /// The row, column and feature address the grammar latched last.
    latch_row: Option<RowAddr>,
    latch_col: u32,
    latch_feature: u8,
    out: OutSource,
    out_before_status: OutSource,
    col: u32,
    active_plane: u32,
    page_regs: Vec<PageData>,
    cache_reg: PageData,
    param_buf: PageData,
    busy: Option<Busy>,
    suspended: Option<Suspended>,
    pslc_armed: bool,
    retry_armed: bool,
    queued_rows: Vec<RowAddr>,
    /// The rows the pending `LoadPage` fetches. Kept across reads, like
    /// `queued_rows`, so a read allocates neither.
    loading: Vec<RowAddr>,
    initialized: bool,
    configured_phase: Option<u8>,
    required_phase: u8,
    last_fail: bool,
    last_row: Option<RowAddr>,
    rng: SplitMix64,
    stats: LunStats,
    pool: BufPool,
}

impl std::fmt::Debug for Lun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lun")
            .field("profile", &self.cfg.profile.name)
            .field("decode", &self.decode.name())
            .field("busy", &self.busy_kind())
            .finish()
    }
}

impl Lun {
    /// Creates a LUN from its configuration.
    pub fn new(cfg: LunConfig) -> Self {
        let geometry = cfg.profile.geometry;
        let mut rng = SplitMix64::new(cfg.seed);
        let required_phase = rng.next_below(8) as u8;
        let raw = geometry.raw_page_size();
        Lun {
            layout: geometry.addr_layout(16),
            array: ArrayStore::new(geometry, cfg.content),
            features: FeatureSet::new(),
            iface: DataInterface::Sdr { mode: 0 },
            decode: Decode::Idle,
            latch_row: None,
            latch_col: 0,
            latch_feature: 0,
            out: OutSource::None,
            out_before_status: OutSource::None,
            col: 0,
            active_plane: 0,
            page_regs: vec![PageData::fill(0xFF, raw); geometry.planes as usize],
            cache_reg: PageData::fill(0xFF, raw),
            param_buf: PageData::empty(),
            busy: None,
            suspended: None,
            pslc_armed: false,
            retry_armed: false,
            queued_rows: Vec::new(),
            loading: Vec::new(),
            initialized: !cfg.require_init,
            configured_phase: None,
            required_phase,
            last_fail: false,
            last_row: None,
            rng,
            stats: LunStats::default(),
            pool: BufPool::default(),
            cfg,
        }
    }

    /// Shares the system's raw-buffer count: the raw bytes the LUN makes
    /// (feature and ID readouts, bit-flipped and scrambled pages) are
    /// counted there.
    pub fn set_pool(&mut self, pool: &BufPool) {
        self.pool = pool.clone();
    }

    /// The package profile this LUN instantiates.
    pub fn profile(&self) -> &PackageProfile {
        &self.cfg.profile
    }

    /// Direct array access for workload setup and assertions.
    pub fn array(&self) -> &ArrayStore {
        &self.array
    }

    /// Mutable array access for test/workload preparation.
    pub fn array_mut(&mut self) -> &mut ArrayStore {
        &mut self.array
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> LunStats {
        self.stats
    }

    /// Accounts `polls` status reads of `bytes` bytes each that were served
    /// while the array stayed busy, without their phases: the skipped
    /// polls of a summarized status wait (`babol::runtime`). A busy status
    /// read changes nothing but these counters, so the LUN is left exactly
    /// as the played polls would have left it.
    pub fn credit_status_reads(&mut self, polls: u64, bytes: u64) {
        self.stats.status_polls += polls;
        self.stats.bytes_out += polls * bytes;
    }

    /// The interface the LUN currently operates at (starts as SDR mode 0,
    /// raised via SET FEATURES).
    pub fn interface(&self) -> DataInterface {
        self.iface
    }

    /// Deadline of the current busy period — the time R/B# will rise — or
    /// `None` if the LUN is ready. Cache-busy periods report their deadline
    /// too, even though the LUN accepts commands during them.
    pub fn busy_until(&self) -> Option<SimTime> {
        self.busy.as_ref().map(|b| b.until)
    }

    /// Kind of the current busy period.
    pub fn busy_kind(&self) -> Option<BusyKind> {
        self.busy.as_ref().map(|b| b.kind)
    }

    /// The command grammar's decode state.
    pub fn decode_state(&self) -> Decode {
        self.decode
    }

    /// Sets the controller-side DQS drive phase for this LUN (the result of
    /// running the calibration tool; see `babol::calib`).
    pub fn set_drive_phase(&mut self, phase: u8) {
        self.configured_phase = Some(phase % 8);
    }

    /// The hidden board-trace phase the calibration must discover. Exposed
    /// for tests only; the calibration tool must *not* read this.
    pub fn required_phase_for_tests(&self) -> u8 {
        self.required_phase
    }

    /// The LUN's status register as of `now`.
    pub fn status(&mut self, now: SimTime) -> Status {
        self.refresh(now);
        self.current_status()
    }

    fn current_status(&self) -> Status {
        let mut st = match &self.busy {
            Some(b) if b.kind.allows_data_out() => Status::cache_busy(),
            Some(_) => Status::busy(),
            None => Status::ready(),
        };
        if self.last_fail {
            st = st.with_fail();
        }
        st
    }

    /// Delivers one waveform phase that starts driving the bus at `start`.
    /// Information is latched on trailing edges: a latch or pause is taken
    /// when the phase completes, and each packet of a data burst when that
    /// packet completes. A busy period whose deadline falls inside a burst
    /// is resolved before the first packet ending at or after it, so the
    /// packets on each side of that edge each see one unchanging LUN and
    /// are read or written as one unit.
    pub fn phase(&mut self, start: SimTime, phase: &BusPhase) -> Result<LunResponse, LunError> {
        match &phase.kind {
            PhaseKind::DataIn(data) => self
                .data_in(start, phase, data)
                .map(|()| LunResponse::Accepted),
            PhaseKind::DataOut { bytes } => {
                self.data_out(start, phase, *bytes).map(LunResponse::Data)
            }
            kind => {
                let now = start + phase.duration;
                self.refresh(now);
                match kind {
                    PhaseKind::CmdLatch(opcode) => self.on_command(now, *opcode),
                    PhaseKind::AddrLatch(bytes) => self.on_address(now, bytes),
                    _ => Ok(LunResponse::Accepted),
                }
            }
        }
    }

    /// Resolves a busy period that ended by `now`: what the LUN does at
    /// the edge of a phase that carries nothing for it (a pause, or a
    /// packet gap of another LUN's data-out).
    pub fn settle(&mut self, now: SimTime) {
        self.refresh(now);
    }

    /// The first packet of a data phase from `start` that a busy period
    /// resolves before: the first whose trailing edge is at or after the
    /// deadline. The packet count when the deadline is past the phase.
    fn resolving_packet(&self, start: SimTime, phase: &BusPhase) -> u32 {
        let count = phase.packet_count();
        match &self.busy {
            // The last packet ends with the phase, so only the others are
            // searched: a one-packet phase resolves at its end.
            Some(busy) if busy.until <= start + phase.duration => (0..count - 1)
                .find(|&i| start + phase.packet_end(i) >= busy.until)
                .unwrap_or(count - 1),
            _ => count,
        }
    }

    /// Takes a data-in burst: the packets before the one a busy period
    /// resolves before as one run, then the rest as another.
    fn data_in(
        &mut self,
        start: SimTime,
        phase: &BusPhase,
        data: &PageData,
    ) -> Result<(), LunError> {
        let count = phase.packet_count();
        let split = self.resolving_packet(start, phase);
        if split > 0 {
            self.data_in_run(phase, data, 0..split)?;
        }
        if split < count {
            self.refresh(start + phase.packet_end(split));
            self.data_in_run(phase, data, split..count)?;
        }
        Ok(())
    }

    /// Takes the data-in packets `run` (at least one) over a LUN no busy
    /// period resolves during.
    fn data_in_run(
        &mut self,
        phase: &BusPhase,
        data: &PageData,
        run: Range<u32>,
    ) -> Result<(), LunError> {
        let bytes = data.len();
        let at = phase.packet_offset(run.start, bytes);
        let first = phase.packet_len(run.start, bytes);
        self.check_bulk_data_allowed()?;
        match self.step(Cycle::DataIn, || format!("DIN[{first}]"))? {
            Action::Write => {
                let len = phase.packet_offset(run.end, bytes) - at;
                let run_data;
                let data = if len == bytes {
                    data
                } else {
                    run_data = data.slice(at, len);
                    &run_data
                };
                let reg = &mut self.page_regs[self.active_plane as usize];
                let start = self.col as usize;
                let end = (start + len).min(reg.len());
                if end == start + len {
                    reg.overlay(start, data);
                } else if end > start {
                    reg.overlay(start, &data.slice(0, end - start));
                }
                self.col = end as u32;
                self.stats.bytes_in += len as u64;
                Ok(())
            }
            _ => {
                // The grammar's other data-in action, a SET FEATURES write:
                // one 4-byte packet that leaves the decoder idle, so a
                // second packet is unexpected.
                if first != 4 {
                    return Err(LunError::BadAddressLength {
                        got: first,
                        want: 4,
                    });
                }
                let mut value = [0; 4];
                data.slice(at, 4).materialize_into(&mut value);
                self.features.set(self.latch_feature, value);
                if self.latch_feature == feat::TIMING_MODE {
                    self.apply_timing_mode(value);
                }
                if run.len() > 1 {
                    let next = phase.packet_len(run.start + 1, bytes);
                    return Err(LunError::UnexpectedPhase {
                        state: Decode::Idle.name(),
                        phase: format!("DIN[{next}]"),
                    });
                }
                Ok(())
            }
        }
    }

    /// Streams a data-out burst: like [`Lun::data_in`], one run of packets
    /// on each side of the edge where a busy period resolves.
    fn data_out(
        &mut self,
        start: SimTime,
        phase: &BusPhase,
        bytes: usize,
    ) -> Result<PageData, LunError> {
        let count = phase.packet_count();
        let split = self.resolving_packet(start, phase);
        let mut out = if split > 0 {
            self.data_out_run(phase, bytes, 0..split)?
        } else {
            PageData::empty()
        };
        if split < count {
            self.refresh(start + phase.packet_end(split));
            out.append(self.data_out_run(phase, bytes, split..count)?);
        }
        self.stats.bytes_out += out.len() as u64;
        Ok(out)
    }

    /// Reads the data-out packets `run` (at least one) of a `bytes`-byte
    /// burst from the current output source, over a LUN no busy period
    /// resolves during.
    fn data_out_run(
        &mut self,
        phase: &BusPhase,
        bytes: usize,
        run: Range<u32>,
    ) -> Result<PageData, LunError> {
        if let Some(busy) = &self.busy {
            if !busy.kind.allows_data_out() && self.out != OutSource::Status {
                return Err(LunError::BusyViolation {
                    mnemonic: "DATA-OUT",
                });
            }
        }
        let at = phase.packet_offset(run.start, bytes);
        let len = phase.packet_offset(run.end, bytes) - at;
        let last = phase.packet_len(run.end - 1, bytes);
        let window = match self.out {
            OutSource::Status => {
                self.stats.status_polls += run.len() as u64;
                let bits = self.current_status().bits();
                let len = run.map(|i| phase.packet_len(i, bytes).max(1)).sum();
                return Ok(PageData::fill(bits, len));
            }
            OutSource::Features(f) => {
                let v = self.features.get(f);
                return Ok(self.small_readout(phase, bytes, run, &v));
            }
            OutSource::Id => {
                let id = [
                    self.cfg.profile.manufacturer_id,
                    self.cfg.profile.device_id,
                    self.cfg.profile.geometry.planes as u8,
                    self.cfg.profile.geometry.luns as u8,
                    0x51, // ONFI 5.1 marker byte
                ];
                return Ok(self.small_readout(phase, bytes, run, &id));
            }
            OutSource::ParamPage => {
                self.check_bulk_data_allowed()?;
                register_window(&self.param_buf, &mut self.col, len, last)
            }
            OutSource::PageRegister => {
                self.check_bulk_data_allowed()?;
                let reg = &self.page_regs[self.active_plane as usize];
                register_window(reg, &mut self.col, len, last)
            }
            OutSource::CacheRegister => {
                self.check_bulk_data_allowed()?;
                register_window(&self.cache_reg, &mut self.col, len, last)
            }
            OutSource::None => {
                let first = phase.packet_len(run.start, bytes);
                return Err(LunError::UnexpectedPhase {
                    state: self.decode.name(),
                    phase: format!("DOUT[{first}]"),
                });
            }
        };
        Ok(self.maybe_scramble(window, phase, bytes, run))
    }

    /// Resolves a busy period that ended by `now`, applying its effect.
    /// Every phase edge asks, and most find none, so the check is inlined
    /// into its callers and the resolution is not.
    #[inline]
    fn refresh(&mut self, now: SimTime) {
        if self.busy.as_ref().is_some_and(|busy| busy.until <= now) {
            self.resolve_busy();
        }
    }

    /// Ends the busy period, applying its effect.
    fn resolve_busy(&mut self) {
        let busy = self.busy.take().expect("a busy period to resolve");
        match busy.effect {
            Effect::LoadPage { col, pslc } => {
                let rows = std::mem::take(&mut self.loading);
                for row in &rows {
                    let plane = self.array.geometry().plane_of(row.block) as usize;
                    self.fetch_with_errors(*row, pslc, plane);
                    self.stats.reads += 1;
                }
                if let Some(last) = rows.last() {
                    self.active_plane = self.array.geometry().plane_of(last.block);
                    self.last_row = Some(*last);
                }
                self.loading = rows;
                // In a cache read the freshly fetched page lands in the page
                // register while the previously moved page keeps streaming
                // from the cache register, at its current column.
                if let Some(col) = col {
                    self.col = col;
                    self.set_bulk_out(OutSource::PageRegister);
                }
            }
            Effect::CommitProgram { row, pslc, data } => {
                self.stats.program_attempts += 1;
                match self.array.program_data(row, data, pslc) {
                    Ok(()) => {
                        self.last_fail = false;
                        self.stats.programs += 1;
                    }
                    Err(_) => self.last_fail = true,
                }
            }
            Effect::CommitErase { row } => {
                self.stats.erase_attempts += 1;
                match self.array.erase_block(row) {
                    Ok(()) => {
                        self.last_fail = false;
                        self.stats.erases += 1;
                    }
                    Err(_) => self.last_fail = true,
                }
            }
            Effect::FinishReset => {
                self.initialized = true;
            }
            Effect::LoadParamPage => {
                // ONFI mandates at least three copies of the page.
                let one = self.cfg.profile.param_page().to_bytes();
                let mut buf = Vec::with_capacity(one.len() * 3);
                for _ in 0..3 {
                    buf.extend_from_slice(&one);
                }
                self.param_buf = PageData::from(buf);
                self.col = 0;
                self.set_bulk_out(OutSource::ParamPage);
            }
            Effect::None => {}
        }
    }

    /// Selects the bulk data-output source. If a status readout is in
    /// progress (READ STATUS issued, not yet restored with 0x00), the new
    /// source is parked behind it instead of clobbering the status mode.
    fn set_bulk_out(&mut self, src: OutSource) {
        if self.out == OutSource::Status {
            self.out_before_status = src;
        } else {
            self.out = src;
        }
    }

    /// Array fetch into `page_regs[plane]`, plus the raw-bit-error process.
    /// The register keeps the array's description; only a page that takes
    /// bit flips is materialized, and the RNG draws depend on its length
    /// alone, so they are the same whatever the page holds.
    fn fetch_with_errors(&mut self, row: RowAddr, pslc_read: bool, plane: usize) {
        let raw = self.array.geometry().raw_page_size();
        let mut data = self
            .array
            .page_data(row)
            .unwrap_or_else(|_| PageData::fill(0xFF, raw));
        if self.cfg.inject_errors {
            let page_pslc = matches!(
                self.array.page_state(row),
                Ok(crate::array::PageState::Programmed { pslc: true })
            );
            let ctx = BerContext {
                cell: self.cfg.profile.cell,
                pe_cycles: self.array.erase_count(row.block),
                retry_level: self.features.read_retry_level(),
                pslc: page_pslc || pslc_read,
            };
            let bits = data.len() as f64 * 8.0;
            let lambda = raw_ber(ctx) * bits;
            let flips = poisson(&mut self.rng, lambda);
            if flips > 0 {
                let mut bytes = data.materialize();
                for _ in 0..flips {
                    let bit = self.rng.next_below(bytes.len() as u64 * 8);
                    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                data = self.pool.raw(bytes);
            }
        }
        self.page_regs[plane] = data;
    }

    fn jittered(&mut self, nominal: SimDuration) -> SimDuration {
        let pct = self.cfg.profile.jitter_pct as u64;
        if pct == 0 {
            return nominal;
        }
        let span = nominal.as_picos() * pct / 100;
        let offset = self.rng.next_below(2 * span + 1);
        SimDuration::from_picos(nominal.as_picos() - span + offset)
    }

    fn begin_busy(&mut self, now: SimTime, dur: SimDuration, kind: BusyKind, effect: Effect) {
        self.busy = Some(Busy {
            until: now + dur,
            kind,
            effect,
        });
    }

    /// Takes `cycle` through the shared grammar and returns the action to
    /// apply. A refused cycle leaves the decoder idle; `phase` labels the
    /// error and is only called then.
    #[inline]
    fn step(&mut self, cycle: Cycle, phase: impl FnOnce() -> String) -> Result<Action, LunError> {
        let state = self.decode;
        match decode::step(state, cycle, &self.layout) {
            Ok((next, action)) => {
                self.decode = next;
                Ok(action)
            }
            Err(reject) => {
                self.decode = Decode::Idle;
                Err(match (reject, cycle) {
                    (Reject::AddrLength(want), Cycle::Addr(got)) => {
                        LunError::BadAddressLength { got, want }
                    }
                    _ => LunError::UnexpectedPhase {
                        state: state.name(),
                        phase: phase(),
                    },
                })
            }
        }
    }

    fn on_command(&mut self, now: SimTime, opcode: u8) -> Result<LunResponse, LunError> {
        if let Some(busy) = &self.busy {
            if !busy.kind.admits(opcode) {
                return Err(LunError::BusyViolation {
                    mnemonic: mnemonic(opcode),
                });
            }
        }
        let action = self.step(Cycle::Cmd(opcode), || format!("CMD {}", mnemonic(opcode)))?;
        self.apply(now, action, opcode, &[])
    }

    fn on_address(&mut self, now: SimTime, bytes: &[u8]) -> Result<LunResponse, LunError> {
        let action = self.step(Cycle::Addr(bytes.len()), || {
            format!("ADDR[{}]", bytes.len())
        })?;
        self.apply(now, action, 0, bytes)
    }

    /// The row the grammar latched for the confirm being applied.
    fn latched_row(&self) -> RowAddr {
        self.latch_row
            .expect("the grammar latches a row before every confirm that uses one")
    }

    /// Applies an accepted command (`opcode`) or address (`bytes`).
    fn apply(
        &mut self,
        now: SimTime,
        action: Action,
        opcode: u8,
        bytes: &[u8],
    ) -> Result<LunResponse, LunError> {
        let (col_bytes, row_bytes) = bytes.split_at(self.layout.col_cycles.min(bytes.len()));
        match action {
            Action::None => {}
            Action::Status => {
                if self.out != OutSource::Status {
                    self.out_before_status = self.out;
                }
                self.out = OutSource::Status;
            }
            Action::Restore => {
                // 00h after a READ STATUS returns to data output.
                if self.out == OutSource::Status {
                    self.out = match self.out_before_status {
                        OutSource::None | OutSource::Status => {
                            if self.busy_kind().is_some_and(BusyKind::allows_data_out) {
                                OutSource::CacheRegister
                            } else {
                                OutSource::PageRegister
                            }
                        }
                        other => other,
                    };
                }
            }
            Action::Busy(BusyKind::Reset) => {
                self.out = OutSource::None;
                self.suspended = None;
                self.queued_rows.clear();
                self.pslc_armed = false;
                self.retry_armed = false;
                self.features.reset();
                self.iface = DataInterface::Sdr { mode: 0 };
                let dur = self.jittered(self.cfg.profile.t_rst);
                self.begin_busy(now, dur, BusyKind::Reset, Effect::FinishReset);
            }
            Action::Suspend => self.on_suspend(now, opcode)?,
            Action::Resume => self.on_resume(now),
            Action::ArmPslc => self.pslc_armed = true,
            Action::ArmRetry => self.retry_armed = true,
            Action::Busy(BusyKind::Read) => {
                let pslc = self.take_pslc();
                let profile = &self.cfg.profile;
                let nominal = if pslc { profile.t_r_slc } else { profile.t_r };
                let dur = self.jittered(nominal);
                let row = self.latched_row();
                self.loading.clear();
                self.loading.append(&mut self.queued_rows);
                self.loading.push(row);
                self.out = OutSource::None;
                let col = Some(self.latch_col);
                self.begin_busy(now, dur, BusyKind::Read, Effect::LoadPage { col, pslc });
            }
            Action::Busy(BusyKind::PlaneQueue) => {
                // 0x00 <addr> 0x32: queue this plane's fetch, stay ready for
                // the next 0x00.
                self.queued_rows.push(self.latched_row());
                self.begin_busy(
                    now,
                    PackageProfile::PLANE_QUEUE_WINDOW,
                    BusyKind::PlaneQueue,
                    Effect::None,
                );
            }
            Action::Busy(BusyKind::CacheRead) => {
                // Move the just-read page to the cache register and fetch the
                // next sequential page in the background.
                let Some(last) = self.last_row else {
                    return Err(LunError::UnexpectedPhase {
                        state: "idle (no page loaded)",
                        phase: format!("CMD {}", mnemonic(opcode)),
                    });
                };
                self.cache_reg
                    .clone_from(&self.page_regs[self.active_plane as usize]);
                self.out = OutSource::CacheRegister;
                self.col = 0;
                let next = RowAddr {
                    page: (last.page + 1).min(self.array.geometry().pages_per_block - 1),
                    ..last
                };
                let dur = self.jittered(self.cfg.profile.t_r);
                self.loading.clear();
                self.loading.push(next);
                let effect = Effect::LoadPage {
                    col: None,
                    pslc: false,
                };
                self.begin_busy(now, dur, BusyKind::CacheRead, effect);
            }
            Action::CacheEnd => {
                self.cache_reg
                    .clone_from(&self.page_regs[self.active_plane as usize]);
                self.out = OutSource::CacheRegister;
                self.col = 0;
                self.begin_busy(
                    now,
                    PackageProfile::CACHE_END_WINDOW,
                    BusyKind::CacheRead,
                    Effect::None,
                );
            }
            Action::SelectColumn => {
                if let Some(row) = self.latch_row {
                    self.active_plane = self.array.geometry().plane_of(row.block);
                }
                self.col = self.latch_col;
                if self.out != OutSource::CacheRegister && self.out != OutSource::ParamPage {
                    self.out = OutSource::PageRegister;
                }
            }
            Action::Busy(kind @ (BusyKind::Program | BusyKind::CacheProgram)) => {
                let row = self.latched_row();
                let pslc = self.take_pslc();
                let profile = &self.cfg.profile;
                let nominal = if pslc {
                    profile.t_prog_slc
                } else {
                    profile.t_prog
                };
                let dur = self.jittered(nominal);
                let plane = self.array.geometry().plane_of(row.block) as usize;
                let data = self.page_regs[plane].clone();
                // A confirm during a cache program commits the pending page
                // first; this page's tPROG starts when the array frees.
                let start = match &self.busy {
                    Some(pending) if pending.kind == BusyKind::CacheProgram => {
                        let until = pending.until;
                        self.resolve_busy();
                        until
                    }
                    _ => now,
                };
                self.begin_busy(start, dur, kind, Effect::CommitProgram { row, pslc, data });
            }
            Action::Busy(BusyKind::Erase) => {
                let row = self.latched_row();
                let dur = self.jittered(self.cfg.profile.t_bers);
                self.begin_busy(now, dur, BusyKind::Erase, Effect::CommitErase { row });
            }
            Action::Busy(BusyKind::ParamPage) => {
                let dur = self.jittered(self.cfg.profile.t_param);
                self.begin_busy(now, dur, BusyKind::ParamPage, Effect::LoadParamPage);
            }
            Action::LatchPage | Action::LatchProgram => {
                let row = self.layout.unpack_row(row_bytes);
                let col = self.layout.unpack_col(col_bytes).0;
                self.latch_row = Some(row);
                self.latch_col = col;
                if action == Action::LatchProgram {
                    self.active_plane = self.array.geometry().plane_of(row.block);
                    let raw = self.array.geometry().raw_page_size();
                    self.page_regs[self.active_plane as usize] = PageData::fill(0xFF, raw);
                    self.col = col;
                }
            }
            Action::LatchColumn => {
                self.latch_row = None;
                self.latch_col = self.layout.unpack_col(bytes).0;
            }
            Action::LatchWriteColumn => self.col = self.layout.unpack_col(bytes).0,
            Action::LatchBlock => self.latch_row = Some(self.layout.unpack_row(bytes)),
            Action::LatchFeature => self.latch_feature = bytes[0],
            Action::ReadFeature => self.out = OutSource::Features(bytes[0]),
            Action::ReadId => {
                self.out = OutSource::Id;
                self.col = 0;
            }
            Action::Busy(BusyKind::Suspending) | Action::Write | Action::SetFeature => {
                unreachable!("{action:?} is not the action of a latch")
            }
        }
        Ok(LunResponse::Accepted)
    }

    /// Each packet of `run`'s `len.max(1)` bytes cycling through `value`
    /// (feature and ID readouts), one raw buffer a packet.
    fn small_readout(
        &self,
        phase: &BusPhase,
        bytes: usize,
        run: Range<u32>,
        value: &[u8],
    ) -> PageData {
        let mut out = PageData::empty();
        for i in run {
            let len = phase.packet_len(i, bytes).max(1);
            out.append(
                self.pool
                    .raw(value.iter().copied().cycle().take(len).collect()),
            );
        }
        out
    }

    /// Bulk data phases require the boot contract to have been honoured.
    fn check_bulk_data_allowed(&self) -> Result<(), LunError> {
        if !self.cfg.require_init {
            return Ok(());
        }
        if !self.initialized {
            return Err(LunError::NotInitialized);
        }
        Ok(())
    }

    /// Corrupts bulk data deterministically when the controller's DQS
    /// phase does not match the board trace (until calibration fixes it):
    /// each packet's bytes are materialized, then scrambled. `data` is the
    /// packets `run` of a `bytes`-byte burst.
    fn maybe_scramble(
        &self,
        data: PageData,
        phase: &BusPhase,
        bytes: usize,
        run: Range<u32>,
    ) -> PageData {
        if !self.cfg.require_init {
            return data;
        }
        if matches!(self.iface, DataInterface::Sdr { .. }) {
            return data; // SDR is slow enough to be phase-insensitive.
        }
        if self.configured_phase == Some(self.required_phase) {
            return data;
        }
        let at = phase.packet_offset(run.start, bytes);
        let mut out = PageData::empty();
        for i in run {
            let offset = phase.packet_offset(i, bytes) - at;
            let mut raw = data.slice(offset, phase.packet_len(i, bytes)).materialize();
            for (k, b) in raw.iter_mut().enumerate() {
                *b ^= 0xA5 ^ (k as u8).rotate_left(3);
            }
            out.append(self.pool.raw(raw));
        }
        out
    }

    fn apply_timing_mode(&mut self, value: [u8; 4]) {
        /// NV-DDR2 timing-mode to MT/s mapping (ONFI 5.x Table 81).
        const NV_DDR2_MTS: [u32; 9] = [30, 40, 50, 66, 83, 100, 133, 166, 200];
        match value[1] {
            0 => {
                self.iface = DataInterface::Sdr {
                    mode: value[0].min(5),
                };
            }
            2 => {
                let mode = (value[0] as usize).min(8);
                let mts = NV_DDR2_MTS[mode].min(self.cfg.profile.max_mts);
                self.iface = DataInterface::NvDdr2 { mts };
            }
            _ => {}
        }
    }

    fn on_suspend(&mut self, now: SimTime, opcode: u8) -> Result<(), LunError> {
        let Some(busy) = &self.busy else {
            // Suspending an idle LUN is a no-op on real parts.
            return Ok(());
        };
        if !busy.kind.suspended_by(opcode) {
            return Err(LunError::BusyViolation {
                mnemonic: mnemonic(opcode),
            });
        }
        let busy = self.busy.take().expect("just checked");
        let remaining = busy.until.saturating_since(now);
        self.suspended = Some(Suspended {
            remaining,
            kind: busy.kind,
            effect: busy.effect,
        });
        // The suspend itself takes a short latency window before the LUN is
        // usable (datasheet tESPD/tPSPD, ~20 us).
        self.begin_busy(
            now,
            PackageProfile::SUSPEND_WINDOW,
            BusyKind::Suspending,
            Effect::None,
        );
        Ok(())
    }

    fn on_resume(&mut self, now: SimTime) {
        let Some(s) = self.suspended.take() else {
            return;
        };
        // Resume penalty: re-ramping the program/erase voltages costs a
        // little extra on top of the remaining time.
        self.begin_busy(
            now,
            s.remaining + PackageProfile::RESUME_PENALTY,
            s.kind,
            s.effect,
        );
    }

    fn take_pslc(&mut self) -> bool {
        let armed = self.pslc_armed || self.features.pslc_enabled();
        self.pslc_armed = false;
        self.retry_armed = false;
        armed
    }
}

/// Bytes `col..col + bytes` of `reg`, padded past its end with `0xFF`,
/// read as packets the last of which holds `last` bytes. The column
/// pointer `col` advances as the packets one by one would move it: each
/// starts at the column clamped to the register end.
fn register_window(reg: &PageData, col: &mut u32, bytes: usize, last: usize) -> PageData {
    let start = (*col as usize).min(reg.len());
    let end = (start + bytes).min(reg.len());
    let mut out = reg.slice(start, end - start);
    if end - start < bytes {
        out.append(PageData::fill(0xFF, bytes - (end - start)));
    }
    *col = ((start + bytes - last).min(reg.len()) + last) as u32;
    out
}

/// Knuth's Poisson sampler, adequate for the small λ of page reads.
fn poisson(rng: &mut SplitMix64, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 100.0 {
        // Normal approximation for heavily worn pages.
        let u = rng.next_f64().max(1e-12);
        let v = rng.next_f64();
        let z = (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
        return (lambda + z * lambda.sqrt()).max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use babol_onfi::opcode::op;

    /// A phase that starts and ends at the instant it is delivered.
    fn instant(kind: PhaseKind) -> BusPhase {
        BusPhase::new(kind, SimDuration::ZERO)
    }

    /// Drives phases into a LUN with a manually advanced clock.
    struct Driver {
        lun: Lun,
        now: SimTime,
    }

    impl Driver {
        fn new(cfg: LunConfig) -> Self {
            Driver {
                lun: Lun::new(cfg),
                now: SimTime::ZERO,
            }
        }

        fn tick(&mut self, d: SimDuration) {
            self.now += d;
        }

        fn cmd(&mut self, opcode: u8) -> LunResponse {
            self.tick(SimDuration::from_nanos(50));
            self.lun
                .phase(self.now, &instant(PhaseKind::CmdLatch(opcode)))
                .unwrap()
        }

        fn try_cmd(&mut self, opcode: u8) -> Result<LunResponse, LunError> {
            self.tick(SimDuration::from_nanos(50));
            self.lun
                .phase(self.now, &instant(PhaseKind::CmdLatch(opcode)))
        }

        fn addr(&mut self, bytes: Vec<u8>) -> LunResponse {
            self.tick(SimDuration::from_nanos(150));
            self.lun
                .phase(self.now, &instant(PhaseKind::AddrLatch(bytes)))
                .unwrap()
        }

        fn din(&mut self, data: Vec<u8>) -> LunResponse {
            self.tick(SimDuration::from_nanos(100));
            self.lun
                .phase(self.now, &instant(PhaseKind::DataIn(data.into())))
                .unwrap()
        }

        fn dout(&mut self, bytes: usize) -> Vec<u8> {
            self.tick(SimDuration::from_nanos(100));
            match self
                .lun
                .phase(self.now, &instant(PhaseKind::DataOut { bytes }))
                .unwrap()
            {
                LunResponse::Data(d) => d.materialize(),
                other => panic!("expected data, got {other:?}"),
            }
        }

        fn wait_ready(&mut self) {
            if let Some(until) = self.lun.busy_until() {
                self.now = self.now.max(until) + SimDuration::from_nanos(1);
            }
        }

        fn full_addr(&self, row: RowAddr, col: u32) -> Vec<u8> {
            let layout = self.lun.profile().geometry.addr_layout(16);
            layout.pack_full(babol_onfi::addr::ColumnAddr(col), row)
        }

        fn row_addr(&self, row: RowAddr) -> Vec<u8> {
            self.lun.profile().geometry.addr_layout(16).pack_row(row)
        }

        fn col_addr(&self, col: u32) -> Vec<u8> {
            self.lun
                .profile()
                .geometry
                .addr_layout(16)
                .pack_col(babol_onfi::addr::ColumnAddr(col))
        }

        /// Full page program sequence.
        fn program(&mut self, row: RowAddr, data: &[u8]) {
            self.cmd(op::PROGRAM_1);
            let a = self.full_addr(row, 0);
            self.addr(a);
            self.din(data.to_vec());
            self.cmd(op::PROGRAM_2);
            self.wait_ready();
        }

        /// Full page read sequence; returns `n` bytes from column 0.
        fn read(&mut self, row: RowAddr, n: usize) -> Vec<u8> {
            self.cmd(op::READ_1);
            let a = self.full_addr(row, 0);
            self.addr(a);
            self.cmd(op::READ_2);
            self.wait_ready();
            self.dout(n)
        }
    }

    fn row(block: u32, page: u32) -> RowAddr {
        RowAddr {
            lun: 0,
            block,
            page,
        }
    }

    #[test]
    fn read_sequence_times_and_streams() {
        let mut d = Driver::new(LunConfig::test_default());
        d.cmd(op::READ_1);
        let a = d.full_addr(row(0, 0), 0);
        d.addr(a);
        assert!(d.lun.busy_until().is_none());
        d.cmd(op::READ_2);
        // Busy for exactly tR (no jitter in the test profile).
        let until = d.lun.busy_until().expect("busy after confirm");
        assert_eq!(until - d.now, PackageProfile::test_tiny().t_r);
        assert!(!d.lun.status(d.now).is_ready());
        d.wait_ready();
        assert!(d.lun.status(d.now).is_ready());
        let bytes = d.dout(16);
        assert_eq!(bytes, vec![0xFF; 16]); // pristine page
        assert_eq!(d.lun.stats().reads, 1);
    }

    #[test]
    fn program_read_roundtrip_with_column() {
        let mut d = Driver::new(LunConfig::test_default());
        d.program(row(0, 0), b"abcdef");
        let got = d.read(row(0, 0), 6);
        assert_eq!(&got, b"abcdef");
        // Change read column to offset 2.
        d.cmd(op::CHANGE_READ_COL_1);
        let c = d.col_addr(2);
        d.addr(c);
        d.cmd(op::CHANGE_READ_COL_2);
        assert_eq!(d.dout(4), b"cdef".to_vec());
    }

    #[test]
    fn status_poll_loop_matches_paper_algorithm() {
        let mut d = Driver::new(LunConfig::test_default());
        d.cmd(op::READ_1);
        let a = d.full_addr(row(1, 0), 0);
        d.addr(a);
        d.cmd(op::READ_2);
        // Poll READ STATUS like Algorithm 1/2: issue 0x70, read one byte.
        let mut polls = 0;
        loop {
            d.cmd(op::READ_STATUS);
            let st = d.dout(1)[0];
            polls += 1;
            if st & 0x40 != 0 {
                break;
            }
            d.tick(SimDuration::from_micros(2));
        }
        assert!(polls > 1, "tR should take several polls");
        // Restore data output with 0x00 and stream.
        d.cmd(op::READ_1);
        // ONFI: a bare 0x00 after status restores output; simulate via
        // data-out directly (decode state tolerates it).
        let data = d.dout(8);
        assert_eq!(data.len(), 8);
        assert_eq!(d.lun.stats().status_polls, polls);
    }

    #[test]
    fn busy_violation_rejected() {
        let mut d = Driver::new(LunConfig::test_default());
        d.cmd(op::READ_1);
        let a = d.full_addr(row(0, 0), 0);
        d.addr(a);
        d.cmd(op::READ_2);
        let err = d.try_cmd(op::READ_1).unwrap_err();
        assert!(matches!(err, LunError::BusyViolation { .. }));
    }

    #[test]
    fn pslc_prefix_speeds_up_read() {
        let mut d = Driver::new(LunConfig::test_default());
        d.cmd(op::PSLC_PREFIX);
        d.cmd(op::READ_1);
        let a = d.full_addr(row(0, 0), 0);
        d.addr(a);
        d.cmd(op::READ_2);
        let until = d.lun.busy_until().unwrap();
        assert_eq!(until - d.now, PackageProfile::test_tiny().t_r_slc);
    }

    #[test]
    fn pslc_program_records_mode() {
        let mut d = Driver::new(LunConfig::test_default());
        d.cmd(op::PSLC_PREFIX);
        d.cmd(op::PROGRAM_1);
        let a = d.full_addr(row(2, 0), 0);
        d.addr(a);
        d.din(vec![1, 2, 3]);
        d.cmd(op::PROGRAM_2);
        let until = d.lun.busy_until().unwrap();
        assert_eq!(until - d.now, PackageProfile::test_tiny().t_prog_slc);
        d.wait_ready();
        d.lun.status(d.now);
        assert_eq!(
            d.lun.array().page_state(row(2, 0)).unwrap(),
            crate::array::PageState::Programmed { pslc: true }
        );
    }

    #[test]
    fn erase_sequence() {
        let mut d = Driver::new(LunConfig::test_default());
        d.program(row(0, 0), &[9]);
        d.cmd(op::ERASE_1);
        let a = d.row_addr(row(0, 0));
        d.addr(a);
        d.cmd(op::ERASE_2);
        assert_eq!(d.lun.busy_kind(), Some(BusyKind::Erase));
        d.wait_ready();
        d.lun.status(d.now);
        assert_eq!(d.lun.array().erase_count(0), 1);
        assert_eq!(d.read(row(0, 0), 1), vec![0xFF]);
    }

    #[test]
    fn program_status_reports_failure_on_reprogram() {
        let mut d = Driver::new(LunConfig::test_default());
        d.program(row(0, 0), &[1]);
        // Program the same page again without erase: must FAIL via status.
        d.program(row(0, 0), &[2]);
        let st = d.lun.status(d.now);
        assert!(st.failed());
        // Content unchanged.
        assert_eq!(d.read(row(0, 0), 1), vec![1]);
    }

    #[test]
    fn set_features_switches_interface() {
        let mut d = Driver::new(LunConfig::test_default());
        assert_eq!(d.lun.interface(), DataInterface::Sdr { mode: 0 });
        d.cmd(op::SET_FEATURES);
        d.addr(vec![feat::TIMING_MODE]);
        d.din(vec![8, 2, 0, 0]); // NV-DDR2 mode 8 = 200 MT/s
        assert_eq!(d.lun.interface(), DataInterface::NvDdr2 { mts: 200 });
        // GET FEATURES reads it back.
        d.cmd(op::GET_FEATURES);
        d.addr(vec![feat::TIMING_MODE]);
        assert_eq!(d.dout(4), vec![8, 2, 0, 0]);
    }

    #[test]
    fn read_id_returns_profile_ids() {
        let mut d = Driver::new(LunConfig::test_default());
        d.cmd(op::READ_ID);
        d.addr(vec![0x00]);
        let id = d.dout(2);
        assert_eq!(id[0], PackageProfile::test_tiny().manufacturer_id);
        assert_eq!(id[1], PackageProfile::test_tiny().device_id);
    }

    #[test]
    fn param_page_has_three_valid_copies() {
        let mut d = Driver::new(LunConfig::test_default());
        d.cmd(op::READ_PARAM_PAGE);
        d.addr(vec![0x00]);
        assert_eq!(d.lun.busy_kind(), Some(BusyKind::ParamPage));
        d.wait_ready();
        let buf = d.dout(256 * 3);
        for copy in 0..3 {
            let page =
                babol_onfi::param_page::ParamPage::from_bytes(&buf[copy * 256..(copy + 1) * 256])
                    .unwrap();
            assert_eq!(page.page_size as usize, Geometry::tiny().page_size);
        }
    }

    #[test]
    fn cache_read_streams_while_fetching() {
        let mut d = Driver::new(LunConfig::test_default());
        d.program(row(0, 0), b"page-zero");
        d.program(row(0, 1), b"page-one!");
        // Normal read of page 0.
        d.read(row(0, 0), 1);
        // Kick a cache read: page 0 moves to cache, page 1 fetch starts.
        d.cmd(op::READ_CACHE_SEQ);
        assert_eq!(d.lun.busy_kind(), Some(BusyKind::CacheRead));
        let st = d.lun.status(d.now);
        assert!(st.is_ready() && !st.array_ready());
        // Data-out during cache busy streams the *cached* page 0.
        assert_eq!(d.dout(9), b"page-zero".to_vec());
        d.wait_ready();
        // Terminate: page 1 moves to cache.
        d.cmd(op::READ_CACHE_END);
        d.wait_ready();
        d.lun.status(d.now);
        assert_eq!(d.dout(9), b"page-one!".to_vec());
    }

    #[test]
    fn reused_registers_never_leak_stale_bytes() {
        let mut cfg = LunConfig::test_default();
        cfg.content = ContentMode::Preloaded { seed: 3 };
        let mut d = Driver::new(cfg);
        let raw = Geometry::tiny().raw_page_size();
        // Blocks 0 and 2 are both on plane 0: the read leaves preloaded
        // bytes in the register the program then reuses.
        let preloaded = d.lun.array().read_page(row(2, 5)).unwrap();
        assert_eq!(d.read(row(2, 5), raw), preloaded);
        d.cmd(op::ERASE_1);
        let a = d.row_addr(row(0, 0));
        d.addr(a);
        d.cmd(op::ERASE_2);
        d.wait_ready();
        d.program(row(0, 0), b"hello flash");
        let page = d.read(row(0, 0), raw);
        assert_eq!(&page[..11], b"hello flash");
        assert!(page[11..].iter().all(|&b| b == 0xFF), "stale register tail");

        // A cache read copies the register into the cache register in place.
        let first = d.lun.array().read_page(row(2, 3)).unwrap();
        let next = d.lun.array().read_page(row(2, 4)).unwrap();
        d.read(row(2, 3), 1);
        d.cmd(op::READ_CACHE_SEQ);
        assert_eq!(d.dout(raw), first);
        d.wait_ready();
        d.cmd(op::READ_CACHE_END);
        d.wait_ready();
        d.lun.status(d.now);
        assert_eq!(d.dout(raw), next);
    }

    #[test]
    fn cache_read_fetch_inside_a_burst_keeps_streaming_the_cache_register() {
        let mut cfg = LunConfig::test_default();
        cfg.content = ContentMode::Preloaded { seed: 5 };
        let mut d = Driver::new(cfg);
        let page_k = d.lun.array().read_page(row(2, 3)).unwrap();
        d.read(row(2, 3), 1);
        d.cmd(op::READ_CACHE_SEQ);
        // Four 64-byte packets of the cache register, 100 ns each: the
        // background fetch of page k + 1 completes between the ends of the
        // first and the second.
        let fetched = d.lun.busy_until().unwrap();
        let packets = babol_onfi::bus::Packets {
            count: 4,
            size: 64,
            gap: None,
            full: SimDuration::from_nanos(100),
        };
        let burst = BusPhase::burst(
            PhaseKind::DataOut { bytes: 256 },
            packets,
            SimDuration::from_nanos(400),
        );
        let start = fetched - SimDuration::from_nanos(150);
        let LunResponse::Data(out) = d.lun.phase(start, &burst).unwrap() else {
            panic!("a data-out burst returns data");
        };
        assert_eq!(d.lun.stats().reads, 2, "the fetch completed mid-burst");
        assert_eq!(out.materialize(), page_k[..256].to_vec());
    }

    #[test]
    fn cache_program_commits_the_first_page_data() {
        // B's confirm inside A's tPROG, then after it.
        for inside in [true, false] {
            let mut d = Driver::new(LunConfig::test_default());
            d.cmd(op::PROGRAM_1);
            let a = d.full_addr(row(0, 0), 0);
            d.addr(a);
            d.din(b"page-A".to_vec());
            d.cmd(op::PROGRAM_CACHE);
            let a_programmed = d.lun.busy_until().unwrap();
            // Page B is latched and filled on the same plane while A programs.
            d.cmd(op::PROGRAM_1);
            let b = d.full_addr(row(0, 1), 0);
            d.addr(b);
            d.din(b"page-B".to_vec());
            if !inside {
                d.now = a_programmed + SimDuration::from_nanos(1);
                assert!(d.lun.status(d.now).array_ready());
            }
            d.cmd(op::PROGRAM_2);
            assert_eq!(d.now < a_programmed, inside);
            let b_programmed = d.lun.busy_until().unwrap();
            let t_prog = d.lun.profile().t_prog;
            assert!(b_programmed >= a_programmed.max(d.now) + t_prog);
            d.wait_ready();
            assert_eq!(d.read(row(0, 0), 6), b"page-A".to_vec());
            assert_eq!(d.read(row(0, 1), 6), b"page-B".to_vec());
            assert_eq!(d.lun.stats().program_attempts, 2);
        }
    }

    #[test]
    fn read_during_program_suspend_keeps_the_program_data() {
        let mut d = Driver::new(LunConfig::test_default());
        // Blocks 0 and 2 are both on plane 0: the read refills the page
        // register the suspended program was confirmed from.
        d.program(row(0, 0), b"other");
        d.cmd(op::PROGRAM_1);
        let a = d.full_addr(row(2, 0), 0);
        d.addr(a);
        d.din(b"page-A".to_vec());
        d.cmd(op::PROGRAM_2);
        d.tick(SimDuration::from_micros(30));
        d.cmd(op::PROGRAM_SUSPEND);
        d.wait_ready();
        assert!(d.lun.status(d.now).is_ready());
        assert_eq!(d.read(row(0, 0), 5), b"other".to_vec());
        d.cmd(op::SUSPEND_RESUME);
        assert_eq!(d.lun.busy_kind(), Some(BusyKind::Program));
        d.wait_ready();
        assert_eq!(d.read(row(2, 0), 6), b"page-A".to_vec());
    }

    #[test]
    fn erase_suspend_and_resume() {
        let mut d = Driver::new(LunConfig::test_default());
        d.program(row(1, 0), &[7]);
        d.cmd(op::ERASE_1);
        let a = d.row_addr(row(1, 0));
        d.addr(a);
        d.cmd(op::ERASE_2);
        // Part-way through the erase, suspend it.
        d.tick(SimDuration::from_micros(30));
        d.cmd(op::ERASE_SUSPEND);
        assert_eq!(d.lun.busy_kind(), Some(BusyKind::Suspending));
        d.wait_ready();
        assert!(d.lun.status(d.now).is_ready());
        // A read can happen while the erase is suspended (different block).
        d.program(row(2, 0), b"interleaved");
        assert_eq!(d.read(row(2, 0), 11), b"interleaved".to_vec());
        // The suspended block has NOT been erased yet.
        assert_eq!(d.lun.array().erase_count(1), 0);
        // Resume and let it finish.
        d.cmd(op::SUSPEND_RESUME);
        assert_eq!(d.lun.busy_kind(), Some(BusyKind::Erase));
        d.wait_ready();
        d.lun.status(d.now);
        assert_eq!(d.lun.array().erase_count(1), 1);
    }

    #[test]
    fn reset_clears_features_and_interface() {
        let mut d = Driver::new(LunConfig::test_default());
        d.cmd(op::SET_FEATURES);
        d.addr(vec![feat::TIMING_MODE]);
        d.din(vec![8, 2, 0, 0]);
        d.cmd(op::RESET);
        assert_eq!(d.lun.busy_kind(), Some(BusyKind::Reset));
        d.wait_ready();
        d.lun.status(d.now);
        assert_eq!(d.lun.interface(), DataInterface::Sdr { mode: 0 });
    }

    #[test]
    fn reset_is_legal_while_busy() {
        let mut d = Driver::new(LunConfig::test_default());
        d.cmd(op::READ_1);
        let a = d.full_addr(row(0, 0), 0);
        d.addr(a);
        d.cmd(op::READ_2);
        // RESET mid-tR aborts the read.
        d.cmd(op::RESET);
        assert_eq!(d.lun.busy_kind(), Some(BusyKind::Reset));
    }

    #[test]
    fn multi_plane_read_loads_both_planes() {
        let mut d = Driver::new(LunConfig::test_default());
        // Blocks 0 and 1 are on planes 0 and 1.
        d.program(row(0, 0), b"plane-zero");
        d.program(row(1, 0), b"plane-one!");
        // Queue plane 0, then confirm with plane 1.
        d.cmd(op::READ_1);
        let a0 = d.full_addr(row(0, 0), 0);
        d.addr(a0);
        d.cmd(op::MULTI_PLANE_NEXT);
        d.wait_ready();
        d.lun.status(d.now);
        d.cmd(op::READ_1);
        let a1 = d.full_addr(row(1, 0), 0);
        d.addr(a1);
        d.cmd(op::READ_2);
        d.wait_ready();
        d.lun.status(d.now);
        // Active plane is the last addressed one (plane 1).
        assert_eq!(d.dout(10), b"plane-one!".to_vec());
        // RANDOM DATA OUT selects plane 0.
        d.cmd(op::RANDOM_DATA_OUT_1);
        let sel = d.full_addr(row(0, 0), 0);
        d.addr(sel);
        d.cmd(op::CHANGE_READ_COL_2);
        assert_eq!(d.dout(10), b"plane-zero".to_vec());
    }

    #[test]
    fn error_injection_flips_bits_on_worn_blocks() {
        let mut cfg = LunConfig::test_default();
        cfg.inject_errors = true;
        cfg.profile.cell = crate::ber::CellType::Qlc;
        let mut d = Driver::new(cfg);
        // Wear block 0 out heavily.
        for _ in 0..2000 {
            d.cmd(op::ERASE_1);
            let a = d.row_addr(row(0, 0));
            d.addr(a);
            d.cmd(op::ERASE_2);
            d.wait_ready();
            d.lun.status(d.now);
        }
        d.program(row(0, 0), &vec![0u8; 512]);
        let got = d.read(row(0, 0), 512);
        let flipped: u32 = got.iter().map(|&b| b.count_ones()).sum();
        assert!(flipped > 0, "expected bit errors on a worn QLC block");
    }

    #[test]
    fn clean_reads_without_injection() {
        let mut d = Driver::new(LunConfig::test_default());
        d.program(row(0, 0), &[0u8; 128]);
        let got = d.read(row(0, 0), 128);
        assert!(got.iter().all(|&b| b == 0));
    }

    #[test]
    fn boot_contract_blocks_uninitialized_bulk_data() {
        let mut cfg = LunConfig::test_default();
        cfg.require_init = true;
        let mut d = Driver::new(cfg);
        d.cmd(op::READ_1);
        let a = d.full_addr(row(0, 0), 0);
        d.addr(a);
        d.cmd(op::READ_2);
        d.wait_ready();
        d.lun.status(d.now);
        d.tick(SimDuration::from_nanos(100));
        let err = d
            .lun
            .phase(d.now, &instant(PhaseKind::DataOut { bytes: 4 }))
            .unwrap_err();
        assert_eq!(err, LunError::NotInitialized);
        // Status remains readable before init.
        d.cmd(op::READ_STATUS);
        let _ = d.dout(1);
    }

    #[test]
    fn calibration_phase_scrambles_high_speed_data() {
        let mut cfg = LunConfig::test_default();
        cfg.require_init = true;
        cfg.seed = 42;
        let mut d = Driver::new(cfg);
        // Boot: RESET, then raise the interface to NV-DDR2.
        d.cmd(op::RESET);
        d.wait_ready();
        d.lun.status(d.now);
        d.cmd(op::SET_FEATURES);
        d.addr(vec![feat::TIMING_MODE]);
        d.din(vec![8, 2, 0, 0]);
        d.program(row(0, 0), b"calibrate-me");
        let required = d.lun.required_phase_for_tests();
        // Wrong phase: scrambled.
        d.lun.set_drive_phase(required.wrapping_add(1) % 8);
        let garbled = d.read(row(0, 0), 12);
        assert_ne!(garbled, b"calibrate-me".to_vec());
        // Right phase: clean.
        d.lun.set_drive_phase(required);
        let clean = d.read(row(0, 0), 12);
        assert_eq!(clean, b"calibrate-me".to_vec());
    }

    #[test]
    fn sdr_data_is_phase_insensitive() {
        let mut cfg = LunConfig::test_default();
        cfg.require_init = true;
        let mut d = Driver::new(cfg);
        d.cmd(op::RESET);
        d.wait_ready();
        d.lun.status(d.now);
        // Still in SDR mode 0; no calibration done, reads are clean.
        d.program(row(0, 0), b"sdr-boot");
        assert_eq!(d.read(row(0, 0), 8), b"sdr-boot".to_vec());
    }

    #[test]
    fn data_out_past_register_end_pads_ff() {
        let mut d = Driver::new(LunConfig::test_default());
        d.program(row(0, 0), &[1, 2, 3]);
        d.read(row(0, 0), 1);
        // Jump to the last byte of the raw page and over-read.
        let raw = Geometry::tiny().raw_page_size() as u32;
        d.cmd(op::CHANGE_READ_COL_1);
        let c = d.col_addr(raw - 2);
        d.addr(c);
        d.cmd(op::CHANGE_READ_COL_2);
        let tail = d.dout(6);
        assert_eq!(tail.len(), 6);
        assert_eq!(&tail[2..], &[0xFF; 4]);
    }

    #[test]
    fn jitter_bounds_hold() {
        let mut cfg = LunConfig::test_default();
        cfg.profile.jitter_pct = 10;
        let nominal = cfg.profile.t_r;
        let mut d = Driver::new(cfg);
        for i in 0..50 {
            d.cmd(op::READ_1);
            let a = d.full_addr(row(0, i % 8), 0);
            d.addr(a);
            d.cmd(op::READ_2);
            let dur = d.lun.busy_until().unwrap() - d.now;
            assert!(dur >= nominal - nominal / 10, "iter {i}: {dur}");
            assert!(dur <= nominal + nominal / 10, "iter {i}: {dur}");
            d.wait_ready();
            d.lun.status(d.now);
        }
    }
}
