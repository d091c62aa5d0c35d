//! A packetized data burst played whole, as one phase through the channel
//! and the LUN, against the same burst expanded into per-packet phases (a
//! gap pause and a data phase per packet, the form the Cosmos+-style
//! baseline emits). Both must move the same bytes, leave every LUN in the
//! same state with the same `LunStats`, give the same `ChannelStats`, the
//! same analyzer rows and the same end time, wherever a LUN's busy
//! deadline falls: before the burst, on or one picosecond either side of
//! any packet edge, or after it.
//!
//! The deadlines come from cache reads (data-out) and cache programs
//! (data-in), the two busy periods a LUN streams data through. Resolving
//! either one changes what the rest of the burst does: a status burst
//! turns from busy to ready, a cache read's fetch rewinds the column the
//! cache register streams from, and a cache program commits the page
//! register the burst is overwriting.

use babol_channel::{Channel, ChannelStats, TraceEvent};
use babol_flash::lun::{LunConfig, LunStats};
use babol_flash::{BusyKind, Lun};
use babol_onfi::addr::{ColumnAddr, RowAddr};
use babol_onfi::bus::{BusPhase, ChipMask, Packets, PhaseKind};
use babol_onfi::opcode::op;
use babol_sim::rng::SplitMix64;
use babol_sim::{PageData, SimDuration, SimTime};
use babol_testkit::prop::{any, range, select, Property};
use babol_testkit::{prop_assert, prop_assert_eq};
use babol_trace::Tracer;
use babol_ufsm::{DmaDest, EmitConfig, PacketizerConfig};

const LUNS: u32 = 3;

/// Array time of the cache read and cache program: long enough that the
/// command starting it can precede a burst its deadline falls inside.
const T_ARRAY: SimDuration = SimDuration::from_micros(500);

/// Bus time of every latch of the setup sequences.
const LATCH: SimDuration = SimDuration::from_nanos(100);

/// The page the setup programs first, and the one a data-in burst fills.
const PAGE_A: RowAddr = RowAddr {
    lun: 0,
    block: 0,
    page: 0,
};
const PAGE_B: RowAddr = RowAddr {
    lun: 0,
    block: 0,
    page: 1,
};

/// One generated case.
#[derive(Debug, Clone)]
struct Case {
    /// Data-in (cache program) rather than data-out (cache read).
    data_in: bool,
    /// A data-out burst reads the status register, not the cache register.
    status: bool,
    /// Packets carry descriptor gaps (a DRAM mover, not an inline reader).
    gapped: bool,
    packet_bytes: usize,
    bytes: usize,
    /// Column the burst starts at.
    col: u32,
    mask: ChipMask,
    /// Where the lowest selected LUN's deadline falls; see [`Case::offset`].
    edge: usize,
    /// Picoseconds off the chosen edge, minus one.
    skew: u64,
    /// Data bytes and the other LUNs' deadlines.
    seed: u64,
}

impl Case {
    fn emit(&self) -> EmitConfig {
        EmitConfig {
            packetizer: PacketizerConfig {
                packet_bytes: self.packet_bytes,
                ..PacketizerConfig::paper()
            },
            ..EmitConfig::nv_ddr2(200)
        }
    }

    /// The burst as one phase.
    fn whole(&self, data: &PageData) -> Vec<BusPhase> {
        let cfg = self.emit();
        let (packets, duration) = if self.data_in {
            cfg.data_in_packets(self.bytes)
        } else {
            cfg.data_out_packets(self.bytes, DmaDest::Dram(0))
        }
        .expect("a burst of at least one byte");
        // A burst without gaps is shorter by one gap a packet.
        let gaps = packets
            .gap
            .map_or(SimDuration::ZERO, |gap| gap * packets.count as u64);
        let (gap, duration) = if self.gapped {
            (packets.gap, duration)
        } else {
            (None, duration - gaps)
        };
        vec![BusPhase::burst(
            self.kind(data, 0, self.bytes),
            Packets { gap, ..packets },
            duration,
        )]
    }

    /// The burst as a gap pause (if any) and a data phase per packet.
    fn expanded(&self, data: &PageData) -> Vec<BusPhase> {
        let cfg = self.emit();
        let mut phases = Vec::new();
        let mut offset = 0;
        for len in cfg.packetizer.packets(self.bytes) {
            if self.gapped {
                phases.push(BusPhase::new(PhaseKind::Pause, cfg.packetizer.packet_gap));
            }
            let time = if self.data_in {
                cfg.timing.data_in_burst(cfg.iface, len)
            } else {
                cfg.timing.data_out_burst(cfg.iface, len)
            };
            phases.push(BusPhase::new(self.kind(data, offset, len), time));
            offset += len;
        }
        phases
    }

    fn kind(&self, data: &PageData, offset: usize, len: usize) -> PhaseKind {
        if self.data_in {
            PhaseKind::DataIn(data.slice(offset, len))
        } else {
            PhaseKind::DataOut { bytes: len }
        }
    }

    /// Offset of the lowest selected LUN's deadline from the burst start:
    /// before it, on or one picosecond off a phase edge of the expanded
    /// form, or after its end.
    fn offset(&self) -> i64 {
        let mut edges = vec![SimDuration::ZERO];
        for p in self.expanded(&PageData::fill(0, self.bytes)) {
            edges.push(*edges.last().unwrap() + p.duration);
        }
        let end = edges.last().unwrap().as_picos() as i64;
        match self.edge % (edges.len() + 2) {
            i if i == edges.len() => -1 - self.skew as i64,
            i if i == edges.len() + 1 => end + 1 + self.skew as i64,
            i => edges[i].as_picos() as i64 + self.skew as i64 - 1,
        }
    }
}

/// What the test compares.
#[derive(Debug, PartialEq)]
struct Run {
    end: SimTime,
    bytes: Vec<u8>,
    stats: ChannelStats,
    luns: Vec<LunView>,
    /// A data-out probe after every deadline passed (the column and source
    /// the burst left), or the array pages once a data-in burst's page is
    /// committed.
    after: Vec<Vec<u8>>,
    after_luns: Vec<LunView>,
    rows: Vec<TraceEvent>,
}

#[derive(Debug, PartialEq)]
struct LunView {
    stats: LunStats,
    busy_until: Option<SimTime>,
    busy_kind: Option<BusyKind>,
    state: String,
}

fn views(ch: &Channel) -> Vec<LunView> {
    (0..ch.lun_count())
        .map(|i| {
            let lun = ch.lun(i);
            LunView {
                stats: lun.stats(),
                busy_until: lun.busy_until(),
                busy_kind: lun.busy_kind(),
                state: format!("{lun:?}"),
            }
        })
        .collect()
}

fn channel() -> Channel {
    let luns = (0..LUNS)
        .map(|i| {
            let mut cfg = LunConfig::test_default();
            cfg.seed = i as u64 + 1;
            cfg.profile.t_r = T_ARRAY;
            cfg.profile.t_prog = T_ARRAY;
            Lun::new(cfg)
        })
        .collect();
    let mut ch = Channel::new(luns);
    ch.set_tracing(true);
    ch
}

/// Transmits latches at the first moment after `at` the bus is free.
fn send(ch: &mut Channel, at: SimTime, mask: ChipMask, phases: &[BusPhase]) -> SimTime {
    let start = at.max(ch.busy_until());
    ch.transmit(start, mask, phases, 0, &mut Tracer::disabled())
        .expect("setup phase accepted")
        .end
}

fn cmd(opcode: u8) -> BusPhase {
    BusPhase::new(PhaseKind::CmdLatch(opcode), LATCH)
}

fn addr(bytes: Vec<u8>) -> BusPhase {
    BusPhase::new(PhaseKind::AddrLatch(bytes), LATCH)
}

/// The latest busy deadline of any LUN, or the bus end.
fn quiet(ch: &Channel) -> SimTime {
    (0..ch.lun_count())
        .filter_map(|i| ch.lun(i).busy_until())
        .fold(ch.busy_until(), SimTime::max)
}

/// Plays the case with the burst whole or expanded.
fn play(case: &Case, expand: bool) -> Run {
    let mut ch = channel();
    let layout = ch.lun(0).profile().geometry.addr_layout(16);
    let raw = ch.lun(0).profile().geometry.raw_page_size();
    let mut rng = SplitMix64::new(case.seed);
    let mut random = |n: usize| -> PageData {
        (0..n)
            .map(|_| rng.next_u64() as u8)
            .collect::<Vec<_>>()
            .into()
    };
    let page_a = random(raw);
    let burst_data = random(case.bytes);
    let reader = case.mask.iter().next().unwrap();
    let others: Vec<(u32, u64)> = case
        .mask
        .iter()
        .skip(1)
        .map(|lun| (lun, SplitMix64::new(case.seed ^ lun as u64).next_below(200)))
        .collect();
    let full = |col: u32, row: RowAddr| layout.pack_full(ColumnAddr(col), row);

    // Page A, written, then (data-out) read into the page register.
    let mut t = send(
        &mut ch,
        SimTime::ZERO,
        case.mask,
        &[
            cmd(op::PROGRAM_1),
            addr(full(0, PAGE_A)),
            BusPhase::new(PhaseKind::DataIn(page_a), LATCH),
        ],
    );
    let start_busy = if case.data_in {
        op::PROGRAM_CACHE
    } else {
        send(&mut ch, t, case.mask, &[cmd(op::PROGRAM_2)]);
        let programmed = quiet(&ch);
        t = send(
            &mut ch,
            programmed,
            case.mask,
            &[cmd(op::READ_1), addr(full(0, PAGE_A)), cmd(op::READ_2)],
        );
        op::READ_CACHE_SEQ
    };
    // The busy period each LUN streams through: the reader's starts at a
    // fixed time, the others' up to 200 us either side of it.
    let base = quiet(&ch).max(t) + SimDuration::from_micros(200);
    let mut starts: Vec<(SimTime, u32)> = others
        .iter()
        .map(|&(lun, us)| {
            (
                base - SimDuration::from_micros(100) + SimDuration::from_micros(us),
                lun,
            )
        })
        .chain([(base, reader)])
        .collect();
    starts.sort();
    for (at, lun) in starts {
        send(&mut ch, at, ChipMask::single(lun), &[cmd(start_busy)]);
    }
    // Where the burst starts.
    t = if case.data_in {
        send(
            &mut ch,
            SimTime::ZERO,
            case.mask,
            &[cmd(op::PROGRAM_1), addr(full(case.col, PAGE_B))],
        )
    } else {
        let t = send(
            &mut ch,
            SimTime::ZERO,
            case.mask,
            &[
                cmd(op::CHANGE_READ_COL_1),
                addr(layout.pack_col(ColumnAddr(case.col))),
                cmd(op::CHANGE_READ_COL_2),
            ],
        );
        if case.status {
            send(&mut ch, t, case.mask, &[cmd(op::READ_STATUS)])
        } else {
            t
        }
    };
    let deadline = ch.lun(reader).busy_until().expect("reader busy");
    let offset = case.offset();
    let start = SimTime::from_picos((deadline.as_picos() as i64 - offset) as u64);
    assert!(
        start >= t,
        "burst start {start} before the bus is free at {t}"
    );

    let phases = if expand {
        case.expanded(&burst_data)
    } else {
        case.whole(&burst_data)
    };
    let tx = ch
        .transmit(start, case.mask, &phases, 0, &mut Tracer::disabled())
        .expect("burst accepted");
    let (stats, luns) = (ch.stats(), views(&ch));

    // Afterwards, once every deadline has passed.
    let probe = quiet(&ch) + SimDuration::from_micros(1);
    let after = if case.data_in {
        let t = send(&mut ch, probe, case.mask, &[cmd(op::PROGRAM_2)]);
        let done = quiet(&ch).max(t) + SimDuration::from_micros(1);
        let mut pages = Vec::new();
        for lun in 0..LUNS {
            ch.lun_mut(lun).settle(done);
            for row in [PAGE_A, PAGE_B] {
                let page = ch.lun(lun).array().page_data(row).expect("page in range");
                pages.push(page.materialize());
            }
        }
        pages
    } else {
        let phase = BusPhase::new(PhaseKind::DataOut { bytes: 40 }, LATCH);
        let out = ch
            .transmit(probe, case.mask, &[phase], 0, &mut Tracer::disabled())
            .expect("probe accepted");
        vec![out.data.materialize()]
    };
    Run {
        end: tx.end,
        bytes: tx.data.materialize(),
        stats,
        luns,
        after,
        after_luns: views(&ch),
        rows: ch.analyzer().events().to_vec(),
    }
}

#[test]
fn a_whole_burst_matches_its_packets() {
    Property::new("a_whole_burst_matches_its_packets").run(
        (
            (
                range(0u8..3),
                range(0u8..2),
                select(&[16usize, 64, 100, 256, 2048]),
            ),
            (range(1usize..800), range(0u32..600), range(1u16..8)),
            (any::<usize>(), range(0u64..3), any::<u64>()),
        ),
        |&((source, gapped, packet_bytes), (bytes, col, mask), (edge, skew, seed))| {
            let case = Case {
                data_in: source == 2,
                status: source == 1,
                gapped: gapped == 1,
                packet_bytes,
                bytes,
                col,
                mask: ChipMask(mask),
                edge,
                skew,
                seed,
            };
            let whole = play(&case, false);
            let expanded = play(&case, true);
            prop_assert_eq!(whole.end, expanded.end, "end time");
            prop_assert!(whole.bytes == expanded.bytes, "burst bytes differ");
            prop_assert_eq!(whole.stats, expanded.stats, "channel stats");
            prop_assert_eq!(whole.luns, expanded.luns, "LUNs after the burst");
            prop_assert!(whole.after == expanded.after, "bytes afterwards differ");
            prop_assert_eq!(whole.after_luns, expanded.after_luns, "LUNs afterwards");
            prop_assert_eq!(whole.rows, expanded.rows, "analyzer rows");
            Ok(())
        },
    );
}

/// A deadline inside the burst really does change what the packets after
/// it carry, so the property above compares runs that a misplaced
/// resolution would tell apart: a status burst reads busy before the
/// cache read's deadline and ready from the packet that ends at or after
/// it.
#[test]
fn a_deadline_inside_the_burst_changes_its_bytes() {
    // Four gapped 64-byte packets: edge 4 of the expanded form is the end
    // of the second packet, and edge 10 (of 11 choices) is after the burst.
    let case = |edge| Case {
        data_in: false,
        status: true,
        gapped: true,
        packet_bytes: 64,
        bytes: 256,
        col: 100,
        mask: ChipMask::single(0),
        edge,
        skew: 1,
        seed: 7,
    };
    let inside = play(&case(4), false);
    let after = play(&case(10), false);
    let busy = after.bytes[0];
    assert!(after.bytes.iter().all(|&b| b == busy));
    assert!(inside.bytes[..64].iter().all(|&b| b == busy));
    assert!(inside.bytes[64..].iter().all(|&b| b != busy));
    assert_eq!(inside.luns[0].stats.reads, after.luns[0].stats.reads + 1);
}
