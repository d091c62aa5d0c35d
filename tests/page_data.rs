//! Byte exactness of the described data path.
//!
//! Page payloads travel from the flash array to DRAM as `PageData`
//! descriptions, and bytes are made only where something reads them. Two
//! layers of checks hold that to the bytes the copying data path moved:
//!
//! * a property test drives `PageData` slice, append, overlay and
//!   materialize against a flat `Vec<u8>` model, for every segment kind,
//!   with preloaded-stream windows that start and end off word boundaries;
//! * end-to-end runs put a checking wrapper around the controller. It moves
//!   every host read to a random column and length and an odd DRAM
//!   address, and at every completion compares the read's DRAM bytes with
//!   the flash array (or, for unwritten preloaded pages, an independent
//!   SplitMix64 reference) and every programmed page with the DRAM buffer
//!   it was programmed from. After the run, every mapped logical page must
//!   hold its LPN pattern. The runs cover the coroutine and RTOS
//!   controllers under GC, the write-back cache, preloaded reads and the
//!   Cosmos+-style hardware baseline.

#[path = "common/devices.rs"]
mod devices;

use std::collections::BTreeSet;

use babol::hw::CosmosController;
use babol::system::{Controller, Event, IoKind, IoRequest, System};
use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::LunConfig;
use babol_flash::{Lun, PackageProfile};
use babol_ftl::{FioWorkload, IoPattern, Ssd, SsdConfig};
use babol_onfi::addr::RowAddr;
use babol_sim::rng::SplitMix64;
use babol_sim::{BufPool, CostModel, Cpu, Freq, PageData, SimTime};
use babol_testkit::prop::{any, range, Property};
use babol_testkit::{prop_assert, prop_assert_eq};
use babol_ufsm::EmitConfig;
use devices::{Spec, READ_1CH, WRITE_CACHED_16CH, WRITE_GC_1CH};

/// The preloaded-page generator as first written: whole SplitMix64 words
/// of the page's seed, truncated. Independent of `PageData`.
fn reference_page(seed: u64, page_index: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ page_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A random payload of one segment kind, with its bytes.
fn piece(rng: &mut SplitMix64, pool: &BufPool) -> (PageData, Vec<u8>) {
    let len = rng.next_below(300) as usize;
    // A window of a longer stream, starting anywhere (not word-aligned).
    let skip = rng.next_below(40) as usize;
    match rng.next_below(5) {
        0 => {
            let (seed, page) = (rng.next_u64(), rng.next_u64());
            let full = reference_page(seed, page, skip + len);
            let data = PageData::preloaded(seed, page, skip + len).slice(skip, len);
            (data, full[skip..].to_vec())
        }
        1 => {
            let base = rng.next_u64() as u8;
            let bytes = (0..skip + len)
                .map(|i| base.wrapping_add(i as u8))
                .collect::<Vec<_>>();
            let data = PageData::pattern(base, skip + len).slice(skip, len);
            (data, bytes[skip..].to_vec())
        }
        2 => {
            let byte = rng.next_u64() as u8;
            (PageData::fill(byte, len), vec![byte; len])
        }
        3 => {
            let bytes: Vec<u8> = (0..skip + len).map(|_| rng.next_u64() as u8).collect();
            (
                PageData::from(bytes.clone()).slice(skip, len),
                bytes[skip..].to_vec(),
            )
        }
        _ => {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            (pool.raw(bytes.clone()), bytes)
        }
    }
}

/// `PageData` slice, append, overlay and materialize agree with a flat
/// `Vec<u8>` model over random mixes of every segment kind.
#[test]
fn page_data_matches_a_byte_model() {
    Property::new("page_data_matches_a_byte_model")
        .cases(256)
        .run((any::<u64>(), range(1usize..24)), |&(seed, nops)| {
            let mut rng = SplitMix64::new(seed);
            let pool = BufPool::default();
            let (mut data, mut model) = piece(&mut rng, &pool);
            for _ in 0..nops {
                match rng.next_below(4) {
                    0 => {
                        let (more, bytes) = piece(&mut rng, &pool);
                        data.append(more);
                        model.extend_from_slice(&bytes);
                    }
                    1 => {
                        let (patch, bytes) = piece(&mut rng, &pool);
                        if bytes.len() <= model.len() {
                            let at =
                                rng.next_below((model.len() - bytes.len()) as u64 + 1) as usize;
                            data.overlay(at, &patch);
                            model[at..at + bytes.len()].copy_from_slice(&bytes);
                        }
                    }
                    2 => {
                        let start = rng.next_below(model.len() as u64 + 1) as usize;
                        let len = rng.next_below((model.len() - start) as u64 + 1) as usize;
                        data = data.slice(start, len);
                        model = model[start..start + len].to_vec();
                    }
                    _ => {
                        // A described copy of itself, split and rejoined.
                        let cut = rng.next_below(model.len() as u64 + 1) as usize;
                        let mut joined = data.slice(0, cut);
                        joined.append(data.slice(cut, model.len() - cut));
                        prop_assert_eq!(joined.segments(), data.segments(), "rejoin at {}", cut);
                        data = joined;
                    }
                }
                prop_assert_eq!(data.len(), model.len());
                prop_assert!(data.segments() <= babol_sim::data::MAX_SEGMENTS);
                prop_assert_eq!(data.materialize(), model.clone());
                prop_assert_eq!(data.first_byte(), model.first().copied());
            }
            // Byte windows through `materialize_into`, at odd offsets.
            if !model.is_empty() {
                let start = rng.next_below(model.len() as u64) as usize;
                let len = rng.next_below((model.len() - start) as u64 + 1) as usize;
                let mut out = vec![0xA5; len];
                data.slice(start, len).materialize_into(&mut out);
                prop_assert_eq!(out, model[start..start + len].to_vec());
            }
            // Byte equality, against a raw copy and against the bytes.
            let copy = PageData::from(model.clone());
            prop_assert!(data == copy && data == model[..], "byte equality");
            if let Some(last) = model.last_mut() {
                *last ^= 1;
                let flipped = PageData::from(model.clone());
                prop_assert!(data != flipped && data != model[..], "a flipped byte");
            }
            Ok(())
        });
}

/// Host reads land here: one region per request id, at an odd offset.
const SCRATCH: u64 = 1 << 40;

/// A controller wrapper that checks the bytes every completed read and
/// program moved, at the moment the inner controller reports it.
struct Checked<C> {
    inner: C,
    rng: SplitMix64,
    /// Raw page size (data + spare): host reads may cover the spare area
    /// and run past the end, where the LUN pads with `0xFF`.
    raw_page: usize,
    /// Whether host reads may start at a random column (the Cosmos+-style
    /// baseline always reads from column 0).
    random_cols: bool,
    /// Preload seed of unwritten pages, checked against the reference.
    preload: Option<u64>,
    done: Vec<(IoRequest, SimTime)>,
    scratch: Vec<(IoRequest, SimTime)>,
    /// Rows programmed since construction (their reads use the array).
    programmed: BTreeSet<(u32, u32, u32)>,
    reads: u64,
    programs: u64,
}

impl<C: Controller> Checked<C> {
    fn new(inner: C, raw_page: usize, random_cols: bool, preload: Option<u64>) -> Self {
        Checked {
            inner,
            rng: SplitMix64::new(0x00DA_7A00),
            raw_page,
            random_cols,
            preload,
            done: Vec::new(),
            scratch: Vec::new(),
            programmed: BTreeSet::new(),
            reads: 0,
            programs: 0,
        }
    }

    /// Checks every request the inner controller completed and keeps it
    /// for the FTL.
    fn collect(&mut self, sys: &mut System) {
        self.inner.take_completions(&mut self.scratch);
        for (req, at) in self.scratch.drain(..) {
            let row = RowAddr {
                lun: req.lun,
                block: req.block,
                page: req.page,
            };
            let array = sys.channel.lun(req.lun).array();
            let (col, len) = (req.col as usize, req.len);
            match req.kind {
                IoKind::Read => {
                    let key = (req.lun, req.block, req.page);
                    let want = match self.preload {
                        Some(seed) if !self.programmed.contains(&key) => {
                            let raw = array.geometry().raw_page_size();
                            let index = array.geometry().page_index(row);
                            reference_page(seed, index, raw)
                        }
                        _ => array.read_page(row).expect("read row in range"),
                    };
                    let mut want = want;
                    want.resize(col + len, 0xFF);
                    let got = sys.dram.read_vec(req.dram_addr, len);
                    assert_eq!(
                        got,
                        want[col..col + len],
                        "read {} of {row:?} col {col} len {len} at {:#x}",
                        req.id,
                        req.dram_addr
                    );
                    self.reads += 1;
                }
                IoKind::Program => {
                    let page = array.read_page(row).expect("programmed row in range");
                    let src = sys.dram.read_vec(req.dram_addr, len);
                    assert_eq!(page[..len], src[..], "program {} of {row:?}", req.id);
                    assert!(
                        page[len..].iter().all(|&b| b == 0xFF),
                        "program {} of {row:?}: unwritten bytes must read erased",
                        req.id
                    );
                    self.programmed.insert((req.lun, req.block, req.page));
                    self.programs += 1;
                }
                IoKind::Erase => {}
            }
            self.done.push((req, at));
        }
    }
}

impl<C: Controller> Controller for Checked<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn submit(&mut self, sys: &mut System, mut req: IoRequest) -> bool {
        // Host reads (internal ids start at 2^62) move to a random window
        // of the page and an odd DRAM address; nothing downstream reads
        // host data, so the FTL is unaffected.
        if req.kind == IoKind::Read && req.id < 1 << 62 {
            let col = if self.random_cols {
                self.rng.next_below(self.raw_page as u64) as usize
            } else {
                0
            };
            req.col = col as u32;
            req.len = 1 + self.rng.next_below((self.raw_page + 64 - col) as u64) as usize;
            req.dram_addr = SCRATCH + req.id * 2 * self.raw_page as u64 + 1;
        }
        let accepted = self.inner.submit(sys, req);
        self.collect(sys);
        accepted
    }

    fn on_event(&mut self, sys: &mut System, ev: Event) {
        self.inner.on_event(sys, ev);
        self.collect(sys);
    }

    fn take_completions(&mut self, out: &mut Vec<(IoRequest, SimTime)>) {
        out.append(&mut self.done);
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
}

/// Every mapped logical page holds its LPN pattern, spare area erased.
fn assert_lpn_patterns(sys: &System, ssd: &Ssd, page_size: usize) -> u64 {
    let mut checked = 0;
    for lpn in 0..ssd.map().logical_pages() {
        let Some(ppn) = ssd.map().translate(lpn) else {
            continue;
        };
        let row = RowAddr {
            lun: ppn.lun,
            block: ppn.block,
            page: ppn.page,
        };
        let page = sys.channel.lun(ppn.lun).array().read_page(row).unwrap();
        let want: Vec<u8> = (0..page_size)
            .map(|i| (lpn as u8).wrapping_add(i as u8))
            .collect();
        assert_eq!(page[..page_size], want[..], "lpn {lpn} at {row:?}");
        assert!(
            page[page_size..].iter().all(|&b| b == 0xFF),
            "lpn {lpn} spare"
        );
        checked += 1;
    }
    checked
}

fn read_job(ios: u64, seed: u64) -> FioWorkload {
    FioWorkload {
        pattern: IoPattern::RandomRead,
        total_ios: ios,
        queue_depth: 8,
        seed,
    }
}

/// Runs `spec`'s preconditioning and job, then random reads, through the
/// checking wrapper; returns (reads, programs) checked.
fn checked_run(spec: &Spec, rtos: bool) -> (u64, u64) {
    let (mut sys, ctrl, mut ssd) = spec.one_channel(false, rtos);
    let geometry = spec.ssd_config().geometry;
    let preload = spec.preload.then_some(0xBAB01);
    let mut ctrl = Checked::new(ctrl, geometry.raw_page_size(), true, preload);
    for job in spec.jobs() {
        ssd.run(&mut sys, &mut ctrl, job);
    }
    ssd.run(&mut sys, &mut ctrl, read_job(120, 21));
    if !spec.preload {
        assert!(ssd.gc_cycles > 0, "{}: the run must reach GC", spec.name);
        ssd.flush_cache(&mut sys, &mut ctrl);
        assert!(assert_lpn_patterns(&sys, &ssd, geometry.page_size) > 0);
    }
    assert!(ctrl.reads > 0, "{}: no read checked", spec.name);
    (ctrl.reads, ctrl.programs)
}

#[test]
fn coroutine_gc_run_moves_exact_bytes() {
    let (reads, programs) = checked_run(&WRITE_GC_1CH, false);
    assert!(programs > 0 && reads > 0);
}

#[test]
fn rtos_gc_run_moves_exact_bytes() {
    let (reads, programs) = checked_run(&WRITE_GC_1CH, true);
    assert!(programs > 0 && reads > 0);
}

/// The write-back cache of a `MultiSsd` shard (dirty evictions, flushes
/// for reads) on one channel, where the wrapper can see the bytes.
#[test]
fn cached_run_moves_exact_bytes() {
    let one_channel = Spec {
        channels: 1,
        ..WRITE_CACHED_16CH
    };
    let (reads, programs) = checked_run(&one_channel, false);
    assert!(programs > 0 && reads > 0);
}

/// Unwritten preloaded pages, checked against the reference generator.
#[test]
fn preloaded_reads_move_exact_bytes() {
    let (reads, programs) = checked_run(&READ_1CH, false);
    assert_eq!(programs, 0);
    assert!(reads >= 120);
}

/// The Cosmos+-style hardware baseline builds its own program packets
/// (raw bytes) and lands read data itself.
#[test]
fn cosmos_job_moves_exact_bytes() {
    let profile = PackageProfile::test_tiny();
    let luns = 2;
    let l = (0..luns)
        .map(|i| {
            Lun::new(LunConfig {
                profile: profile.clone(),
                content: ContentMode::Pristine,
                seed: i as u64 + 1,
                inject_errors: false,
                require_init: false,
            })
        })
        .collect();
    let mut sys = System::new(
        Channel::new(l),
        EmitConfig::nv_ddr2(200),
        Cpu::new(Freq::from_ghz(1), CostModel::free()),
    );
    let cfg = SsdConfig::tiny(luns);
    let geometry = cfg.geometry;
    let mut ssd = Ssd::new(cfg);
    let inner = CosmosController::new(profile.layout(), luns);
    let mut ctrl = Checked::new(inner, geometry.raw_page_size(), false, None);
    let logical = ssd.map().logical_pages();
    for (pattern, total_ios) in [
        (IoPattern::SequentialWrite, logical),
        (IoPattern::RandomWrite, 200),
    ] {
        let job = FioWorkload {
            pattern,
            total_ios,
            queue_depth: 4,
            seed: 5,
        };
        ssd.run(&mut sys, &mut ctrl, job);
    }
    ssd.run(&mut sys, &mut ctrl, read_job(80, 6));
    assert!(ssd.gc_cycles > 0, "the job must reach GC");
    assert!(assert_lpn_patterns(&sys, &ssd, geometry.page_size) > 0);
    assert!(ctrl.reads >= 80 && ctrl.programs >= 200);
}
