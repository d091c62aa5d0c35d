//! Property-based tests over the core data structures and invariants,
//! running on the in-repo `babol-testkit` harness (no external deps).
//!
//! Every property runs at least 256 deterministic cases. A failure prints
//! the case seed; replay it with `BABOL_PT_SEED=<seed> cargo test -q`.

use babol_testkit::prop::{any, range, range_incl, select, vec_of, Property};
use babol_testkit::{prop_assert, prop_assert_eq, prop_assert_ne};

use babol_ecc::bch::Bch;
use babol_ecc::{PageCodec, PageVerdict};
use babol_flash::Geometry;
use babol_ftl::PageMap;
use babol_onfi::addr::{AddrLayout, ColumnAddr, RowAddr};
use babol_onfi::param_page::ParamPage;
use babol_sim::{Dram, EventQueue, Freq, PageBuf, SimDuration, SimTime};

/// Row/column addresses survive packing into ONFI cycles for any
/// geometry in the supported range.
#[test]
fn addr_roundtrip() {
    Property::new("addr_roundtrip").run(
        (
            select(&[512usize, 2048, 4096, 16384]),
            range(1u32..512),
            range(1u32..4096),
            range(1u32..16),
            range(0u32..16),
            range(0u32..4096),
            range(0u32..512),
            range(0u32..16384),
        ),
        |&(page_size, pages_pb, blocks, luns, lun, block, page, col)| {
            let layout = AddrLayout::new(page_size, pages_pb, blocks, luns);
            let row = RowAddr {
                lun: lun % luns.max(1),
                block: block % blocks.max(1),
                page: page % pages_pb.max(1),
            };
            prop_assert_eq!(layout.unpack_row(&layout.pack_row(row)), row);
            let c = ColumnAddr(col % page_size as u32);
            prop_assert_eq!(layout.unpack_col(&layout.pack_col(c)), c);
            Ok(())
        },
    );
}

/// BCH corrects any error pattern up to its design strength.
#[test]
fn bch_corrects_up_to_t() {
    Property::new("bch_corrects_up_to_t").run(
        (any::<u64>(), range_incl(0usize..=4)),
        |&(seed, nerr)| {
            let bch = Bch::new(1024, 4);
            let mut rng = babol_sim::rng::SplitMix64::new(seed);
            let data: Vec<u8> = (0..128).map(|_| rng.next_u64() as u8).collect();
            let parity = bch.encode(&data);
            let mut corrupted = data.clone();
            let mut bits = std::collections::BTreeSet::new();
            while bits.len() < nerr {
                bits.insert(rng.next_below(1024) as usize);
            }
            for &b in &bits {
                corrupted[b / 8] ^= 1 << (b % 8);
            }
            prop_assert_eq!(bch.decode(&mut corrupted, &parity), Some(nerr as u32));
            prop_assert_eq!(corrupted, data);
            Ok(())
        },
    );
}

/// The page codec never miscorrects silently: with more than t errors
/// in one sector it reports Uncorrectable or (rarely) corrects to a
/// different valid codeword — but never claims Clean.
#[test]
fn page_codec_never_claims_clean_on_damage() {
    Property::new("page_codec_never_claims_clean_on_damage").run(
        (any::<u64>(), range_incl(1usize..=12)),
        |&(seed, nerr)| {
            let codec = PageCodec::new(512, 512, 4);
            let mut rng = babol_sim::rng::SplitMix64::new(seed);
            let page: Vec<u8> = (0..512).map(|_| rng.next_u64() as u8).collect();
            let parity = codec.encode(&page).unwrap();
            let mut corrupted = page.clone();
            let mut bits = std::collections::BTreeSet::new();
            while bits.len() < nerr {
                bits.insert(rng.next_below(4096) as usize);
            }
            for &b in &bits {
                corrupted[b / 8] ^= 1 << (b % 8);
            }
            let verdict = codec.decode(&mut corrupted, &parity).unwrap();
            prop_assert_ne!(verdict, PageVerdict::Clean);
            if nerr <= 4 {
                prop_assert_eq!(verdict, PageVerdict::Corrected(nerr as u32));
                prop_assert_eq!(corrupted, page);
            }
            Ok(())
        },
    );
}

/// Sparse DRAM behaves exactly like a flat byte array.
#[test]
fn dram_matches_flat_model() {
    Property::new("dram_matches_flat_model").run(
        vec_of((range(0u64..10_000), vec_of(any::<u8>(), 1..64)), 1..24),
        |ops| {
            let mut dram = Dram::new();
            let mut model = vec![0u8; 10_100];
            for (addr, data) in ops {
                dram.write(*addr, data);
                model[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
            }
            prop_assert_eq!(dram.read_vec(0, 10_100), model);
            Ok(())
        },
    );
}

/// Event queue pops in nondecreasing time order with FIFO ties.
#[test]
fn event_queue_is_stable_priority() {
    Property::new("event_queue_is_stable_priority").run(vec_of(range(0u64..50), 1..64), |times| {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_picos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated among ties");
                }
            }
            last = Some((t, i));
        }
        Ok(())
    });
}

/// The queue stays a stable priority queue under sustained load with
/// interleaved pops: 10k pushes per case, times drawn from a narrow range
/// so ties are dense, checked against a `BTreeMap<time, FIFO>` model.
#[test]
fn event_queue_survives_mixed_10k_pushes() {
    Property::new("event_queue_survives_mixed_10k_pushes")
        .cases(16)
        .run((any::<u64>(), range(1u64..32)), |&(seed, spread)| {
            use std::collections::{BTreeMap, VecDeque};
            let mut rng = babol_sim::rng::SplitMix64::new(seed);
            let mut q = EventQueue::new();
            let mut model: BTreeMap<u64, VecDeque<usize>> = BTreeMap::new();
            let mut pending = 0usize;
            for i in 0..10_000usize {
                let t = rng.next_below(spread);
                q.push(SimTime::from_picos(t), i);
                model.entry(t).or_default().push_back(i);
                pending += 1;
                // Interleave pops (~1 in 3) so the heap churns instead of
                // only growing. (No global monotonic check: a push behind
                // an already-popped time is legal, only earliest-first
                // relative to the *current* contents is guaranteed.)
                if rng.next_below(3) == 0 {
                    let head = q.peek_time().map(|t| t.as_picos());
                    prop_assert_eq!(head, model.keys().next().copied(), "peek_time");
                    prop_assert_eq!(q.len(), pending, "len");
                    let (pt, pi) = q.pop().expect("queue has pending events");
                    pending -= 1;
                    let entry = model.first_entry().expect("model has pending events");
                    prop_assert_eq!(*entry.key(), pt.as_picos(), "wrong time popped");
                    let mut fifo = entry;
                    let want = fifo.get_mut().pop_front().expect("nonempty bucket");
                    prop_assert_eq!(pi, want, "FIFO violated among ties");
                    if fifo.get().is_empty() {
                        fifo.remove();
                    }
                }
            }
            // Drain the rest; the queue and the model must agree exactly.
            loop {
                let head = q.peek_time().map(|t| t.as_picos());
                prop_assert_eq!(head, model.keys().next().copied(), "peek_time");
                prop_assert_eq!(q.len(), pending, "len");
                let Some((pt, pi)) = q.pop() else { break };
                pending -= 1;
                let mut entry = model.first_entry().expect("model matches queue length");
                prop_assert_eq!(*entry.key(), pt.as_picos());
                prop_assert_eq!(pi, entry.get_mut().pop_front().expect("nonempty bucket"));
                if entry.get().is_empty() {
                    entry.remove();
                }
            }
            prop_assert!(model.is_empty(), "queue dropped events");
            Ok(())
        });
}

/// The queue agrees with a `BTreeMap` model when event times span every
/// magnitude from picoseconds up to `SimTime::FAR_FUTURE` itself — 10k
/// mixed pushes and pops per case.
#[test]
fn event_queue_spans_wheel_levels_matches_model() {
    Property::new("event_queue_spans_wheel_levels_matches_model")
        .cases(16)
        .run(any::<u64>(), |&seed| {
            use std::collections::{BTreeMap, VecDeque};
            let mut rng = babol_sim::rng::SplitMix64::new(seed);
            let mut q = EventQueue::new();
            let mut model: BTreeMap<u64, VecDeque<usize>> = BTreeMap::new();
            let mut pending = 0usize;
            for i in 0..10_000usize {
                // A random right-shift spreads times across all magnitudes,
                // with an occasional FAR_FUTURE sentinel.
                let t = if rng.next_below(50) == 0 {
                    SimTime::FAR_FUTURE.as_picos()
                } else {
                    rng.next_u64() >> rng.next_below(64)
                };
                q.push(SimTime::from_picos(t), i);
                model.entry(t).or_default().push_back(i);
                pending += 1;
                if rng.next_below(3) == 0 {
                    let head = q.peek_time().map(|t| t.as_picos());
                    prop_assert_eq!(head, model.keys().next().copied(), "peek_time");
                    prop_assert_eq!(q.len(), pending, "len");
                    let (pt, pi) = q.pop().expect("queue has pending events");
                    pending -= 1;
                    let mut entry = model.first_entry().expect("model has pending events");
                    prop_assert_eq!(*entry.key(), pt.as_picos(), "wrong time popped");
                    let want = entry.get_mut().pop_front().expect("nonempty bucket");
                    prop_assert_eq!(pi, want, "FIFO violated among ties");
                    if entry.get().is_empty() {
                        entry.remove();
                    }
                }
            }
            loop {
                let head = q.peek_time().map(|t| t.as_picos());
                prop_assert_eq!(head, model.keys().next().copied(), "peek_time");
                prop_assert_eq!(q.len(), pending, "len");
                let Some((pt, pi)) = q.pop() else { break };
                pending -= 1;
                let mut entry = model.first_entry().expect("model matches queue length");
                prop_assert_eq!(*entry.key(), pt.as_picos());
                prop_assert_eq!(pi, entry.get_mut().pop_front().expect("nonempty bucket"));
                if entry.get().is_empty() {
                    entry.remove();
                }
            }
            prop_assert!(model.is_empty(), "queue dropped events");
            Ok(())
        });
}

/// The pooled data path is byte-identical to a flat `Vec<u8>` reference
/// model under randomized interleavings of DRAM writes, pooled reads whose
/// handles stay live, clone aliasing, and releases (the buffer "GC" that
/// returns storage to the free list). A live handle must keep its snapshot
/// even as the pool recycles storage underneath.
#[test]
fn pooled_data_path_matches_vec_model() {
    const SPACE: usize = 4096;
    Property::new("pooled_data_path_matches_vec_model").run(
        (any::<u64>(), range(8usize..64)),
        |&(seed, nops)| {
            let mut rng = babol_sim::rng::SplitMix64::new(seed);
            let mut dram = Dram::new();
            let mut model = vec![0u8; SPACE];
            // Held pooled buffers with the contents they must still show.
            let mut held: Vec<(Vec<u8>, PageBuf)> = Vec::new();
            for _ in 0..nops {
                let addr = rng.next_below(SPACE as u64 - 128);
                let len = 1 + rng.next_below(127) as usize;
                match rng.next_below(4) {
                    0 | 1 => {
                        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                        dram.write(addr, &data);
                        model[addr as usize..addr as usize + len].copy_from_slice(&data);
                    }
                    2 => {
                        let buf = dram.read_buf(addr, len);
                        let want = model[addr as usize..addr as usize + len].to_vec();
                        prop_assert_eq!(buf.as_slice(), &want[..], "pooled read diverged");
                        if rng.next_below(2) == 0 {
                            held.push((want.clone(), buf.clone())); // alias
                        }
                        held.push((want, buf));
                    }
                    _ => {
                        if !held.is_empty() {
                            let idx = rng.next_below(held.len() as u64) as usize;
                            let (want, buf) = held.swap_remove(idx);
                            prop_assert_eq!(
                                buf.as_slice(),
                                &want[..],
                                "live handle corrupted by recycling"
                            );
                        }
                    }
                }
            }
            for (want, buf) in held.drain(..) {
                prop_assert_eq!(buf.as_slice(), &want[..]);
            }
            let stats = dram.pool().stats();
            prop_assert_eq!(stats.in_use, 0, "all buffers returned");
            prop_assert!(
                stats.allocs <= stats.high_water,
                "pool allocated beyond its high-water mark"
            );
            Ok(())
        },
    );
}

/// End-to-end pooled write path: after a GC-heavy random-write fio job,
/// every mapped logical page's flash contents are byte-identical to the
/// LPN-keyed reference pattern — relocations through pooled buffers lose
/// nothing.
#[test]
fn ssd_write_path_with_gc_matches_pattern_model() {
    use babol::factory::coro_controller;
    use babol::runtime::RuntimeConfig;
    use babol_channel::Channel;
    use babol_flash::array::ContentMode;
    use babol_flash::lun::LunConfig;
    use babol_flash::{Lun, PackageProfile};
    use babol_ftl::{FioWorkload, IoPattern, Ssd, SsdConfig};
    use babol_sim::{CostModel, Cpu};
    use babol_ufsm::EmitConfig;

    Property::new("ssd_write_path_with_gc_matches_pattern_model")
        .cases(8)
        .run(any::<u64>(), |&seed| {
            let luns = 2u32;
            let l = (0..luns)
                .map(|i| {
                    Lun::new(LunConfig {
                        profile: PackageProfile::test_tiny(),
                        content: ContentMode::Pristine,
                        seed: i as u64 + 1,
                        inject_errors: false,
                        require_init: false,
                    })
                })
                .collect();
            let mut sys = babol::system::System::new(
                Channel::new(l),
                EmitConfig::nv_ddr2(200),
                Cpu::new(Freq::from_ghz(1), CostModel::coroutine()),
            );
            let layout = PackageProfile::test_tiny().layout();
            let mut ctrl = coro_controller(layout, RuntimeConfig::coroutine());
            let mut ssd = Ssd::new(SsdConfig::tiny(luns));
            let wl = FioWorkload {
                pattern: IoPattern::RandomWrite,
                total_ios: 200,
                queue_depth: 2,
                seed,
            };
            let r = ssd.run(&mut sys, &mut ctrl, wl);
            prop_assert!(r.gc_cycles > 0, "workload must exercise GC");
            let page_size = 512usize;
            for lpn in 0..96u64 {
                let Some(ppn) = ssd.map().translate(lpn) else {
                    continue;
                };
                let page = sys
                    .channel
                    .lun(ppn.lun)
                    .array()
                    .read_page(RowAddr {
                        lun: ppn.lun,
                        block: ppn.block,
                        page: ppn.page,
                    })
                    .expect("mapped page readable");
                let expect: Vec<u8> = (0..page_size)
                    .map(|i| (lpn as u8).wrapping_add(i as u8))
                    .collect();
                prop_assert_eq!(&page[..page_size], &expect[..], "lpn {} diverged", lpn);
            }
            Ok(())
        });
}

/// Frequency/cycle math: cycles(a) + cycles(b) within rounding of
/// cycles(a+b) for any frequency.
#[test]
fn freq_cycles_are_nearly_additive() {
    Property::new("freq_cycles_are_nearly_additive").run(
        (
            range(1u64..4000),
            range(0u64..1_000_000),
            range(0u64..1_000_000),
        ),
        |&(mhz, a, b)| {
            let f = Freq::from_mhz(mhz);
            let sum = f.cycles(a) + f.cycles(b);
            let whole = f.cycles(a + b);
            let diff = sum.as_picos().abs_diff(whole.as_picos());
            prop_assert!(diff <= 1, "{diff} ps drift");
            Ok(())
        },
    );
}

/// The FTL map never double-maps a physical page and keeps the L2P and
/// P2L views consistent under arbitrary write/overwrite streams.
#[test]
fn ftl_map_consistency() {
    Property::new("ftl_map_consistency").run(vec_of(range(0u64..96), 1..120), |writes| {
        let mut map = PageMap::new(Geometry::tiny(), 2, 96);
        for &lpn in writes {
            // Collect when needed, like the SSD driver does.
            for lun in 0..2 {
                while map.needs_gc(lun) {
                    let Some(plan) = map.plan_gc(lun) else { break };
                    for (mlpn, old) in &plan.moves {
                        let target = map.best_relocation_lun(old.lun);
                        map.allocate_on_lun(*mlpn, target);
                    }
                    map.finish_gc(plan.victim);
                }
            }
            map.allocate_for_write(lpn);
        }
        // Every distinct written LPN resolves, and all PPNs are unique.
        for &lpn in writes {
            prop_assert!(
                map.translate(lpn).is_some(),
                "written LPN {lpn} must resolve"
            );
        }
        let mut ppns = std::collections::BTreeSet::new();
        for lpn in 0..96 {
            if let Some(ppn) = map.translate(lpn) {
                prop_assert!(ppns.insert(ppn), "PPN {ppn:?} double-mapped");
            }
        }
        Ok(())
    });
}

/// Differential test of the wear-leveling and bad-block half of the map
/// against a trivial model: a `BTreeMap` of per-block erase counts and a
/// `BTreeSet` of retired blocks, maintained by the test alongside every
/// GC decision. The map must agree on block states, erase counts, and
/// usable capacity, and must never leave a logical page mapped onto a
/// retired block.
#[test]
fn ftl_wear_and_retirement_matches_model() {
    use babol_ftl::BlockState;
    use std::collections::{BTreeMap, BTreeSet};
    Property::new("ftl_wear_and_retirement_matches_model").run(
        (any::<u64>(), vec_of(range(0u64..48), 1..150)),
        |(seed, writes)| {
            let mut map = PageMap::new(Geometry::tiny(), 2, 96);
            let mut rng = babol_sim::rng::SplitMix64::new(*seed);
            let mut erases: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            let mut retired: BTreeSet<(u32, u32)> = BTreeSet::new();
            for &lpn in writes {
                for lun in 0..2u32 {
                    let mut guard = 0;
                    while map.needs_gc(lun) {
                        let Some(plan) = map.plan_gc(lun) else { break };
                        for (mlpn, old) in &plan.moves {
                            let target = map.best_relocation_lun(old.lun);
                            map.allocate_on_lun(*mlpn, target);
                        }
                        let b = (plan.victim.lun, plan.victim.block);
                        // Occasionally the erase "fails" and the block is
                        // retired — capped at two device-wide so the stream
                        // never runs the 48 logical pages out of room.
                        if rng.next_below(8) == 0 && retired.len() < 2 {
                            map.retire_block(b.0, b.1);
                            retired.insert(b);
                        } else {
                            map.finish_gc(plan.victim);
                            *erases.entry(b).or_insert(0) += 1;
                        }
                        guard += 1;
                        prop_assert!(guard < 64, "GC failed to converge");
                    }
                }
                map.allocate_for_write(lpn);
            }
            for lun in 0..2u32 {
                for block in 0..8u32 {
                    let b = (lun, block);
                    prop_assert_eq!(
                        map.block_state(lun, block) == BlockState::Retired,
                        retired.contains(&b),
                        "retirement state of {:?} diverged",
                        b
                    );
                    prop_assert_eq!(
                        map.erase_count(lun, block),
                        erases.get(&b).copied().unwrap_or(0),
                        "erase count of {:?} diverged",
                        b
                    );
                }
            }
            prop_assert_eq!(map.usable_pages(), 128 - 8 * retired.len() as u64);
            let mut ppns = BTreeSet::new();
            for lpn in 0..96 {
                if let Some(ppn) = map.translate(lpn) {
                    prop_assert!(
                        !retired.contains(&(ppn.lun, ppn.block)),
                        "lpn {} mapped onto retired block {:?}",
                        lpn,
                        ppn
                    );
                    prop_assert!(ppns.insert(ppn), "PPN {:?} double-mapped", ppn);
                }
            }
            Ok(())
        },
    );
}

/// Differential test of the write-back cache against a trivial model: a
/// `BTreeMap<lpn, dirty>` plus the slot each resident page occupies. The
/// cache must agree on residency, dirtiness, slot stability, slot
/// uniqueness, least-recently-used eviction, eviction reports, and the
/// final drain.
#[test]
fn write_cache_matches_model() {
    use babol_ftl::WriteCache;
    use std::collections::{BTreeMap, BTreeSet};
    Property::new("write_cache_matches_model").run(
        (
            any::<u64>(),
            range(1usize..9),
            vec_of(range(0u64..24), 4..120),
        ),
        |(seed, cap, lpns)| {
            let mut c = WriteCache::new(*cap);
            let mut rng = babol_sim::rng::SplitMix64::new(*seed);
            let mut model: BTreeMap<u64, bool> = BTreeMap::new();
            let mut slots: BTreeMap<u64, u32> = BTreeMap::new();
            // Last use of each resident page: every write and every read
            // of a resident page counts.
            let mut last_use: BTreeMap<u64, usize> = BTreeMap::new();
            for (step, &lpn) in lpns.iter().enumerate() {
                if rng.next_below(3) < 2 {
                    // Host write.
                    let resident = model.contains_key(&lpn);
                    let full = model.len() == *cap;
                    let (slot, ev) = c.touch_write(lpn);
                    prop_assert!((slot as usize) < *cap, "slot out of range");
                    if resident {
                        prop_assert_eq!(ev, None, "hit must not evict");
                        prop_assert_eq!(slots[&lpn], slot, "hit must keep its slot");
                    } else if full {
                        let ev = ev.expect("miss on a full cache must evict");
                        prop_assert!(model.contains_key(&ev.lpn), "evicted a non-resident");
                        prop_assert_eq!(model[&ev.lpn], ev.dirty, "eviction dirtiness wrong");
                        prop_assert_eq!(slots[&ev.lpn], ev.slot, "eviction slot wrong");
                        prop_assert_eq!(ev.slot, slot, "incoming page must reuse the slot");
                        let lru = last_use.iter().min_by_key(|(_, &t)| t).map(|(&l, _)| l);
                        prop_assert_eq!(Some(ev.lpn), lru, "victim is not the LRU page");
                        model.remove(&ev.lpn);
                        slots.remove(&ev.lpn);
                        last_use.remove(&ev.lpn);
                    } else {
                        prop_assert_eq!(ev, None, "eviction while slots were free");
                    }
                    model.insert(lpn, true);
                    slots.insert(lpn, slot);
                    last_use.insert(lpn, step);
                } else {
                    // Host read: flush needed iff a dirty copy is resident.
                    let want = model.get(&lpn) == Some(&true);
                    let got = c.flush_for_read(lpn);
                    prop_assert_eq!(got.is_some(), want, "coherence flush diverged");
                    if let Some(s) = got {
                        prop_assert_eq!(s, slots[&lpn]);
                    }
                    if let Some(d) = model.get_mut(&lpn) {
                        *d = false;
                        last_use.insert(lpn, step);
                    }
                }
                let unique: BTreeSet<u32> = slots.values().copied().collect();
                prop_assert_eq!(unique.len(), slots.len(), "slot handed out twice");
                prop_assert_eq!(c.len(), model.len());
                prop_assert_eq!(c.dirty_len(), model.values().filter(|d| **d).count());
            }
            let drained = c.drain_dirty();
            let want: Vec<(u64, u32)> = model
                .iter()
                .filter(|(_, d)| **d)
                .map(|(l, _)| (*l, slots[l]))
                .collect();
            prop_assert_eq!(drained, want, "drain must list the dirty set ascending");
            prop_assert_eq!(c.dirty_len(), 0);
            Ok(())
        },
    );
}

/// End-to-end cache coherence: with a write-back cache of arbitrary
/// capacity in front of the same GC-heavy random-write job, a final flush
/// leaves flash byte-identical to the reference pattern for every mapped
/// page — dirty evictions, coherence flushes, and the end-of-job drain
/// lose nothing.
#[test]
fn cached_ssd_write_path_matches_pattern_model() {
    use babol::factory::coro_controller;
    use babol::runtime::RuntimeConfig;
    use babol_channel::Channel;
    use babol_flash::array::ContentMode;
    use babol_flash::lun::LunConfig;
    use babol_flash::{Lun, PackageProfile};
    use babol_ftl::{FioWorkload, IoPattern, Ssd, SsdConfig};
    use babol_sim::{CostModel, Cpu};
    use babol_ufsm::EmitConfig;

    Property::new("cached_ssd_write_path_matches_pattern_model")
        .cases(8)
        .run((any::<u64>(), range(1usize..32)), |&(seed, cache_pages)| {
            let luns = 2u32;
            let l = (0..luns)
                .map(|i| {
                    Lun::new(LunConfig {
                        profile: PackageProfile::test_tiny(),
                        content: ContentMode::Pristine,
                        seed: i as u64 + 1,
                        inject_errors: false,
                        require_init: false,
                    })
                })
                .collect();
            let mut sys = babol::system::System::new(
                Channel::new(l),
                EmitConfig::nv_ddr2(200),
                Cpu::new(Freq::from_ghz(1), CostModel::coroutine()),
            );
            let layout = PackageProfile::test_tiny().layout();
            let mut ctrl = coro_controller(layout, RuntimeConfig::coroutine());
            let mut cfg = SsdConfig::tiny(luns);
            cfg.cache_pages = cache_pages;
            let mut ssd = Ssd::new(cfg);
            let wl = FioWorkload {
                pattern: IoPattern::RandomWrite,
                total_ios: 200,
                queue_depth: 2,
                seed,
            };
            let r = ssd.run(&mut sys, &mut ctrl, wl);
            prop_assert_eq!(r.ios, 200);
            ssd.flush_cache(&mut sys, &mut ctrl);
            prop_assert_eq!(ssd.cache().dirty_len(), 0, "flush left dirt behind");
            let page_size = 512usize;
            for lpn in 0..96u64 {
                let Some(ppn) = ssd.map().translate(lpn) else {
                    continue;
                };
                let page = sys
                    .channel
                    .lun(ppn.lun)
                    .array()
                    .read_page(RowAddr {
                        lun: ppn.lun,
                        block: ppn.block,
                        page: ppn.page,
                    })
                    .expect("mapped page readable");
                let expect: Vec<u8> = (0..page_size)
                    .map(|i| (lpn as u8).wrapping_add(i as u8))
                    .collect();
                prop_assert_eq!(&page[..page_size], &expect[..], "lpn {} diverged", lpn);
            }
            Ok(())
        });
}

/// Parameter pages survive serialization for arbitrary field values.
#[test]
fn param_page_roundtrip() {
    Property::new("param_page_roundtrip").run(
        (
            range(512u32..65536),
            range(0u16..4096),
            range(1u32..1024),
            range(1u32..16384),
            range(1u8..8),
            range(1u16..1600),
        ),
        |&(page_size, spare, ppb, bpl, luns, mts)| {
            let p = ParamPage {
                manufacturer: "PROP".into(),
                model: "TEST".into(),
                page_size,
                spare_size: spare,
                pages_per_block: ppb,
                blocks_per_lun: bpl,
                luns,
                nv_ddr2_modes: 0x3F,
                max_mts: mts,
            };
            prop_assert_eq!(ParamPage::from_bytes(&p.to_bytes()).unwrap(), p);
            Ok(())
        },
    );
}

/// Merging histograms is indistinguishable from recording every
/// observation into one histogram: same buckets, count, mean, max, and
/// percentiles, for any split of any observation set.
#[test]
fn histogram_merge_matches_direct_recording() {
    use babol_trace::Histogram;
    Property::new("histogram_merge_matches_direct_recording").run(
        (vec_of(any::<u64>(), 0..48), vec_of(any::<u64>(), 0..48)),
        |(xs, ys)| {
            let mut direct = Histogram::new();
            let mut left = Histogram::new();
            let mut right = Histogram::new();
            for &ps in xs {
                direct.record(SimDuration::from_picos(ps));
                left.record(SimDuration::from_picos(ps));
            }
            for &ps in ys {
                direct.record(SimDuration::from_picos(ps));
                right.record(SimDuration::from_picos(ps));
            }
            left.merge(&right);
            prop_assert_eq!(left.buckets(), direct.buckets());
            prop_assert_eq!(left.count(), direct.count());
            prop_assert_eq!(left.mean(), direct.mean());
            prop_assert_eq!(left.max(), direct.max());
            for p in [50.0, 95.0, 99.0, 100.0] {
                prop_assert_eq!(left.percentile(p), direct.percentile(p));
            }
            Ok(())
        },
    );
}

/// Windowed telemetry loses nothing to windowing: for any observation
/// stream and any window length, the per-window latency histograms merged
/// back together are indistinguishable from recording every observation
/// into one whole-run histogram, and the per-window op counts sum to the
/// stream length.
#[test]
fn metrics_windows_merge_to_whole_run_histogram() {
    use babol_trace::{Histogram, MetricsHub};
    Property::new("metrics_windows_merge_to_whole_run_histogram").run(
        (
            select(&[1_000u64, 7_000, 52_429, 1_000_000]),
            vec_of((range(0u64..5_000_000), any::<u64>()), 0..64),
        ),
        |(window_ps, obs)| {
            let mut hub = MetricsHub::new(SimDuration::from_picos(*window_ps));
            let mut direct = Histogram::new();
            for &(at, lat) in obs {
                hub.observe_latency(SimTime::from_picos(at), SimDuration::from_picos(lat));
                direct.record(SimDuration::from_picos(lat));
            }
            let merged = hub.merged_latency();
            prop_assert_eq!(merged.buckets(), direct.buckets());
            prop_assert_eq!(merged.count(), direct.count());
            prop_assert_eq!(merged.mean(), direct.mean());
            prop_assert_eq!(merged.max(), direct.max());
            for p in [50.0, 95.0, 99.0, 100.0] {
                prop_assert_eq!(merged.percentile(p), direct.percentile(p));
            }
            prop_assert_eq!(
                hub.frames().iter().map(|f| f.ops).sum::<u64>(),
                obs.len() as u64
            );
            Ok(())
        },
    );
}

/// Frame boundaries partition sim time exactly: every observation lands
/// in the one frame whose `[start, end)` contains it, the frame series is
/// index-contiguous with `floor(last/W) + 1` entries, and counter deltas
/// attributed per window telescope back to the stream total.
#[test]
fn metrics_frames_partition_sim_time_exactly() {
    use babol_trace::{FtlCounter, MetricsHub, MetricsSnapshot};
    use std::collections::BTreeMap;
    Property::new("metrics_frames_partition_sim_time_exactly").run(
        (
            select(&[1_000u64, 7_000, 52_429, 1_000_000]),
            vec_of((range(0u64..5_000_000), range(0u64..1_000)), 1..48),
        ),
        |(window_ps, steps)| {
            let w = *window_ps;
            let window = SimDuration::from_picos(w);
            let mut hub = MetricsHub::new(window);
            hub.prime(&MetricsSnapshot::default());
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut total = 0u64;
            for &(at, delta) in steps {
                let t = SimTime::from_picos(at);
                prop_assert_eq!(t.window_index(window), at / w);
                hub.note_op(t);
                *model.entry(at / w).or_insert(0) += 1;
                total += delta;
                let mut snap = MetricsSnapshot::default();
                snap.counters[FtlCounter::EnergyPj] = total;
                hub.sample(t, &snap);
            }
            let frames = hub.frames();
            let last = steps.iter().map(|&(at, _)| at).max().unwrap();
            prop_assert_eq!(frames.len() as u64, last / w + 1);
            for (i, f) in frames.iter().enumerate() {
                prop_assert_eq!(f.index, i as u64, "frames must be index-contiguous");
                prop_assert_eq!(f.start(window).as_picos(), i as u64 * w);
                prop_assert_eq!(f.end(window).as_picos(), (i as u64 + 1) * w);
                prop_assert_eq!(
                    f.ops,
                    model.get(&f.index).copied().unwrap_or(0),
                    "ops landed outside their window"
                );
            }
            // Every observation is inside its frame's half-open span.
            for &(at, _) in steps {
                let f = &frames[(at / w) as usize];
                prop_assert!(f.start(window).as_picos() <= at && at < f.end(window).as_picos());
            }
            let energy = frames.iter().map(|f| f.snap.counters[FtlCounter::EnergyPj]);
            prop_assert_eq!(energy.sum::<u64>(), total);
            Ok(())
        },
    );
}

/// Durations format and never panic across magnitudes.
#[test]
fn duration_display_total() {
    Property::new("duration_display_total").run(any::<u64>(), |&ps| {
        let _ = SimDuration::from_picos(ps % (u64::MAX / 2)).to_string();
        Ok(())
    });
}
