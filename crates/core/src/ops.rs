//! The coroutine operation library.
//!
//! These are the paper's Figure 8 algorithms and the advanced operations its
//! introduction motivates, written against [`OpCtx`]. Each operation is a
//! composition of μFSM invocations wrapped in transactions; polling loops
//! relinquish control at every `await`, exactly like the paper's `co_await`.
//!
//! The `@loc:` markers bracket the operations counted in Table II
//! (lines of code of READ / PROGRAM / ERASE); see `babol-bench`'s
//! `repro_table2`, which counts these regions of this very file.

use babol_onfi::addr::{AddrLayout, ColumnAddr, RowAddr};
use babol_onfi::bus::ChipMask;
use babol_onfi::feature;
use babol_onfi::opcode::op;
use babol_onfi::status::Status;
use babol_sim::SimDuration;
use babol_ufsm::{DmaDest, Latch, PostWait, Transaction};

use crate::runtime::coro::OpCtx;
use crate::runtime::OpError;

/// Addressing context for one operation: which chip-enable line, and how to
/// pack addresses for the wired package.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// CE# index on the channel.
    pub chip: u32,
    /// Address-cycle layout of the package.
    pub layout: AddrLayout,
}

impl Target {
    fn mask(&self) -> ChipMask {
        ChipMask::single(self.chip)
    }
}

// ---------------------------------------------------------------- statuses

// @loc:read_status:begin
/// READ STATUS (paper Algorithm 1): ask a LUN whether it finished its
/// previously assigned task. Issues opcode `0x70`, reads one byte back.
pub async fn read_status(ctx: &OpCtx, t: &Target) -> u8 {
    let txn = Transaction::new(t.mask())
        .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
        .read(1, DmaDest::Inline);
    let result = ctx.submit(txn).await;
    ctx.step();
    result.inline[0]
}
// @loc:read_status:end

/// Polls READ STATUS until the RDY bit (0x40) is set; returns the final
/// status byte (Algorithm 2, lines 7..9). Busy polls are paced by the
/// runtime's backoff instead of hot-spinning the channel (the interval
/// seen in Fig. 11): the loop is the runtime's status-wait primitive,
/// [`StatusWait`](crate::runtime::StatusWait).
pub async fn wait_ready(ctx: &OpCtx, t: &Target) -> u8 {
    ctx.wait_ready(t.chip).await
}

// ------------------------------------------------------------------- reads

// @loc:read:begin
/// READ with a Column Address Change (paper Algorithm 2).
///
/// Latches the page address and the READ confirmation, polls READ STATUS
/// until the array fetch (tR) completes, then moves the requested chunk out
/// of the page register into DRAM via CHANGE READ COLUMN. Works at any
/// offset; with `col = 0` it degenerates into a full-page READ, which is
/// why "many SSD Architects only implement the former operation".
pub async fn read_page(
    ctx: &OpCtx,
    t: &Target,
    row: RowAddr,
    col: u32,
    len: usize,
    dest: u64,
) -> Result<(), OpError> {
    // Transaction 1: command + page address latch, confirm (starts tR).
    let addr = t.layout.pack_full(ColumnAddr(0), row);
    let latch = Transaction::new(t.mask()).ca(
        vec![
            Latch::Cmd(op::READ_1),
            Latch::Addr(addr),
            Latch::Cmd(op::READ_2),
        ],
        PostWait::Wb,
    );
    ctx.submit(latch).await;
    // Poll for the end of the array fetch instead of a fixed tR wait.
    let status = wait_ready(ctx, t).await;
    if status & Status::FAIL != 0 {
        ctx.set_outcome(Err(OpError::Failed { status }));
        return Err(OpError::Failed { status });
    }
    // Transaction 2: select the chunk (0x05 .. 0xE0) and stream it out.
    let col_addr = t.layout.pack_col(ColumnAddr(col));
    let fetch = Transaction::new(t.mask())
        .ca(
            vec![
                Latch::Cmd(op::CHANGE_READ_COL_1),
                Latch::Addr(col_addr),
                Latch::Cmd(op::CHANGE_READ_COL_2),
            ],
            PostWait::Ccs,
        )
        .read(len, DmaDest::Dram(dest));
    ctx.submit(fetch).await;
    ctx.step();
    Ok(())
}
// @loc:read:end

// @loc:read_pslc:begin
/// Pseudo-SLC READ (paper Algorithm 3): identical to [`read_page`] except
/// for the vendor prefix that makes the array sense the cells as SLC —
/// faster and gentler on worn blocks. "Thanks to BABOL's software
/// environment, conceiving such an operation is trivial."
pub async fn read_page_pslc(
    ctx: &OpCtx,
    t: &Target,
    row: RowAddr,
    col: u32,
    len: usize,
    dest: u64,
) -> Result<(), OpError> {
    let addr = t.layout.pack_full(ColumnAddr(0), row);
    let latch = Transaction::new(t.mask()).ca(
        vec![
            Latch::Cmd(op::PSLC_PREFIX), // the one-line difference
            Latch::Cmd(op::READ_1),
            Latch::Addr(addr),
            Latch::Cmd(op::READ_2),
        ],
        PostWait::Wb,
    );
    ctx.submit(latch).await;
    let status = wait_ready(ctx, t).await;
    if status & Status::FAIL != 0 {
        ctx.set_outcome(Err(OpError::Failed { status }));
        return Err(OpError::Failed { status });
    }
    let col_addr = t.layout.pack_col(ColumnAddr(col));
    let fetch = Transaction::new(t.mask())
        .ca(
            vec![
                Latch::Cmd(op::CHANGE_READ_COL_1),
                Latch::Addr(col_addr),
                Latch::Cmd(op::CHANGE_READ_COL_2),
            ],
            PostWait::Ccs,
        )
        .read(len, DmaDest::Dram(dest));
    ctx.submit(fetch).await;
    ctx.step();
    Ok(())
}
// @loc:read_pslc:end

// ---------------------------------------------------------------- programs

// @loc:program:begin
/// PAGE PROGRAM: latch address, stream data from DRAM into the page
/// register, confirm (starts tPROG), poll for completion, check FAIL.
pub async fn program_page(
    ctx: &OpCtx,
    t: &Target,
    row: RowAddr,
    src: u64,
    len: usize,
) -> Result<(), OpError> {
    let addr = t.layout.pack_full(ColumnAddr(0), row);
    let txn = Transaction::new(t.mask())
        .ca(
            vec![Latch::Cmd(op::PROGRAM_1), Latch::Addr(addr)],
            PostWait::Adl,
        )
        .write(len, src)
        .ca(vec![Latch::Cmd(op::PROGRAM_2)], PostWait::Wb);
    ctx.submit(txn).await;
    let status = wait_ready(ctx, t).await;
    ctx.step();
    if status & Status::FAIL != 0 {
        ctx.set_outcome(Err(OpError::Failed { status }));
        return Err(OpError::Failed { status });
    }
    Ok(())
}
// @loc:program:end

/// Pseudo-SLC PROGRAM: the pSLC-prefixed variant of [`program_page`].
pub async fn program_page_pslc(
    ctx: &OpCtx,
    t: &Target,
    row: RowAddr,
    src: u64,
    len: usize,
) -> Result<(), OpError> {
    let addr = t.layout.pack_full(ColumnAddr(0), row);
    let txn = Transaction::new(t.mask())
        .ca(
            vec![
                Latch::Cmd(op::PSLC_PREFIX),
                Latch::Cmd(op::PROGRAM_1),
                Latch::Addr(addr),
            ],
            PostWait::Adl,
        )
        .write(len, src)
        .ca(vec![Latch::Cmd(op::PROGRAM_2)], PostWait::Wb);
    ctx.submit(txn).await;
    let status = wait_ready(ctx, t).await;
    ctx.step();
    if status & Status::FAIL != 0 {
        ctx.set_outcome(Err(OpError::Failed { status }));
        return Err(OpError::Failed { status });
    }
    Ok(())
}

// ------------------------------------------------------------------ erases

// @loc:erase:begin
/// BLOCK ERASE: latch the row address, confirm (starts tBERS), poll, check
/// FAIL.
pub async fn erase_block(ctx: &OpCtx, t: &Target, row: RowAddr) -> Result<(), OpError> {
    let addr = t.layout.pack_row(row);
    let txn = Transaction::new(t.mask()).ca(
        vec![
            Latch::Cmd(op::ERASE_1),
            Latch::Addr(addr),
            Latch::Cmd(op::ERASE_2),
        ],
        PostWait::Wb,
    );
    ctx.submit(txn).await;
    let status = wait_ready(ctx, t).await;
    ctx.step();
    if status & Status::FAIL != 0 {
        ctx.set_outcome(Err(OpError::Failed { status }));
        return Err(OpError::Failed { status });
    }
    Ok(())
}
// @loc:erase:end

// --------------------------------------------------------- config & identity

/// SET FEATURES: `0xEF` + feature address, a tADL pause (Timer μFSM — the
/// paper's §IV-A example), then the four parameter bytes from DRAM.
pub async fn set_features(
    ctx: &OpCtx,
    t: &Target,
    feature: u8,
    value: [u8; 4],
    scratch_dram: u64,
) -> Result<(), OpError> {
    ctx.stage_bytes(scratch_dram, &value);
    let txn = Transaction::new(t.mask())
        .ca(
            vec![Latch::Cmd(op::SET_FEATURES), Latch::Addr(vec![feature])],
            PostWait::Adl,
        )
        .write(4, scratch_dram);
    ctx.submit(txn).await;
    // The feature change needs a moment to take effect inside the array.
    ctx.sleep(SimDuration::from_micros(1)).await;
    ctx.step();
    Ok(())
}

/// GET FEATURES: reads the four parameter bytes of a feature address.
pub async fn get_features(ctx: &OpCtx, t: &Target, feature: u8) -> [u8; 4] {
    let txn = Transaction::new(t.mask())
        .ca(
            vec![Latch::Cmd(op::GET_FEATURES), Latch::Addr(vec![feature])],
            PostWait::Whr,
        )
        .read(4, DmaDest::Inline);
    let r = ctx.submit(txn).await;
    ctx.step();
    [r.inline[0], r.inline[1], r.inline[2], r.inline[3]]
}

/// READ ID: returns the first `len` identification bytes.
pub async fn read_id(ctx: &OpCtx, t: &Target, len: usize) -> Vec<u8> {
    let txn = Transaction::new(t.mask())
        .ca(
            vec![Latch::Cmd(op::READ_ID), Latch::Addr(vec![0x00])],
            PostWait::Whr,
        )
        .read(len, DmaDest::Inline);
    ctx.submit(txn).await.inline.into_vec()
}

/// RESET: issues `0xFF` and polls until the package recovers.
pub async fn reset(ctx: &OpCtx, t: &Target) -> Result<(), OpError> {
    let txn = Transaction::new(t.mask()).ca(vec![Latch::Cmd(op::RESET)], PostWait::Wb);
    ctx.submit(txn).await;
    wait_ready(ctx, t).await;
    Ok(())
}

/// READ PARAMETER PAGE: fetches `copies` 256-byte copies inline.
pub async fn read_param_page(ctx: &OpCtx, t: &Target, copies: usize) -> Vec<u8> {
    let txn = Transaction::new(t.mask()).ca(
        vec![Latch::Cmd(op::READ_PARAM_PAGE), Latch::Addr(vec![0x00])],
        PostWait::Wb,
    );
    ctx.submit(txn).await;
    wait_ready(ctx, t).await;
    // Restore data output (a READ STATUS leaves the LUN in status-out mode).
    let fetch = Transaction::new(t.mask())
        .ca(vec![Latch::Cmd(op::READ_1)], PostWait::Whr)
        .read(256 * copies, DmaDest::Inline);
    ctx.submit(fetch).await.inline.into_vec()
}

// ------------------------------------------------------ advanced operations

/// READ with retries (Park et al., ASPLOS'21; paper §I): step the vendor
/// read-retry level via SET FEATURES until `verify` accepts the data or the
/// levels are exhausted. `verify` is typically an ECC decode.
///
/// The argument list mirrors the ONFI command sequence one-to-one, so the
/// count stays as-is rather than hiding parameters in a struct.
#[allow(clippy::too_many_arguments)]
pub async fn read_with_retry(
    ctx: &OpCtx,
    t: &Target,
    row: RowAddr,
    len: usize,
    dest: u64,
    scratch_dram: u64,
    max_level: u8,
    mut verify: impl FnMut(u8) -> bool,
) -> Result<u8, OpError> {
    for level in 0..=max_level {
        if level > 0 {
            set_features(
                ctx,
                t,
                feature::addr::READ_RETRY_LEVEL,
                [level, 0, 0, 0],
                scratch_dram,
            )
            .await?;
        }
        read_page(ctx, t, row, 0, len, dest).await?;
        if verify(level) {
            if level > 0 {
                // Restore the default level for subsequent reads.
                set_features(
                    ctx,
                    t,
                    feature::addr::READ_RETRY_LEVEL,
                    [0, 0, 0, 0],
                    scratch_dram,
                )
                .await?;
            }
            return Ok(level);
        }
    }
    ctx.set_outcome(Err(OpError::Uncorrectable));
    Err(OpError::Uncorrectable)
}

/// RAIL-style gang read (Litz et al., ToS'22; paper Fig. 6d): start the
/// array fetch on *several* replicas at once via the Chip Control bitmap,
/// then stream from whichever LUN reports ready first — trimming tail
/// latency caused by slow reads.
pub async fn gang_read(
    ctx: &OpCtx,
    targets: &[Target],
    row: RowAddr,
    len: usize,
    dest: u64,
) -> Result<u32, OpError> {
    assert!(!targets.is_empty());
    // Gang-latch the READ on every replica in one segment.
    let mask = targets
        .iter()
        .fold(ChipMask::NONE, |m, t| m | ChipMask::single(t.chip));
    let addr = targets[0].layout.pack_full(ColumnAddr(0), row);
    let latch = Transaction::new(mask).ca(
        vec![
            Latch::Cmd(op::READ_1),
            Latch::Addr(addr),
            Latch::Cmd(op::READ_2),
        ],
        PostWait::Wb,
    );
    ctx.submit(latch).await;
    // Poll the replicas round-robin; first ready wins.
    let winner = loop {
        let mut done = None;
        for t in targets {
            let status = read_status(ctx, t).await;
            if status & Status::RDY != 0 {
                done = Some(t);
                break;
            }
        }
        if let Some(t) = done {
            break t;
        }
        if !ctx.poll_backoff().is_zero() {
            ctx.sleep(ctx.poll_backoff()).await;
        }
    };
    let col_addr = winner.layout.pack_col(ColumnAddr(0));
    let fetch = Transaction::new(winner.mask())
        .ca(
            vec![
                Latch::Cmd(op::CHANGE_READ_COL_1),
                Latch::Addr(col_addr),
                Latch::Cmd(op::CHANGE_READ_COL_2),
            ],
            PostWait::Ccs,
        )
        .read(len, DmaDest::Dram(dest));
    ctx.submit(fetch).await;
    Ok(winner.chip)
}

/// Sequential cache read: streams `count` consecutive pages using READ
/// CACHE SEQUENTIAL so the array fetches page *k+1* while page *k* crosses
/// the bus — the ONFI pipelining the paper lists among the READ variations.
pub async fn cache_read_seq(
    ctx: &OpCtx,
    t: &Target,
    first: RowAddr,
    count: u32,
    page_len: usize,
    dest: u64,
) -> Result<(), OpError> {
    assert!(count >= 1);
    // Prime the pipeline with a normal READ of the first page.
    let addr = t.layout.pack_full(ColumnAddr(0), first);
    let latch = Transaction::new(t.mask()).ca(
        vec![
            Latch::Cmd(op::READ_1),
            Latch::Addr(addr),
            Latch::Cmd(op::READ_2),
        ],
        PostWait::Wb,
    );
    ctx.submit(latch).await;
    wait_ready(ctx, t).await;
    for k in 0..count {
        let last = k == count - 1;
        // Move the fetched page to the cache register; start the next fetch
        // (0x31) or finish the stream (0x3F).
        let opcode = if last {
            op::READ_CACHE_END
        } else {
            op::READ_CACHE_SEQ
        };
        let kick = Transaction::new(t.mask()).ca(vec![Latch::Cmd(opcode)], PostWait::Wb);
        ctx.submit(kick).await;
        // Stream page k from the cache register while the array works.
        let fetch = Transaction::new(t.mask())
            .read(page_len, DmaDest::Dram(dest + k as u64 * page_len as u64));
        ctx.submit(fetch).await;
        if !last {
            // The next page must be in the page register before we cycle.
            wait_ready_cached(ctx, t).await;
        }
    }
    ctx.step();
    Ok(())
}

/// Polls until the *array* is idle (ARDY), for cache-read sequencing where
/// RDY alone stays high.
async fn wait_ready_cached(ctx: &OpCtx, t: &Target) -> u8 {
    loop {
        let status = read_status(ctx, t).await;
        if status & Status::ARDY != 0 {
            return status;
        }
        if !ctx.poll_backoff().is_zero() {
            ctx.sleep(ctx.poll_backoff()).await;
        }
    }
}

/// Multi-plane READ: queue a fetch on one plane (0x32), confirm on the
/// other (0x30); both tRs overlap, then each plane's data is selected with
/// RANDOM DATA OUT and streamed.
pub async fn multi_plane_read(
    ctx: &OpCtx,
    t: &Target,
    rows: [RowAddr; 2],
    len: usize,
    dests: [u64; 2],
) -> Result<(), OpError> {
    // Queue plane 0.
    let addr0 = t.layout.pack_full(ColumnAddr(0), rows[0]);
    let queue = Transaction::new(t.mask()).ca(
        vec![
            Latch::Cmd(op::READ_1),
            Latch::Addr(addr0),
            Latch::Cmd(op::MULTI_PLANE_NEXT),
        ],
        PostWait::Wb,
    );
    ctx.submit(queue).await;
    wait_ready(ctx, t).await; // short tDBSY window
                              // Confirm with plane 1: both fetches run concurrently.
    let addr1 = t.layout.pack_full(ColumnAddr(0), rows[1]);
    let confirm = Transaction::new(t.mask()).ca(
        vec![
            Latch::Cmd(op::READ_1),
            Latch::Addr(addr1),
            Latch::Cmd(op::READ_2),
        ],
        PostWait::Wb,
    );
    ctx.submit(confirm).await;
    wait_ready(ctx, t).await;
    // Stream each plane via RANDOM DATA OUT plane selection.
    for (i, row) in rows.iter().enumerate() {
        let sel = t.layout.pack_full(ColumnAddr(0), *row);
        let fetch = Transaction::new(t.mask())
            .ca(
                vec![
                    Latch::Cmd(op::RANDOM_DATA_OUT_1),
                    Latch::Addr(sel),
                    Latch::Cmd(op::CHANGE_READ_COL_2),
                ],
                PostWait::Ccs,
            )
            .read(len, DmaDest::Dram(dests[i]));
        ctx.submit(fetch).await;
    }
    ctx.step();
    Ok(())
}

/// Erase with suspend window (Kim et al., ATC'19; Wu & He, FAST'12): starts
/// a block erase, and if `urgent_read` arrives conceptually mid-erase,
/// suspends the erase, serves the read, then resumes. Demonstrates how
/// BABOL encodes operations that rigid hardware controllers cannot.
pub async fn erase_with_suspended_read(
    ctx: &OpCtx,
    t: &Target,
    erase_row: RowAddr,
    read_row: RowAddr,
    read_len: usize,
    read_dest: u64,
) -> Result<(), OpError> {
    // Kick off the erase.
    let addr = t.layout.pack_row(erase_row);
    let kick = Transaction::new(t.mask()).ca(
        vec![
            Latch::Cmd(op::ERASE_1),
            Latch::Addr(addr),
            Latch::Cmd(op::ERASE_2),
        ],
        PostWait::Wb,
    );
    ctx.submit(kick).await;
    // Give the erase a head start, then suspend it.
    ctx.sleep(SimDuration::from_micros(100)).await;
    let susp = Transaction::new(t.mask()).ca(vec![Latch::Cmd(op::ERASE_SUSPEND)], PostWait::Wb);
    ctx.submit(susp).await;
    wait_ready(ctx, t).await;
    // Serve the urgent read while the erase is parked.
    read_page(ctx, t, read_row, 0, read_len, read_dest).await?;
    // Resume and finish the erase.
    let resume = Transaction::new(t.mask()).ca(vec![Latch::Cmd(op::SUSPEND_RESUME)], PostWait::Wb);
    ctx.submit(resume).await;
    let status = wait_ready(ctx, t).await;
    ctx.step();
    if status & Status::FAIL != 0 {
        return Err(OpError::Failed { status });
    }
    Ok(())
}
