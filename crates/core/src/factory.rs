//! Ready-made controller constructors.
//!
//! The experiments compare four controllers over identical workloads; these
//! helpers build each of them for a given package layout. The coroutine and
//! RTOS controllers translate every FTL request into the corresponding
//! operation from their libraries.

use babol_onfi::addr::AddrLayout;

use crate::ops::{self, Target};
use crate::runtime::coro::{CoroTask, OpCtx};
use crate::runtime::rtos::{EraseOp, ProgramOp, ReadOp, RtosTask};
use crate::runtime::{RuntimeConfig, SoftController, SoftTask};
use crate::system::{IoKind, IoRequest};

use babol_onfi::addr::RowAddr;

fn row_of(req: &IoRequest) -> RowAddr {
    RowAddr {
        lun: req.lun,
        block: req.block,
        page: req.page,
    }
}

/// Copies the runtime's poll backoff and the request id into a task's
/// mailbox.
fn tagged(task: Box<dyn SoftTask>, cfg: &RuntimeConfig, req: &IoRequest) -> Box<dyn SoftTask> {
    {
        let mut mb = task.mailbox().borrow_mut();
        mb.poll_backoff = cfg.poll_backoff;
        mb.op_id = req.id;
    }
    task
}

/// Builds the coroutine-environment BABOL controller ("Coro" in Fig. 10).
pub fn coro_controller(layout: AddrLayout, cfg: RuntimeConfig) -> SoftController {
    SoftController::new("BABOL-Coro", cfg, move |req| {
        let t = Target {
            chip: req.lun,
            layout,
        };
        let ctx = OpCtx::new(req.lun, 0);
        let req = *req;
        let body_ctx = ctx.clone();
        let future: std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> = match req.kind {
            IoKind::Read => Box::pin(async move {
                let r =
                    ops::read_page(&body_ctx, &t, row_of(&req), req.col, req.len, req.dram_addr)
                        .await;
                if r.is_ok() {
                    body_ctx.set_outcome(Ok(()));
                }
            }),
            IoKind::Program => Box::pin(async move {
                let r =
                    ops::program_page(&body_ctx, &t, row_of(&req), req.dram_addr, req.len).await;
                if r.is_ok() {
                    body_ctx.set_outcome(Ok(()));
                }
            }),
            IoKind::Erase => Box::pin(async move {
                let r = ops::erase_block(&body_ctx, &t, row_of(&req)).await;
                if r.is_ok() {
                    body_ctx.set_outcome(Ok(()));
                }
            }),
        };
        tagged(Box::new(CoroTask::new(&ctx, future)), &cfg, &req)
    })
}

/// Builds the RTOS-environment BABOL controller ("RTOS" in Fig. 10).
pub fn rtos_controller(layout: AddrLayout, cfg: RuntimeConfig) -> SoftController {
    SoftController::new("BABOL-RTOS", cfg, move |req| {
        let t = Target {
            chip: req.lun,
            layout,
        };
        let row = row_of(req);
        let task: Box<dyn SoftTask> = match req.kind {
            IoKind::Read => Box::new(RtosTask::new(
                req.lun,
                0,
                ReadOp::new(t, row, req.col, req.len, req.dram_addr, false),
            )),
            IoKind::Program => Box::new(RtosTask::new(
                req.lun,
                0,
                ProgramOp::new(t, row, req.dram_addr, req.len, false),
            )),
            IoKind::Erase => Box::new(RtosTask::new(req.lun, 0, EraseOp::new(t, row))),
        };
        tagged(task, &cfg, req)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Controller;

    #[test]
    fn factories_name_their_controllers() {
        let layout = AddrLayout::new(512, 8, 8, 4);
        assert_eq!(
            coro_controller(layout, RuntimeConfig::coroutine()).name(),
            "BABOL-Coro"
        );
        assert_eq!(
            rtos_controller(layout, RuntimeConfig::rtos()).name(),
            "BABOL-RTOS"
        );
    }
}
