//! Backend-side image injection: a wired node that PUTs a firmware
//! image to the gateway over CoAP blockwise (Block1), one block per
//! backbone round-trip.

use crate::image::Image;
use iiot_coap::block::{slice_block, BlockOpt};
use iiot_coap::message::{option, Code, Message};
use iiot_sim::obs::EventKind;
use iiot_sim::{Ctx, NodeId, Proto};

/// A deployment backend pushing one image to one gateway. Attach it to
/// a node with no radio role; all traffic rides the wired backbone
/// ([`Ctx::wire_send`]).
pub struct BlockInjector {
    gateway: NodeId,
    image: Vec<u8>,
    version: u32,
    block_size: usize,
    next: u32,
    mid: u16,
    done: bool,
    failed: bool,
}

impl BlockInjector {
    /// An injector that will push `image` to `gateway` in blocks of
    /// `block_size` bytes (a power of two in 16..=1024, RFC 7959).
    pub fn new(gateway: NodeId, image: &Image, block_size: usize) -> Self {
        BlockInjector {
            gateway,
            version: image.meta().version,
            image: image.encode(),
            block_size,
            next: 0,
            mid: 0,
            done: false,
            failed: false,
        }
    }

    /// Whether the transfer completed (final block acknowledged).
    pub fn done(&self) -> bool {
        self.done
    }

    /// Whether the gateway rejected the transfer.
    pub fn failed(&self) -> bool {
        self.failed
    }

    fn send_block(&mut self, ctx: &mut Ctx<'_>) {
        let szx = BlockOpt::szx_for_size(self.block_size);
        let blk = BlockOpt::new(self.next, false, szx);
        let Some((bytes, more)) = slice_block(&self.image, blk) else {
            return;
        };
        self.mid = self.mid.wrapping_add(1);
        let req = Message::request(Code::Put, self.mid, vec![0x0F])
            .with_path("fw")
            .with_option(
                option::BLOCK1,
                BlockOpt::new(self.next, more, szx).to_bytes(),
            )
            .with_payload(bytes);
        ctx.wire_send(self.gateway, req.encode());
    }
}

impl Proto for BlockInjector {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.emit(EventKind::RolloutStage {
            stage: "inject",
            cohort: self.version,
        });
        self.send_block(ctx);
    }

    fn wire(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        if from != self.gateway || self.done || self.failed {
            return;
        }
        let Ok(resp) = Message::decode(payload) else {
            return;
        };
        match resp.code {
            Code::Changed => {
                let szx = BlockOpt::szx_for_size(self.block_size);
                let sent = BlockOpt::new(self.next, false, szx);
                let (_, more) = slice_block(&self.image, sent).expect("sent block exists");
                if more {
                    self.next += 1;
                    self.send_block(ctx);
                } else {
                    self.done = true;
                }
            }
            _ => self.failed = true,
        }
    }

    fn crashed(&mut self) {
        // The backend is not part of the fault model; nothing volatile.
    }
}
