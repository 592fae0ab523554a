//! Block-wise transfers (RFC 7959): moving representations larger than
//! a frame across constrained links, block by block.
//!
//! # Examples
//!
//! A complete Block1 round-trip: the client slices a large
//! representation into 64-byte blocks and PUTs them one request at a
//! time; the server reassembles and acknowledges each block (this
//! CoAP subset answers intermediate blocks with 2.04 Changed rather
//! than 2.31 Continue). This is the transfer `iiot-dissem` uses to
//! move firmware images from the backend to a gateway.
//!
//! ```
//! use iiot_coap::block::{slice_block, BlockAssembler, BlockOpt, BlockProgress};
//! use iiot_coap::message::{option, Code, Message};
//!
//! let image: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
//! let szx = BlockOpt::szx_for_size(64);
//!
//! let mut server = BlockAssembler::new();
//! let mut received = None;
//! let mut num = 0;
//! loop {
//!     // Client: slice the next block and wrap it in a PUT.
//!     let (bytes, more) = slice_block(&image, BlockOpt::new(num, false, szx)).unwrap();
//!     let block = BlockOpt::new(num, more, szx);
//!     let put = Message::request(Code::Put, num as u16, vec![0x42])
//!         .with_path("fw")
//!         .with_option(option::BLOCK1, block.to_bytes())
//!         .with_payload(bytes);
//!
//!     // Server: decode, feed the assembler, acknowledge.
//!     let req = Message::decode(&put.encode()).unwrap();
//!     let blk = BlockOpt::from_bytes(req.option(option::BLOCK1).unwrap()).unwrap();
//!     let ack = match server.push(blk, &req.payload) {
//!         BlockProgress::Continue(next) => {
//!             num = next;
//!             Message::response_to(&req, Code::Changed)
//!                 .with_option(option::BLOCK1, blk.to_bytes())
//!         }
//!         BlockProgress::Done(full) => {
//!             received = Some(full);
//!             Message::response_to(&req, Code::Changed)
//!                 .with_option(option::BLOCK1, blk.to_bytes())
//!         }
//!         BlockProgress::Mismatch => {
//!             Message::response_to(&req, Code::RequestEntityIncomplete)
//!         }
//!     };
//!
//!     // Client: a Changed ACK for the final block ends the transfer.
//!     let resp = Message::decode(&ack.encode()).unwrap();
//!     assert_eq!(resp.code, Code::Changed);
//!     if !more {
//!         break;
//!     }
//! }
//! assert_eq!(received.as_deref(), Some(&image[..]));
//! ```

use crate::message::{uint_bytes, uint_value};

/// A Block1/Block2 option value: `NUM | M | SZX`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockOpt {
    /// Block number.
    pub num: u32,
    /// "More blocks follow".
    pub more: bool,
    /// Size exponent: block size is `16 << szx`, `szx` in `0..=6`.
    pub szx: u8,
}

impl BlockOpt {
    /// Creates a block option.
    ///
    /// # Panics
    ///
    /// Panics if `szx > 6` (RFC 7959 reserves 7).
    pub fn new(num: u32, more: bool, szx: u8) -> Self {
        assert!(szx <= 6, "szx must be 0..=6");
        BlockOpt { num, more, szx }
    }

    /// The szx exponent for a block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a power of two in `16..=1024`.
    pub fn szx_for_size(size: usize) -> u8 {
        assert!(
            size.is_power_of_two() && (16..=1024).contains(&size),
            "block size must be a power of two in 16..=1024"
        );
        (size.trailing_zeros() - 4) as u8
    }

    /// Block size in bytes.
    pub fn size(self) -> usize {
        16usize << self.szx
    }

    /// Byte offset of this block in the full representation.
    pub fn offset(self) -> usize {
        self.num as usize * self.size()
    }

    /// Encodes to the option value.
    pub fn to_bytes(self) -> Vec<u8> {
        uint_bytes((self.num << 4) | ((self.more as u32) << 3) | self.szx as u32)
    }

    /// Decodes from the option value. Returns `None` for the reserved
    /// szx 7.
    pub fn from_bytes(bytes: &[u8]) -> Option<BlockOpt> {
        let v = uint_value(bytes);
        let szx = (v & 0x7) as u8;
        if szx == 7 {
            return None;
        }
        Some(BlockOpt {
            num: v >> 4,
            more: v & 0x8 != 0,
            szx,
        })
    }
}

/// Slices a full representation into the requested block. Returns the
/// block bytes and whether more blocks follow; `None` if the block
/// number is out of range.
pub fn slice_block(full: &[u8], block: BlockOpt) -> Option<(Vec<u8>, bool)> {
    let start = block.offset();
    if start >= full.len() && !(start == 0 && full.is_empty()) {
        return None;
    }
    let end = (start + block.size()).min(full.len());
    Some((full[start..end].to_vec(), end < full.len()))
}

/// Client-side reassembly of a blockwise response.
#[derive(Clone, Debug, Default)]
pub struct BlockAssembler {
    buf: Vec<u8>,
    next: u32,
}

/// Outcome of feeding one block to the [`BlockAssembler`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockProgress {
    /// Request the next block (`num` to put in Block2).
    Continue(u32),
    /// The representation is complete.
    Done(Vec<u8>),
    /// The server sent an unexpected block number; abort.
    Mismatch,
}

impl BlockAssembler {
    /// An empty assembler expecting block 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the payload of a response carrying `block`.
    pub fn push(&mut self, block: BlockOpt, payload: &[u8]) -> BlockProgress {
        if block.num != self.next {
            return BlockProgress::Mismatch;
        }
        self.buf.extend_from_slice(payload);
        self.next += 1;
        if block.more {
            BlockProgress::Continue(self.next)
        } else {
            BlockProgress::Done(std::mem::take(&mut self.buf))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn opt_round_trip() {
        for (num, more, szx) in [(0, false, 0), (5, true, 2), (1000, true, 6)] {
            let b = BlockOpt::new(num, more, szx);
            assert_eq!(BlockOpt::from_bytes(&b.to_bytes()), Some(b));
        }
    }

    #[test]
    fn szx_size_mapping() {
        assert_eq!(BlockOpt::szx_for_size(16), 0);
        assert_eq!(BlockOpt::szx_for_size(64), 2);
        assert_eq!(BlockOpt::szx_for_size(1024), 6);
        assert_eq!(BlockOpt::new(0, false, 2).size(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_rejected() {
        let _ = BlockOpt::szx_for_size(100);
    }

    #[test]
    fn reserved_szx_rejected() {
        assert_eq!(BlockOpt::from_bytes(&[0x0F]), None);
    }

    #[test]
    fn slicing() {
        let full: Vec<u8> = (0..100).collect();
        let (b0, more0) = slice_block(&full, BlockOpt::new(0, false, 2)).expect("b0");
        assert_eq!(b0.len(), 64);
        assert!(more0);
        let (b1, more1) = slice_block(&full, BlockOpt::new(1, false, 2)).expect("b1");
        assert_eq!(b1.len(), 36);
        assert!(!more1);
        assert!(slice_block(&full, BlockOpt::new(2, false, 2)).is_none());
        // Empty representation: block 0 exists, empty.
        let (e, m) = slice_block(&[], BlockOpt::new(0, false, 2)).expect("empty");
        assert!(e.is_empty() && !m);
    }

    #[test]
    fn assembler_happy_path() {
        let full: Vec<u8> = (0..150).collect();
        let mut asm = BlockAssembler::new();
        let szx = 2;
        let mut num = 0;
        loop {
            let blk = BlockOpt::new(num, false, szx);
            let (bytes, more) = slice_block(&full, blk).expect("slice");
            match asm.push(BlockOpt::new(num, more, szx), &bytes) {
                BlockProgress::Continue(n) => num = n,
                BlockProgress::Done(got) => {
                    assert_eq!(got, full);
                    break;
                }
                BlockProgress::Mismatch => panic!("mismatch"),
            }
        }
    }

    #[test]
    fn assembler_detects_gap() {
        let mut asm = BlockAssembler::new();
        assert_eq!(
            asm.push(BlockOpt::new(1, true, 2), &[0; 64]),
            BlockProgress::Mismatch
        );
    }

    proptest! {
        #[test]
        fn slice_then_assemble(len in 0usize..3000, szx in 0u8..=6) {
            let full: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut asm = BlockAssembler::new();
            let mut num = 0;
            loop {
                let blk = BlockOpt::new(num, false, szx);
                let Some((bytes, more)) = slice_block(&full, blk) else {
                    prop_assert_eq!(len, 0);
                    break;
                };
                match asm.push(BlockOpt::new(num, more, szx), &bytes) {
                    BlockProgress::Continue(n) => num = n,
                    BlockProgress::Done(got) => {
                        prop_assert_eq!(got, full);
                        break;
                    }
                    BlockProgress::Mismatch => prop_assert!(false, "mismatch"),
                }
            }
        }
    }
}
