//! # cms-parity — erasure coding over real block data
//!
//! The paper treats parity as a given ("we assume that the cost of
//! reconstructing the data block by xor'ing the blocks in its parity group
//! is negligible", Section 3, footnote 1). To make the reproduction
//! end-to-end verifiable, this crate implements the actual codec over
//! real byte buffers: one GF(256) Reed–Solomon code, [`RsCodec`], whose
//! first redundancy shard is the paper's XOR parity, so RS(k, 1) is the
//! single-parity code byte for byte and RS(k, m) tolerates `m` erasures.
//!
//! The simulator fills clip blocks with seeded pseudo-random content and
//! uses this codec to check — byte for byte — that the data handed to a
//! client after a disk failure is identical to what the failed disk would
//! have delivered.
//!
//! ```
//! use cms_parity::{Block, ErasureCodec, RsCodec};
//!
//! let a = Block::synthetic(1, 0, 4096);
//! let b = Block::synthetic(1, 1, 4096);
//! let mut codec = RsCodec::new(2, 1).unwrap();
//! let parity = codec.encode(&[&a, &b]).unwrap();
//! assert_eq!(parity[0], a.clone() ^ &b); // shard k is the XOR parity
//!
//! // Disk holding `a` (shard 0) fails: rebuild it from the survivors.
//! let rebuilt = codec.reconstruct(&[(1, &b), (2, &parity[0])], 0).unwrap();
//! assert_eq!(rebuilt, a);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod block;
pub mod erasure;
pub mod gf256;

pub use block::Block;
pub use erasure::{parity_into, ErasureCodec, ErasureError, RsCodec};
