//! Property-based tests for the single-parity code RS(k, 1): for
//! arbitrary group sizes, block lengths and contents, the parity shard
//! completes the group and any single erasure is recoverable; plus the
//! XOR kernel's algebra.

use cms_parity::{parity_into, Block, ErasureCodec, RsCodec};
use proptest::prelude::*;

/// Pads arbitrary byte vectors to one length.
fn normalize(blocks: Vec<Vec<u8>>, len: usize, pad: u8) -> Vec<Block> {
    blocks
        .into_iter()
        .map(|mut v| {
            v.resize(len, pad);
            Block::from_bytes(v)
        })
        .collect()
}

/// Encodes `data` under RS(k, 1), drops shard `missing` of the full
/// group and reconstructs it; returns `(full group, rebuilt shard)`.
fn erase_and_rebuild(
    data: Vec<Block>,
    missing_sel: prop::sample::Index,
) -> (Vec<Block>, usize, Block) {
    let refs: Vec<&Block> = data.iter().collect();
    let mut codec = RsCodec::new(data.len(), 1).unwrap();
    let parity = codec.encode(&refs).unwrap();
    let mut full = data;
    full.extend(parity);
    let missing = missing_sel.index(full.len());
    let survivors: Vec<(usize, &Block)> =
        full.iter().enumerate().filter(|&(i, _)| i != missing).collect();
    let rebuilt = codec.reconstruct(&survivors, missing).unwrap();
    (full, missing, rebuilt)
}

proptest! {
    #[test]
    fn parity_group_always_verifies(
        blocks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..256), 1..12),
        len in 0usize..256,
    ) {
        // Data plus its parity shard XOR-folds to zero.
        let data = normalize(blocks, len, 0xAB);
        let refs: Vec<&Block> = data.iter().collect();
        let parity = RsCodec::new(data.len(), 1).unwrap().encode(&refs).unwrap();
        let mut folded = Block::default();
        parity_into(&mut folded, data.iter().chain(&parity)).unwrap();
        prop_assert!(folded.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn any_erasure_reconstructs(
        seed in any::<u64>(),
        p in 2usize..10,
        len in 1usize..512,
        missing_sel in any::<prop::sample::Index>(),
    ) {
        let data: Vec<Block> = (0..p - 1)
            .map(|i| Block::synthetic(seed, i as u64, len))
            .collect();
        let (full, missing, rebuilt) = erase_and_rebuild(data, missing_sel);
        prop_assert_eq!(&rebuilt, &full[missing]);
    }

    #[test]
    fn wordwise_xor_equals_bytewise_reference(
        a in prop::collection::vec(any::<u8>(), 0..1024),
        b in prop::collection::vec(any::<u8>(), 0..1024),
        len in 0usize..1024,
    ) {
        // Same arbitrary length for both sides — including 0 and lengths
        // with odd tails that exercise the word loop's remainder path.
        let mut a = a;
        let mut b = b;
        a.resize(len, 0x5C);
        b.resize(len, 0xC5);
        let (a, b) = (Block::from_bytes(a), Block::from_bytes(b));
        let mut fast = a.clone();
        fast ^= &b;
        let mut slow = a;
        slow.xor_bytewise_reference(&b);
        prop_assert_eq!(fast.bytes(), slow.bytes());
    }

    #[test]
    fn encode_fail_reconstruct_roundtrips_real_bytes(
        blocks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..9),
        len in 0usize..300,
        missing_sel in any::<prop::sample::Index>(),
    ) {
        // Arbitrary real contents (not synthetic blocks): encode parity,
        // drop any one group member, reconstruct, compare byte-for-byte.
        let (full, missing, rebuilt) = erase_and_rebuild(normalize(blocks, len, 0x3A), missing_sel);
        prop_assert_eq!(rebuilt.bytes(), full[missing].bytes());
    }

    #[test]
    fn xor_algebra_commutative_associative(
        a in prop::collection::vec(any::<u8>(), 64..65),
        b in prop::collection::vec(any::<u8>(), 64..65),
        c in prop::collection::vec(any::<u8>(), 64..65),
    ) {
        let (a, b, c) = (Block::from_bytes(a), Block::from_bytes(b), Block::from_bytes(c));
        let ab_c = (a.clone() ^ &b) ^ &c;
        let a_bc = a.clone() ^ &(b.clone() ^ &c);
        prop_assert_eq!(ab_c.bytes(), a_bc.bytes());
        let ab = a.clone() ^ &b;
        let ba = b ^ &a;
        prop_assert_eq!(ab.bytes(), ba.bytes());
    }
}
