//! The erasure-codec property battery: GF(256) field axioms, agreement
//! with the independently constructed `cms-bibd` table field, the
//! column normalization that makes the first redundancy shard (and every
//! RS(k, 1) single-erasure decode) a plain XOR fold, and Reed–Solomon
//! round-trips under adversarial erasure sets.

use cms_parity::erasure::{ErasureCodec, ErasureError, RsCodec};
use cms_parity::{gf256, Block};
use proptest::prelude::*;

/// The obviously-correct XOR fold: byte at a time, from a zero block.
fn xor_fold(blocks: &[&Block]) -> Block {
    let mut acc = Block::zeroed(blocks.first().map_or(0, |b| b.len()));
    for b in blocks {
        acc.xor_bytewise_reference(b);
    }
    acc
}

#[test]
fn log_antilog_round_trips_all_255_nonzero_elements() {
    for a in 1..=255u8 {
        let l = gf256::LOG[a as usize] as usize;
        assert_eq!(gf256::EXP[l], a, "exp(log({a})) != {a}");
    }
    // ... and log is a bijection onto 0..255.
    let mut seen = [false; 255];
    for a in 1..=255u8 {
        let l = gf256::LOG[a as usize] as usize;
        assert!(!seen[l], "log({a}) = {l} repeats");
        seen[l] = true;
    }
}

#[test]
fn agrees_with_bibd_table_field_on_add_mul_inv() {
    // The cms-bibd field materializes GF(256) from an exhaustively found
    // irreducible polynomial — possibly a different one than 0x11d, so
    // the two fields agree up to isomorphism, not element-wise. The
    // prime subfield and the polynomial-basis addition, however, are
    // representation-independent: addition is coefficient-wise XOR in
    // both. Verify add element-wise, and verify mul/inv through an
    // explicit isomorphism built by matching generators.
    let f = cms_bibd::Gf::new(256).expect("GF(256) exists");
    assert_eq!(f.characteristic(), 2);
    assert_eq!(f.degree(), 8);
    for a in 0..256u32 {
        for b in 0..256u32 {
            assert_eq!(f.add(a, b), u32::from(gf256::add(a as u8, b as u8)), "add({a}, {b})");
        }
    }

    // Isomorphism: our field is GF(2)[x]/(0x11d), so mapping x to any
    // root g of 0x11d *in the bibd field* and extending by powers is a
    // field isomorphism. Find g by evaluating x⁸+x⁴+x³+x²+1 with their
    // arithmetic, build the map from our antilog table, then verify it
    // transports add (the non-trivial part — their irreducible
    // polynomial differs), mul and inv.
    let is_root = |g: u32| {
        let pow = |e: u32| {
            let mut acc = 1u32;
            for _ in 0..e {
                acc = f.mul(acc, g);
            }
            acc
        };
        f.add(f.add(pow(8), pow(4)), f.add(pow(3), f.add(pow(2), 1))) == 0
    };
    let g = (2..256u32).find(|&g| is_root(g)).expect("0x11d splits in GF(256)");
    let mut iso = [0u32; 256]; // ours -> theirs
    iso[1] = 1;
    let mut theirs = 1u32;
    for i in 0..255usize {
        let ours = gf256::EXP[i] as usize;
        iso[ours] = theirs;
        theirs = f.mul(theirs, g);
    }
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            assert_eq!(
                iso[gf256::add(a, b) as usize],
                f.add(iso[a as usize], iso[b as usize]),
                "add({a}, {b}) does not transport"
            );
            assert_eq!(
                iso[gf256::mul(a, b) as usize],
                f.mul(iso[a as usize], iso[b as usize]),
                "mul({a}, {b}) does not transport"
            );
        }
        if a != 0 {
            assert_eq!(
                iso[gf256::inv(a) as usize],
                f.invert(iso[a as usize]),
                "inv({a}) does not transport"
            );
        }
    }
}

proptest! {
    #[test]
    fn field_axioms_hold_over_random_triples(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        // Commutativity.
        prop_assert_eq!(gf256::add(a, b), gf256::add(b, a));
        prop_assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
        // Associativity.
        prop_assert_eq!(gf256::add(gf256::add(a, b), c), gf256::add(a, gf256::add(b, c)));
        prop_assert_eq!(gf256::mul(gf256::mul(a, b), c), gf256::mul(a, gf256::mul(b, c)));
        // Distributivity.
        prop_assert_eq!(
            gf256::mul(a, gf256::add(b, c)),
            gf256::add(gf256::mul(a, b), gf256::mul(a, c))
        );
        // Identities and inverses.
        prop_assert_eq!(gf256::add(a, 0), a);
        prop_assert_eq!(gf256::mul(a, 1), a);
        prop_assert_eq!(gf256::add(a, a), 0); // characteristic 2
        if a != 0 {
            prop_assert_eq!(gf256::mul(a, gf256::inv(a)), 1);
            if b != 0 {
                prop_assert_eq!(gf256::mul(gf256::div(a, b), b), a);
            }
        }
    }

    #[test]
    fn normalized_rs_is_xor_parity_byte_for_byte(
        seed in any::<u64>(),
        k in 1usize..65,
        m in 1usize..4,
        len in prop_oneof![1 => Just(0usize), 9 => 0usize..300],
    ) {
        let data: Vec<Block> = (0..k).map(|i| Block::synthetic(seed, i as u64, len)).collect();
        let refs: Vec<&Block> = data.iter().collect();

        // Shard k of RS(k, m) is the XOR of the data shards.
        let parity = RsCodec::new(k, m).unwrap().encode(&refs).unwrap();
        prop_assert_eq!(parity[0].bytes(), xor_fold(&refs).bytes());

        // Under RS(k, 1) every single erasure decodes to the XOR of the
        // k survivors, which is the lost shard.
        let mut rs1 = RsCodec::new(k, 1).unwrap();
        prop_assert_eq!(&rs1.encode(&refs).unwrap()[0], &parity[0]);
        let all: Vec<&Block> = refs.iter().copied().chain([&parity[0]]).collect();
        for missing in 0..=k {
            let survivors: Vec<(usize, &Block)> =
                all.iter().copied().enumerate().filter(|&(i, _)| i != missing).collect();
            let got = rs1.reconstruct(&survivors, missing).unwrap();
            let blocks: Vec<&Block> = survivors.iter().map(|&(_, b)| b).collect();
            prop_assert_eq!(got.bytes(), xor_fold(&blocks).bytes(), "k={}, missing {}", k, missing);
            prop_assert_eq!(got.bytes(), all[missing].bytes());
        }
    }

    #[test]
    fn rs_round_trips_any_erasure_set_up_to_m(
        seed in any::<u64>(),
        k in 1usize..9,
        m in 1usize..4,
        len in 0usize..300,
        erasure_seed in any::<u64>(),
    ) {
        let data: Vec<Block> = (0..k).map(|i| Block::synthetic(seed, i as u64, len)).collect();
        let refs: Vec<&Block> = data.iter().collect();
        let mut codec = RsCodec::new(k, m).unwrap();
        let parity = codec.encode(&refs).unwrap();
        let all: Vec<&Block> = data.iter().chain(parity.iter()).collect();

        // A pseudo-random erasure set of size 1..=m out of k + m shards.
        let mut rng = erasure_seed | 1;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let erasures = 1 + (next() as usize) % m;
        let mut erased: Vec<usize> = Vec::new();
        while erased.len() < erasures {
            let e = (next() as usize) % (k + m);
            if !erased.contains(&e) {
                erased.push(e);
            }
        }
        let present: Vec<(usize, &Block)> = all
            .iter()
            .enumerate()
            .filter(|&(i, _)| !erased.contains(&i))
            .map(|(i, &b)| (i, b))
            .collect();
        for &missing in &erased {
            let got = codec.reconstruct(&present, missing).unwrap();
            prop_assert_eq!(
                got.bytes(),
                all[missing].bytes(),
                "(k={}, m={}) erased {:?}, reconstructing {}", k, m, erased, missing
            );
        }
    }

    #[test]
    fn more_than_m_erasures_is_an_error_never_a_panic(
        seed in any::<u64>(),
        k in 2usize..9,
        m in 1usize..4,
        len in 1usize..128,
        extra in 1usize..4,
    ) {
        let data: Vec<Block> = (0..k).map(|i| Block::synthetic(seed, i as u64, len)).collect();
        let refs: Vec<&Block> = data.iter().collect();
        let mut codec = RsCodec::new(k, m).unwrap();
        let parity = codec.encode(&refs).unwrap();
        let all: Vec<&Block> = data.iter().chain(parity.iter()).collect();
        // Erase the first m + extra shards (capped so at least one
        // survivor remains to hand to the decoder).
        let erasures = (m + extra).min(k + m - 1);
        let present: Vec<(usize, &Block)> = all
            .iter()
            .enumerate()
            .skip(erasures)
            .map(|(i, &b)| (i, b))
            .collect();
        if present.len() >= k {
            return Ok(()); // erasures within tolerance after the cap
        }
        let got = codec.reconstruct(&present, 0);
        prop_assert!(
            matches!(got, Err(ErasureError::TooManyErasures { .. })),
            "expected TooManyErasures, got {:?}", got
        );
    }
}
