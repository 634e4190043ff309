//! Fixed-size data blocks with deterministic synthetic content.
//!
//! A [`Block`] is the unit the striping layer places on disks — the
//! paper's stripe unit `b`. For the simulator, block content is a
//! chained SplitMix64 stream seeded by `(clip id, block index)`, so any
//! block can be re-derived for verification without storing the whole
//! clip library in memory. Little-endian word 0 is the SplitMix64
//! finalizer of `seed + γ`, and every later word is the finalizer of the
//! previous word `+ γ`: each output is fed back as the next state, unlike
//! textbook SplitMix64, whose state only advances by γ.

use std::fmt;
use std::ops::{BitXor, BitXorAssign};

/// A fixed-size byte block.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Block {
    data: Vec<u8>,
}

impl Block {
    /// An all-zero block of `len` bytes — the XOR identity.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        Block { data: vec![0; len] }
    }

    /// Wraps raw bytes.
    #[must_use]
    pub fn from_bytes(data: Vec<u8>) -> Self {
        Block { data }
    }

    /// Deterministic synthetic content for block `index` of clip `clip`:
    /// every byte is derived from a splitmix64 stream seeded by
    /// `(clip, index)`. Two calls with equal arguments always produce
    /// identical blocks.
    #[must_use]
    pub fn synthetic(clip: u64, index: u64, len: usize) -> Self {
        let mut block = Block::default();
        block.fill_synthetic(clip, index, len);
        block
    }

    /// Allocation-free [`Self::synthetic`]: regenerates the deterministic
    /// content in place, reusing the existing buffer's capacity
    /// (DESIGN.md §7). Each output word is the state for the next, so the
    /// words form one serial chain of multiplies; DESIGN.md §13 says why
    /// the counter-based textbook stream is not used. The buffer is
    /// reserved to the next multiple of 8 so the whole-word generator
    /// loop never reallocates mid-fill.
    pub fn fill_synthetic(&mut self, clip: u64, index: u64, len: usize) {
        let mut state = clip
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ 0x94D0_49BB_1331_11EB;
        self.data.clear();
        self.data.reserve(len.next_multiple_of(8));
        while self.data.len() < len {
            state = splitmix64(&mut state);
            self.data.extend_from_slice(&state.to_le_bytes());
        }
        self.data.truncate(len);
    }

    /// Replaces this block's content with a copy of `src`, reusing the
    /// existing buffer's capacity.
    pub fn copy_from(&mut self, src: &Block) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Allocation-free [`Self::zeroed`]: resets the block to `len` zero
    /// bytes in place, reusing the existing buffer's capacity.
    pub fn fill_zero(&mut self, len: usize) {
        self.data.clear();
        self.data.resize(len, 0);
    }

    /// Mutable access to the bytes — for the in-crate GF(256) kernels.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Block length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the block empty (zero-length)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read access to the bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// A short checksum for logging/assertions (FNV-1a).
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &self.data {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block[{} B, fnv {:016x}]", self.len(), self.checksum())
    }
}

impl Block {
    /// Byte-at-a-time XOR fold — the obviously-correct reference
    /// implementation. The fast word-wise path in [`BitXorAssign`] is
    /// property-tested for equivalence against this on arbitrary lengths.
    ///
    /// # Panics
    ///
    /// Panics when the blocks differ in length.
    pub fn xor_bytewise_reference(&mut self, rhs: &Block) {
        assert_eq!(self.len(), rhs.len(), "XOR of blocks of unequal length");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a ^= *b;
        }
    }
}

impl BitXorAssign<&Block> for Block {
    /// XOR folds `rhs` into `self`, eight bytes at a time with a byte
    /// tail. On a `b`-byte stripe unit this is the hot loop of every
    /// on-the-fly reconstruction, so it works in `u64` words; the unrolled
    /// remainder keeps arbitrary (odd, even empty) lengths correct.
    fn bitxor_assign(&mut self, rhs: &Block) {
        assert_eq!(self.len(), rhs.len(), "XOR of blocks of unequal length");
        let mut lhs_words = self.data.chunks_exact_mut(8);
        let mut rhs_words = rhs.data.chunks_exact(8);
        for (a, b) in lhs_words.by_ref().zip(rhs_words.by_ref()) {
            // chunks_exact yields 8-byte windows; the fallible conversion
            // keeps this arm panic-free without trusting that invariant.
            if let (Ok(wa), Ok(wb)) = (<[u8; 8]>::try_from(&*a), <[u8; 8]>::try_from(b)) {
                let word = u64::from_ne_bytes(wa) ^ u64::from_ne_bytes(wb);
                a.copy_from_slice(&word.to_ne_bytes());
            }
        }
        for (a, b) in lhs_words.into_remainder().iter_mut().zip(rhs_words.remainder()) {
            *a ^= *b;
        }
    }
}

impl BitXor<&Block> for Block {
    type Output = Block;

    fn bitxor(mut self, rhs: &Block) -> Block {
        self ^= rhs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic() {
        let a = Block::synthetic(7, 42, 4096);
        let b = Block::synthetic(7, 42, 4096);
        assert_eq!(a, b);
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn synthetic_differs_across_clips_and_indices() {
        let a = Block::synthetic(7, 42, 512);
        let b = Block::synthetic(7, 43, 512);
        let c = Block::synthetic(8, 42, 512);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn synthetic_is_the_chained_splitmix64_stream() {
        // Written apart from `splitmix64`: each word is the SplitMix64
        // finalizer (Steele, Lea & Flood, OOPSLA 2014) of the previous
        // word plus γ, starting from the seed.
        fn chained(seed: u64, len: usize) -> Vec<u8> {
            let mut out = Vec::new();
            let mut word = seed;
            while out.len() < len {
                let mut z = word.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                word = z ^ (z >> 31);
                out.extend_from_slice(&word.to_le_bytes());
            }
            out.truncate(len);
            out
        }
        // From seed 0: word 0 is textbook SplitMix64's first output;
        // word 1 is the finalizer of word 0 + γ, where the textbook
        // stream would give 0x6E78_9E6A_A1B9_65F4.
        let words: Vec<u64> = chained(0, 16)
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(words, [0xE220_A839_7B1D_CDAF, 0xA706_DD2F_4D19_7E6F]);
        for (clip, index) in [(0u64, 0u64), (1, 2), (7, 42), (479, 49), (u64::MAX, 3)] {
            let seed = clip
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ 0x94D0_49BB_1331_11EB;
            for len in [1usize, 7, 9, 63, 4096, 4099] {
                assert_eq!(
                    Block::synthetic(clip, index, len).bytes(),
                    chained(seed, len),
                    "clip {clip}, index {index}, len {len}"
                );
            }
        }
    }

    #[test]
    fn synthetic_handles_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 1023] {
            let b = Block::synthetic(1, 2, len);
            assert_eq!(b.len(), len);
        }
    }

    #[test]
    fn xor_is_self_inverse() {
        let a = Block::synthetic(1, 0, 256);
        let b = Block::synthetic(2, 0, 256);
        let x = a.clone() ^ &b;
        let back = x ^ &b;
        assert_eq!(back, a);
    }

    #[test]
    fn zero_is_xor_identity() {
        let a = Block::synthetic(5, 5, 128);
        let z = Block::zeroed(128);
        assert_eq!(a.clone() ^ &z, a);
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn xor_length_mismatch_panics() {
        let mut a = Block::zeroed(16);
        let b = Block::zeroed(8);
        a ^= &b;
    }

    #[test]
    fn wordwise_xor_matches_bytewise_reference() {
        // Lengths straddling the 8-byte word boundary, including empty.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            let a = Block::synthetic(3, 9, len);
            let b = Block::synthetic(4, 11, len);
            let mut fast = a.clone();
            fast ^= &b;
            let mut slow = a.clone();
            slow.xor_bytewise_reference(&b);
            assert_eq!(fast, slow, "len = {len}");
        }
    }

    #[test]
    fn fill_synthetic_matches_synthetic_and_reuses_capacity() {
        let mut b = Block::default();
        for len in [0usize, 1, 7, 8, 9, 1023] {
            b.fill_synthetic(9, 3, len);
            assert_eq!(b, Block::synthetic(9, 3, len), "len = {len}");
        }
        b.fill_synthetic(9, 3, 1024);
        let cap = b.data.capacity();
        b.fill_synthetic(10, 4, 1024);
        assert_eq!(b.data.capacity(), cap, "refill must not reallocate");
        assert_eq!(b, Block::synthetic(10, 4, 1024));
    }

    #[test]
    fn copy_from_replaces_content_in_place() {
        let src = Block::synthetic(1, 2, 64);
        let mut dst = Block::synthetic(3, 4, 128);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        let cap = dst.data.capacity();
        dst.copy_from(&Block::zeroed(32));
        assert_eq!(dst.data.capacity(), cap, "shrinking copy must not reallocate");
    }

    #[test]
    fn debug_shows_length_and_checksum() {
        let s = format!("{:?}", Block::zeroed(32));
        assert!(s.contains("32 B"), "{s}");
    }
}
