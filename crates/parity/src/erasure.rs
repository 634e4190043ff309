//! The [`ErasureCodec`] trait: `k` data shards encode to `m` redundancy
//! shards; any `≤ m` erasures reconstruct from any `k` survivors.
//!
//! One implementation, [`RsCodec`]: a GF(256) Reed–Solomon code over a
//! column-normalized Cauchy encode matrix. Every square submatrix of a
//! Cauchy matrix is invertible, so the code is MDS (any `k` of the
//! `k + m` shards determine the rest); scaling each column so the first
//! row is all ones keeps that property and makes redundancy shard `k` the
//! plain XOR of the data. RS(k, 1) is therefore the paper's single XOR
//! parity byte for byte, and its single-erasure decodes run on
//! coefficient-1 (pure XOR) kernels. Decode solves the survivor system by
//! Gauss–Jordan elimination over GF(256).
//!
//! Shard indices are `0..k` for data and `k..k + m` for redundancy,
//! matching the layout crate's group order (data members first, then the
//! group's parity locations).
//!
//! [`parity_into`] is the free XOR fold: the reference the codec's first
//! redundancy row is pinned against.

use crate::block::Block;
use crate::gf256;
use std::fmt;

/// Errors from erasure-codec operations. Every misuse — including more
/// erasures than the code tolerates — surfaces here; codec methods never
/// panic on adversarial shard sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasureError {
    /// More shards are missing than the code can tolerate (fewer than `k`
    /// distinct survivors were supplied).
    TooManyErasures {
        /// Distinct survivors supplied.
        survivors: usize,
        /// Data shards `k` required to decode.
        needed: usize,
    },
    /// Supplied blocks have differing lengths.
    LengthMismatch {
        /// Length of the first block.
        expected: usize,
        /// The offending length.
        got: usize,
    },
    /// A shard index is out of `0..k + m`, duplicated, or the missing
    /// shard also appears among the survivors.
    BadShardIndex {
        /// The offending index.
        index: usize,
        /// Total shards `k + m`.
        shards: usize,
    },
    /// The shard-count geometry is invalid (`k = 0`, `m = 0`, or
    /// `k + m > 256`, the GF(256) limit), or an output slice has the
    /// wrong length.
    BadGeometry {
        /// Human-readable description.
        reason: &'static str,
    },
}

impl fmt::Display for ErasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErasureError::TooManyErasures { survivors, needed } => {
                write!(f, "unrecoverable: {survivors} survivors, {needed} needed")
            }
            ErasureError::LengthMismatch { expected, got } => {
                write!(f, "shard length mismatch: expected {expected}, got {got}")
            }
            ErasureError::BadShardIndex { index, shards } => {
                write!(f, "bad shard index {index} (group has {shards} shards)")
            }
            ErasureError::BadGeometry { reason } => write!(f, "bad codec geometry: {reason}"),
        }
    }
}

impl std::error::Error for ErasureError {}

/// An erasure code over `k` data and `m` redundancy shards.
///
/// Methods take `&mut self` so implementations can reuse internal decode
/// scratch (matrix, coefficient vectors) across calls — the hot variants
/// are allocation-free after first use.
pub trait ErasureCodec {
    /// Data shards `k`.
    fn data_shards(&self) -> usize;

    /// Redundancy shards `m` (the erasure tolerance).
    fn parity_shards(&self) -> usize;

    /// Encodes `k` data shards into `m` redundancy shards, writing into
    /// `parity` (which must hold exactly `m` blocks; their buffers are
    /// reused).
    ///
    /// # Errors
    ///
    /// [`ErasureError`] on shard-count or length mismatch.
    fn encode_into(&mut self, data: &[&Block], parity: &mut [Block]) -> Result<(), ErasureError>;

    /// Reconstructs the shard at index `missing` (`0..k + m`) from any
    /// `≥ k` surviving `(shard index, block)` pairs, writing into `out`
    /// (buffer reused).
    ///
    /// # Errors
    ///
    /// [`ErasureError::TooManyErasures`] when fewer than `k` distinct
    /// survivors are supplied; other variants on index/length misuse.
    /// Never panics.
    fn reconstruct_into(
        &mut self,
        present: &[(usize, &Block)],
        missing: usize,
        out: &mut Block,
    ) -> Result<(), ErasureError>;

    /// Allocating convenience wrapper over [`ErasureCodec::encode_into`].
    ///
    /// # Errors
    ///
    /// As for [`ErasureCodec::encode_into`].
    fn encode(&mut self, data: &[&Block]) -> Result<Vec<Block>, ErasureError> {
        let mut parity = vec![Block::default(); self.parity_shards()];
        self.encode_into(data, &mut parity)?;
        Ok(parity)
    }

    /// Allocating convenience wrapper over
    /// [`ErasureCodec::reconstruct_into`].
    ///
    /// # Errors
    ///
    /// As for [`ErasureCodec::reconstruct_into`].
    fn reconstruct(
        &mut self,
        present: &[(usize, &Block)],
        missing: usize,
    ) -> Result<Block, ErasureError> {
        let mut out = Block::default();
        self.reconstruct_into(present, missing, &mut out)?;
        Ok(out)
    }
}

/// XOR-folds `blocks` into `out`, reusing `out`'s buffer capacity
/// (DESIGN.md §7): the paper's single parity, and the reference the
/// codec's first redundancy row equals. The first block is copied in
/// rather than XORed against a fresh zero block, so the fold touches no
/// allocator and makes one fewer pass over the stripe unit.
///
/// # Errors
///
/// [`ErasureError::BadGeometry`] if the iterator is empty,
/// [`ErasureError::LengthMismatch`] if lengths differ. `out` is left in
/// an unspecified (but valid) state on error.
pub fn parity_into<'a, I>(out: &mut Block, blocks: I) -> Result<(), ErasureError>
where
    I: IntoIterator<Item = &'a Block>,
{
    let mut blocks = blocks.into_iter();
    let first = blocks.next().ok_or(ErasureError::BadGeometry { reason: "no blocks to fold" })?;
    out.copy_from(first);
    for block in blocks {
        if block.len() != first.len() {
            return Err(ErasureError::LengthMismatch { expected: first.len(), got: block.len() });
        }
        *out ^= block;
    }
    Ok(())
}

/// The common length of `blocks` (0 for none).
fn common_len<'a>(mut blocks: impl Iterator<Item = &'a Block>) -> Result<usize, ErasureError> {
    let Some(first) = blocks.next() else { return Ok(0) };
    let len = first.len();
    match blocks.find(|b| b.len() != len) {
        Some(b) => Err(ErasureError::LengthMismatch { expected: len, got: b.len() }),
        None => Ok(len),
    }
}

/// `out = Σ cⱼ · srcⱼ` over GF(256) for equal-length sources of `len`
/// bytes. The sum starts from a copy of the first coefficient-1 source
/// when there is one (every row of an XOR-parity code), which saves the
/// zero-fill pass.
// lint: hot
fn combine<'a>(out: &mut Block, len: usize, terms: impl Iterator<Item = (u8, &'a Block)> + Clone) {
    let seed = terms.clone().position(|(c, _)| c == 1);
    match seed.and_then(|at| terms.clone().nth(at)) {
        Some((_, src)) => out.copy_from(src),
        None => out.fill_zero(len),
    }
    for (j, (c, src)) in terms.enumerate() {
        if Some(j) != seed {
            gf256::mul_slice_xor(out.bytes_mut(), src.bytes(), c);
        }
    }
}

/// GF(256) Reed–Solomon over a column-normalized Cauchy encode matrix.
/// Data shards are indexed by field points `y_c = c` (`c < k`),
/// redundancy shards by `x_r = k + r`, and
/// `cauchy[r][c] = (x_0 + y_c) / (x_r + y_c)`: the Cauchy entry
/// `(x_r + y_c)⁻¹` with column `c` scaled by `(x_0 + y_c)`. Distinct
/// points keep every square submatrix of the Cauchy matrix invertible,
/// and nonzero column scaling preserves that (Plank & Xu, "Optimizing
/// Cauchy Reed-Solomon Codes", NCA 2006), so any `k` survivors decode
/// any shard. Row 0 is all ones: redundancy shard `k` is the XOR of the
/// data, so RS(k, 1) is the paper's parity.
#[derive(Debug, Clone)]
pub struct RsCodec {
    k: usize,
    m: usize,
    /// `m × k` encode matrix, row-major; row 0 is all ones.
    cauchy: Vec<u8>,
    /// Decode scratch: `k × 2k` augmented matrix `[M | I]`.
    mat: Vec<u8>,
    /// Decode scratch: the `(position, shard index)` pairs of the
    /// survivors chosen for the solve, in enumeration order.
    sel: Vec<(usize, usize)>,
    /// Decode scratch: the coefficient of each chosen survivor in the
    /// reconstruction.
    coeff: Vec<u8>,
}

impl RsCodec {
    /// A Reed–Solomon code over `k ≥ 1` data and `m ≥ 1` redundancy
    /// shards with `k + m ≤ 256`.
    ///
    /// # Errors
    ///
    /// [`ErasureError::BadGeometry`] outside those bounds.
    pub fn new(k: usize, m: usize) -> Result<Self, ErasureError> {
        if k == 0 || m == 0 {
            return Err(ErasureError::BadGeometry { reason: "k and m must be >= 1" });
        }
        if k + m > 256 {
            return Err(ErasureError::BadGeometry { reason: "k + m must be <= 256" });
        }
        // lint: allow(P003) one-time codec construction; callers cache the codec across rounds
        let mut cauchy = vec![0u8; m * k];
        for r in 0..m {
            for c in 0..k {
                // x_r = k + r and y_c = c are distinct in GF(256) since
                // k + m ≤ 256, so both sums (XORs of distinct values) are
                // nonzero; for r = 0 the quotient is 1.
                cauchy[r * k + c] = gf256::div(k as u8 ^ c as u8, (k + r) as u8 ^ c as u8);
            }
        }
        Ok(RsCodec {
            k,
            m,
            cauchy,
            // lint: allow(P003) one-time codec construction; callers cache the codec across rounds
            mat: vec![0u8; k * 2 * k],
            sel: Vec::with_capacity(k),
            // lint: allow(P003) one-time codec construction; callers cache the codec across rounds
            coeff: vec![0u8; k],
        })
    }

    /// Writes the `m` redundancy shards of `data` (exactly `k` blocks)
    /// into `parity` (exactly `m` blocks).
    fn encode_from<'a>(
        &self,
        data: impl Iterator<Item = &'a Block> + Clone,
        parity: &mut [Block],
    ) -> Result<(), ErasureError> {
        let len = common_len(data.clone())?;
        for (row, p) in self.cauchy.chunks_exact(self.k).zip(parity) {
            combine(p, len, row.iter().copied().zip(data.clone()));
        }
        Ok(())
    }

    /// Reconstructs shard `missing` into `out` from the first `k`
    /// distinct survivors among the enumerated shard `indices`;
    /// `shard(position, index)` yields the survivor's block.
    fn decode<'a>(
        &mut self,
        indices: impl Iterator<Item = usize>,
        missing: usize,
        shard: impl Fn(usize, usize) -> &'a Block,
        out: &mut Block,
    ) -> Result<(), ErasureError> {
        self.solve_coefficients(indices, missing)?;
        let terms =
            self.coeff.iter().copied().zip(self.sel.iter().map(|&(pos, idx)| shard(pos, idx)));
        let len = common_len(terms.clone().map(|(_, b)| b))?;
        combine(out, len, terms);
        Ok(())
    }

    /// Solves for the reconstruction coefficients of `missing` over the
    /// first `k` distinct survivor shard `indices`, leaving the chosen
    /// `(position, shard index)` order in `self.sel` and the per-survivor
    /// coefficients in `self.coeff`.
    fn solve_coefficients(
        &mut self,
        indices: impl Iterator<Item = usize>,
        missing: usize,
    ) -> Result<(), ErasureError> {
        let (k, shards) = (self.k, self.k + self.m);
        if missing >= shards {
            return Err(ErasureError::BadShardIndex { index: missing, shards });
        }
        self.sel.clear();
        let mut seen = [false; 257];
        for (pos, idx) in indices.enumerate() {
            if idx >= shards || idx == missing {
                return Err(ErasureError::BadShardIndex { index: idx, shards });
            }
            if !seen[idx] && self.sel.len() < k {
                seen[idx] = true;
                self.sel.push((pos, idx));
            }
        }
        if self.sel.len() < k {
            return Err(ErasureError::TooManyErasures { survivors: self.sel.len(), needed: k });
        }

        // Build the augmented system [M | I]: row j expresses survivor j
        // as a linear combination of the data shards.
        let width = 2 * k;
        self.mat.iter_mut().for_each(|x| *x = 0);
        for (j, &(_, idx)) in self.sel.iter().enumerate() {
            let row = &mut self.mat[j * width..(j + 1) * width];
            if idx < k {
                row[idx] = 1;
            } else {
                row[..k].copy_from_slice(&self.cauchy[(idx - k) * k..(idx - k + 1) * k]);
            }
            row[k + j] = 1;
        }

        // Gauss–Jordan over GF(256): reduce [M | I] to [I | M⁻¹].
        for col in 0..k {
            let Some(pivot) = (col..k).find(|&r| self.mat[r * width + col] != 0) else {
                // Unreachable for a Cauchy system with distinct indices,
                // but a typed error beats a panic on adversarial input.
                return Err(ErasureError::BadGeometry { reason: "singular survivor system" });
            };
            if pivot != col {
                for x in 0..width {
                    self.mat.swap(pivot * width + x, col * width + x);
                }
            }
            let inv_p = gf256::inv(self.mat[col * width + col]);
            for x in 0..width {
                self.mat[col * width + x] = gf256::mul(self.mat[col * width + x], inv_p);
            }
            for r in 0..k {
                if r == col {
                    continue;
                }
                let factor = self.mat[r * width + col];
                if factor == 0 {
                    continue;
                }
                for x in 0..width {
                    let v = gf256::mul(factor, self.mat[col * width + x]);
                    self.mat[r * width + x] ^= v;
                }
            }
        }

        // Coefficients of `missing` over the chosen survivors: row
        // `missing` of M⁻¹ for a data shard; for a redundancy shard,
        // its Cauchy row folded through M⁻¹.
        if missing < k {
            for j in 0..k {
                self.coeff[j] = self.mat[missing * width + k + j];
            }
        } else {
            let crow = &self.cauchy[(missing - k) * k..(missing - k + 1) * k];
            for j in 0..k {
                let mut acc = 0u8;
                for (c, &w) in crow.iter().enumerate() {
                    acc ^= gf256::mul(w, self.mat[c * width + k + j]);
                }
                self.coeff[j] = acc;
            }
        }
        Ok(())
    }
}

impl ErasureCodec for RsCodec {
    fn data_shards(&self) -> usize {
        self.k
    }

    fn parity_shards(&self) -> usize {
        self.m
    }

    fn encode_into(&mut self, data: &[&Block], parity: &mut [Block]) -> Result<(), ErasureError> {
        if data.len() != self.k {
            return Err(ErasureError::BadGeometry { reason: "data shard count != k" });
        }
        if parity.len() != self.m {
            return Err(ErasureError::BadGeometry { reason: "parity shard count != m" });
        }
        self.encode_from(data.iter().copied(), parity)
    }

    fn reconstruct_into(
        &mut self,
        present: &[(usize, &Block)],
        missing: usize,
        out: &mut Block,
    ) -> Result<(), ErasureError> {
        let indices = present.iter().map(|&(idx, _)| idx);
        self.decode(indices, missing, |pos, _| present[pos].1, out)
    }
}

impl RsCodec {
    /// [`ErasureCodec::encode_into`] over one contiguous `k + m` shard
    /// slice (data first, then redundancy, buffers reused). Lets callers
    /// that pool all shards in a single `Vec<Block>` encode without
    /// building a `&[&Block]` table — fully allocation-free.
    ///
    /// # Errors
    ///
    /// [`ErasureError`] on slice-length or shard-length mismatch.
    pub fn encode_within(&mut self, shards: &mut [Block]) -> Result<(), ErasureError> {
        if shards.len() != self.k + self.m {
            return Err(ErasureError::BadGeometry { reason: "shard slice length != k + m" });
        }
        let (data, parity) = shards.split_at_mut(self.k);
        self.encode_from(data.iter(), parity)
    }

    /// [`ErasureCodec::reconstruct_into`] over one contiguous `k + m`
    /// shard slice: rebuilds shard `missing` from the other entries (the
    /// content at `shards[missing]` is ignored). The allocation-free twin
    /// of the pair-based path for callers that pool all shards.
    ///
    /// # Errors
    ///
    /// As for [`ErasureCodec::reconstruct_into`], plus
    /// [`ErasureError::BadGeometry`] on a slice-length mismatch.
    pub fn reconstruct_within(
        &mut self,
        shards: &[Block],
        missing: usize,
        out: &mut Block,
    ) -> Result<(), ErasureError> {
        if shards.len() != self.k + self.m {
            return Err(ErasureError::BadGeometry { reason: "shard slice length != k + m" });
        }
        let indices = (0..shards.len()).filter(|&i| i != missing);
        self.decode(indices, missing, |_, idx| &shards[idx], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(k: usize, len: usize) -> Vec<Block> {
        (0..k).map(|i| Block::synthetic(77, i as u64, len)).collect()
    }

    #[test]
    fn first_redundancy_row_is_all_ones_for_every_geometry() {
        for (k, m) in [(1usize, 1usize), (3, 1), (3, 3), (64, 3), (200, 56)] {
            let codec = RsCodec::new(k, m).unwrap();
            assert!(codec.cauchy[..k].iter().all(|&c| c == 1), "(k={k}, m={m})");
            assert!(codec.cauchy.iter().all(|&c| c != 0), "(k={k}, m={m}) zero entry");
        }
    }

    #[test]
    fn first_redundancy_shard_equals_the_xor_fold() {
        for (k, m) in [(1usize, 1usize), (2, 1), (3, 2), (7, 3)] {
            let data = shards(k, 513);
            let refs: Vec<&Block> = data.iter().collect();
            let mut xor = Block::default();
            parity_into(&mut xor, data.iter()).unwrap();
            let encoded = RsCodec::new(k, m).unwrap().encode(&refs).unwrap();
            assert_eq!(encoded.len(), m);
            assert_eq!(encoded[0], xor, "(k={k}, m={m})");
        }
    }

    #[test]
    fn parity_into_reuses_capacity_and_reports_typed_errors() {
        let data = shards(6, 768);
        let mut out = Block::synthetic(0, 0, 768);
        parity_into(&mut out, data.iter()).unwrap();
        let mut slow = data[0].clone();
        data[1..].iter().for_each(|b| slow.xor_bytewise_reference(b));
        assert_eq!(out, slow);
        // p = 2 mirroring: the parity of one block is the block itself.
        parity_into(&mut out, data[..1].iter()).unwrap();
        assert_eq!(out, data[0]);
        assert!(matches!(
            parity_into(&mut out, std::iter::empty()),
            Err(ErasureError::BadGeometry { .. })
        ));
        let (a, b) = (Block::zeroed(8), Block::zeroed(16));
        assert!(matches!(
            parity_into(&mut out, [&a, &b]),
            Err(ErasureError::LengthMismatch { expected: 8, got: 16 })
        ));
    }

    #[test]
    fn rs_roundtrips_every_single_erasure() {
        for (k, m) in [(1usize, 1usize), (2, 2), (3, 2), (5, 3), (8, 1)] {
            let data = shards(k, 256);
            let refs: Vec<&Block> = data.iter().collect();
            let mut codec = RsCodec::new(k, m).unwrap();
            let parity = codec.encode(&refs).unwrap();
            let all: Vec<&Block> = data.iter().chain(parity.iter()).collect();
            for missing in 0..k + m {
                let present: Vec<(usize, &Block)> = all
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != missing)
                    .map(|(i, &b)| (i, b))
                    .collect();
                let got = codec.reconstruct(&present, missing).unwrap();
                assert_eq!(&got, all[missing], "(k={k}, m={m}) missing {missing}");
            }
        }
    }

    #[test]
    fn rs_m1_single_erasures_decode_with_unit_coefficients() {
        // RS(k, 1) is XOR parity: every single-erasure decode solves to
        // all-ones coefficients, so it runs on the XOR arm of the kernel.
        let k = 4;
        let data = shards(k, 128);
        let refs: Vec<&Block> = data.iter().collect();
        let mut rs = RsCodec::new(k, 1).unwrap();
        let parity = rs.encode(&refs).unwrap();
        let all: Vec<&Block> = data.iter().chain(parity.iter()).collect();
        for missing in 0..=k {
            let present: Vec<(usize, &Block)> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != missing)
                .map(|(i, &b)| (i, b))
                .collect();
            let got = rs.reconstruct(&present, missing).unwrap();
            assert_eq!(&got, all[missing], "missing {missing}");
            assert!(rs.coeff.iter().all(|&c| c == 1), "missing {missing}: {:?}", rs.coeff);
        }
    }

    #[test]
    fn too_many_erasures_is_a_typed_error() {
        let (k, m) = (4usize, 2usize);
        let data = shards(k, 64);
        let refs: Vec<&Block> = data.iter().collect();
        let mut codec = RsCodec::new(k, m).unwrap();
        let parity = codec.encode(&refs).unwrap();
        let all: Vec<&Block> = data.iter().chain(parity.iter()).collect();
        // Erase m + 1 = 3 shards: only k − 1 survivors remain.
        let present: Vec<(usize, &Block)> =
            all.iter().enumerate().skip(3).map(|(i, &b)| (i, b)).collect();
        assert!(matches!(
            codec.reconstruct(&present, 0),
            Err(ErasureError::TooManyErasures { survivors: 3, needed: 4 })
        ));
    }

    #[test]
    fn bad_indices_are_typed_errors() {
        let mut codec = RsCodec::new(2, 2).unwrap();
        let b = Block::zeroed(16);
        // Out-of-range survivor index.
        assert!(matches!(
            codec.reconstruct(&[(9, &b), (1, &b)], 0),
            Err(ErasureError::BadShardIndex { index: 9, shards: 4 })
        ));
        // Survivor claiming the missing slot.
        assert!(matches!(
            codec.reconstruct(&[(0, &b), (1, &b)], 0),
            Err(ErasureError::BadShardIndex { index: 0, shards: 4 })
        ));
        // Out-of-range missing index.
        assert!(matches!(
            codec.reconstruct(&[(0, &b), (1, &b)], 7),
            Err(ErasureError::BadShardIndex { index: 7, shards: 4 })
        ));
    }

    #[test]
    fn geometry_limits() {
        assert!(RsCodec::new(0, 1).is_err());
        assert!(RsCodec::new(1, 0).is_err());
        assert!(RsCodec::new(200, 57).is_err());
        assert!(RsCodec::new(200, 56).is_ok());
    }

    #[test]
    fn within_variants_match_the_ref_based_paths() {
        for (k, m) in [(2usize, 2usize), (3, 2), (5, 3), (6, 1)] {
            let data = shards(k, 384);
            let refs: Vec<&Block> = data.iter().collect();
            let mut codec = RsCodec::new(k, m).unwrap();
            let parity = codec.encode(&refs).unwrap();
            // Contiguous encode agrees with the ref-based encode.
            let mut pool: Vec<Block> = data.iter().cloned().chain(parity.iter().cloned()).collect();
            pool[k..].iter_mut().for_each(|b| b.fill_zero(384));
            codec.encode_within(&mut pool).unwrap();
            assert_eq!(&pool[k..], &parity[..], "(k={k}, m={m}) encode");
            // Contiguous reconstruct rebuilds every shard, ignoring the
            // garbage left at the missing slot.
            for missing in 0..k + m {
                let mut scratched = pool.clone();
                scratched[missing].fill_synthetic(999, 999, 384);
                let mut out = Block::default();
                codec.reconstruct_within(&scratched, missing, &mut out).unwrap();
                assert_eq!(out, pool[missing], "(k={k}, m={m}) missing {missing}");
            }
            // Slice-length misuse is a typed error, not a panic.
            assert!(matches!(
                codec.reconstruct_within(&pool[..k], 0, &mut Block::default()),
                Err(ErasureError::BadGeometry { .. })
            ));
        }
    }

    #[test]
    fn encode_into_reuses_buffers() {
        let (k, m) = (3usize, 2usize);
        let data = shards(k, 512);
        let refs: Vec<&Block> = data.iter().collect();
        let mut codec = RsCodec::new(k, m).unwrap();
        let mut parity = vec![Block::zeroed(512); m];
        codec.encode_into(&refs, &mut parity).unwrap();
        let expect = codec.encode(&refs).unwrap();
        assert_eq!(parity, expect);
    }
}
