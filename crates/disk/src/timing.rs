//! Equation 1's disk timing.
//!
//! The admission-control math of the paper is deliberately *worst case*
//! (Section 3, Equation 1): every block retrieval is charged a full
//! rotational latency, a settle and an inner-track transfer, and each
//! C-SCAN round pays at most two full-stroke seeks. [`BlockCost`] prices
//! one retrieval that way. Its seek is linear in the cylinders travelled,
//! calibrated so a full stroke costs `t_seek`: C-SCAN travels at most two
//! strokes per round, so the summed per-block seeks never exceed the
//! `2·t_seek` the admission math budgets.

use cms_core::units::{transfer_time, Seconds};
use cms_core::DiskParams;

/// Cylinders of the nominal surface that block numbers map onto.
pub(crate) const CYLINDERS: u32 = 2000;

/// The Equation-1 cost of one block retrieval on a given disk model and
/// block size. The transfer time is computed once, at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BlockCost {
    seek_worst: Seconds,
    rot_worst: Seconds,
    settle: Seconds,
    transfer: Seconds,
}

impl BlockCost {
    /// Prices `block_bytes`-sized retrievals on a disk with `params`.
    #[must_use]
    pub(crate) fn new(params: &DiskParams, block_bytes: u64) -> Self {
        BlockCost {
            seek_worst: params.seek_worst,
            rot_worst: params.rot_worst,
            settle: params.settle,
            transfer: transfer_time(block_bytes, params.transfer_rate),
        }
    }

    /// Seek time for a move of `distance` cylinders: linear, with a full
    /// stroke (`CYLINDERS − 1`) costing `t_seek`.
    #[must_use]
    #[inline]
    pub(crate) fn seek(&self, distance: u32) -> Seconds {
        self.seek_worst * f64::from(distance) / f64::from(CYLINDERS - 1)
    }

    /// Time to retrieve one block after moving the head `distance`
    /// cylinders: seek + rotation + settle + transfer, added left to
    /// right. The service loop adds this per block, so the association
    /// fixes the bits of every busy time the simulator records.
    #[must_use]
    #[inline]
    pub(crate) fn block(&self, distance: u32) -> Seconds {
        self.seek(distance) + self.rot_worst + self.settle + self.transfer
    }
}

/// Maps a block number to a cylinder, assuming blocks are laid out
/// linearly across the surface. Block numbers past the disk wrap.
#[must_use]
pub(crate) fn cylinder_of(block_no: u64, blocks_per_disk: u64) -> u32 {
    if blocks_per_disk == 0 {
        return 0;
    }
    let idx = block_no % blocks_per_disk;
    ((idx * u64::from(CYLINDERS)) / blocks_per_disk) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_is_linear_in_travel() {
        let p = DiskParams::sigmod96();
        let cost = BlockCost::new(&p, 256 * 1024);
        assert_eq!(cost.seek(0), 0.0);
        assert!((cost.seek(1999) - p.seek_worst).abs() < 1e-12);
        // Linearity means a C-SCAN round's summed seeks stay within the
        // 2·t_seek budget of Equation 1: two strokes in pieces cost the
        // same as two strokes whole.
        let half = cost.seek(1000) + cost.seek(999);
        assert!((half - p.seek_worst).abs() < 1e-9);
    }

    #[test]
    fn block_cost_components_add_up() {
        let p = DiskParams::sigmod96();
        let t = BlockCost::new(&p, 256 * 1024).block(1999);
        let expect = p.seek_worst + p.rot_worst + p.settle + transfer_time(256 * 1024, p.transfer_rate);
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn cylinder_mapping_spans_surface() {
        let bpd = 8192u64;
        assert_eq!(cylinder_of(0, bpd), 0);
        let last = cylinder_of(bpd - 1, bpd);
        assert!(last >= CYLINDERS - 2, "last block near last cylinder, got {last}");
        // Wraps for out-of-range block numbers rather than panicking.
        assert_eq!(cylinder_of(bpd, bpd), 0);
        assert_eq!(cylinder_of(5, 0), 0);
    }
}
