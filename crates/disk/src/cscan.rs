//! C-SCAN ordering of a round's block requests.
//!
//! Under C-SCAN the head services requests in ascending cylinder order; on
//! reaching the highest request it returns to the lowest outstanding one
//! and sweeps up again. Within a single round, requests are known up
//! front, so the order is: all requests at or above the head's starting
//! position (ascending), then a wrap, then the rest (ascending). The head
//! therefore "travels across the disk at most twice" — exactly the premise
//! of the paper's Equation 1, which charges `2·t_seek` per round.

use cms_core::DiskId;

/// One block retrieval request for a specific disk in the current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRequest {
    /// Disk the block lives on.
    pub disk: DiskId,
    /// Block number on that disk.
    pub block_no: u64,
}

/// Clears and fills `out` with the C-SCAN service order of `cylinders`
/// starting from `head`: the indices of ascending cylinders ≥ `head`
/// first, then of ascending cylinders < `head`, FIFO among equal
/// cylinders. Reuses `out`'s capacity: this is the per-disk per-round hot
/// path (DESIGN.md §7), and in steady state the buffer reaches the round
/// budget `q` once and never reallocates again.
///
/// The sweep halves are sorted unstably on the composite key
/// `(cylinder, index)` — unique per element, so the result is fully
/// deterministic and identical to a stable sort on the cylinder alone,
/// without the merge-buffer allocation `slice::sort` performs.
// lint: hot
pub fn sweep_order_into(cylinders: &[u32], head: u32, out: &mut Vec<usize>) {
    out.clear();
    out.extend((0..cylinders.len()).filter(|&i| cylinders[i] >= head));
    let split = out.len();
    out.extend((0..cylinders.len()).filter(|&i| cylinders[i] < head));
    out[..split].sort_unstable_by_key(|&i| (cylinders[i], i));
    out[split..].sort_unstable_by_key(|&i| (cylinders[i], i));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_order(cylinders: &[u32], head: u32) -> Vec<usize> {
        let mut out = Vec::new();
        sweep_order_into(cylinders, head, &mut out);
        out
    }

    /// Total head travel (in cylinders) of a C-SCAN pass over `cylinders`
    /// starting at `head`, counting the wrap-around as a seek from the top
    /// of the first sweep to the bottom of the second.
    fn sweep_travel(cylinders: &[u32], head: u32) -> u64 {
        let mut pos = head;
        let mut travel: u64 = 0;
        for i in sweep_order(cylinders, head) {
            let c = cylinders[i];
            travel += u64::from(pos.abs_diff(c));
            pos = c;
        }
        travel
    }

    #[test]
    fn orders_ascending_from_head() {
        let cyl = [50u32, 10, 90, 30, 70];
        let order = sweep_order(&cyl, 40);
        let served: Vec<u32> = order.iter().map(|&i| cyl[i]).collect();
        assert_eq!(served, vec![50, 70, 90, 10, 30]);
    }

    #[test]
    fn head_at_zero_is_one_sweep() {
        let cyl = [5u32, 3, 9, 1];
        let order = sweep_order(&cyl, 0);
        let served: Vec<u32> = order.iter().map(|&i| cyl[i]).collect();
        assert_eq!(served, vec![1, 3, 5, 9]);
    }

    #[test]
    fn empty_and_single_are_trivial() {
        assert!(sweep_order(&[], 100).is_empty());
        assert_eq!(sweep_order(&[42], 100), vec![0]);
    }

    #[test]
    fn equal_cylinders_keep_fifo_order() {
        let cyl = [7u32, 7, 7];
        assert_eq!(sweep_order(&cyl, 0), vec![0, 1, 2]);
        assert_eq!(sweep_order(&cyl, 8), vec![0, 1, 2]);
    }

    #[test]
    fn travel_at_most_two_strokes() {
        // The Equation-1 premise: C-SCAN travel never exceeds two full
        // strokes of the surface.
        let cyl: Vec<u32> = (0..100).map(|i| (i * 37) % 2000).collect();
        for head in [0u32, 500, 1999] {
            let travel = sweep_travel(&cyl, head);
            assert!(
                travel <= 2 * 1999,
                "travel {travel} exceeds two strokes from head {head}"
            );
        }
    }

    #[test]
    fn sweep_order_into_matches_a_stable_sort_and_reuses_capacity() {
        // Pseudo-random cylinder sets with deliberate duplicates, swept
        // from heads on both sides of the data.
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32 % 512
        };
        let mut buf = Vec::new();
        for len in [0usize, 1, 2, 7, 31, 100] {
            let cyl: Vec<u32> = (0..len).map(|_| next()).collect();
            for head in [0u32, 128, 511, 600] {
                // C-SCAN with FIFO ties: cylinders at or past the head
                // first, then the wrapped ones, each ascending, stable.
                let mut expect: Vec<usize> = (0..len).collect();
                expect.sort_by_key(|&i| (cyl[i] < head, cyl[i]));
                sweep_order_into(&cyl, head, &mut buf);
                assert_eq!(buf, expect, "len {len}, head {head}");
            }
        }
        // Steady state: a second fill of the same size must not grow the
        // buffer.
        let cyl: Vec<u32> = (0..64).map(|_| next()).collect();
        sweep_order_into(&cyl, 100, &mut buf);
        let cap = buf.capacity();
        sweep_order_into(&cyl, 300, &mut buf);
        assert_eq!(buf.capacity(), cap, "reused fill must not reallocate");
    }
}
