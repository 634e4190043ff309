//! The disk array: per-disk service state and round-by-round service-time
//! accounting.
//!
//! [`Disk::service_round_with`] executes one service round on one disk: it
//! C-SCAN-orders the round's requests, prices each retrieval under
//! Equation 1, and reports whether the round met its deadline `b / r_p`.
//! The simulator calls this for every disk every round; admission control
//! is supposed to make deadline misses *impossible*, and the simulator
//! asserts exactly that.
//!
//! Which disks are failed, transiently down or slow, and until when, is
//! the simulator's record (DESIGN.md §10). A disk carries only what its
//! serve reads: one down flag it refuses service on, and its service-time
//! multiplier.

use crate::cscan::{sweep_order_into, BlockRequest};
use crate::timing::{cylinder_of, BlockCost};
use cms_core::units::Seconds;
use cms_core::{CmsError, DiskId, DiskParams};

/// One physical disk.
#[derive(Debug, Clone)]
pub struct Disk {
    /// This disk's id (its column in the PGT).
    pub id: DiskId,
    /// Service-time multiplier: 1 for a nominal disk, `k` for a disk
    /// currently serving `k`× slower (thermal recalibration, media
    /// retries). Busy time scales by this factor; admission must shrink
    /// the disk's round budget to compensate.
    pub slow_factor: u32,
    /// Failed or transiently unreachable: the disk refuses service.
    down: bool,
    /// Current head cylinder (persisted across rounds).
    head: u32,
}

/// The array-wide, immutable parameters a disk needs to service a round:
/// the per-block cost and the geometry. `Copy`, so each worker thread in
/// a parallel round can carry its own.
#[derive(Debug, Clone, Copy)]
pub struct ServiceContext {
    cost: BlockCost,
    blocks_per_disk: u64,
}

/// Reusable buffers for [`Disk::service_round_with`]: the cylinder list
/// and the C-SCAN order of one round. One instance per worker (or per
/// disk) turns the service loop allocation-free in steady state — the
/// buffers grow to the round budget `q` once and are reused every round
/// thereafter (DESIGN.md §7).
#[derive(Debug, Clone, Default)]
pub struct ServiceScratch {
    cylinders: Vec<u32>,
    order: Vec<usize>,
}

impl ServiceScratch {
    /// A scratch pre-grown for rounds of up to `budget` requests, so that
    /// even the very first serve — or a later queue-deepening burst, e.g.
    /// rebuild reads raising the high-water mark mid-run — allocates
    /// nothing inside the service loop.
    #[must_use]
    pub fn with_budget(budget: usize) -> Self {
        ServiceScratch {
            cylinders: Vec::with_capacity(budget),
            order: Vec::with_capacity(budget),
        }
    }
}

impl Disk {
    /// Executes one round of requests on this disk, in C-SCAN order, and
    /// accounts the time against this disk's state only — no shared
    /// mutation, so disks can be serviced concurrently. `deadline` is the
    /// round duration `b / r_p`. The working memory lives in `scratch`,
    /// so the call is allocation-free once it has grown to the round
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] if any request addresses a
    /// different disk or a block beyond the disk, and
    /// [`CmsError::InvalidParams`] if the disk is down (it cannot serve;
    /// the caller must reroute to survivors).
    // lint: hot
    pub fn service_round_with(
        &mut self,
        ctx: &ServiceContext,
        requests: &[BlockRequest],
        deadline: Seconds,
        scratch: &mut ServiceScratch,
    ) -> Result<RoundOutcome, CmsError> {
        if self.down {
            return Err(CmsError::invalid_params(format!("{} is down", self.id)));
        }
        scratch.cylinders.clear();
        scratch.cylinders.reserve(requests.len());
        for r in requests {
            if r.disk != self.id {
                return Err(CmsError::out_of_bounds(format!(
                    "request for {} routed to {}",
                    r.disk, self.id
                )));
            }
            if r.block_no >= ctx.blocks_per_disk {
                return Err(CmsError::out_of_bounds(format!(
                    "block {} beyond disk capacity ({} blocks)",
                    r.block_no, ctx.blocks_per_disk
                )));
            }
            scratch.cylinders.push(cylinder_of(r.block_no, ctx.blocks_per_disk));
        }

        sweep_order_into(&scratch.cylinders, self.head, &mut scratch.order);
        let mut busy = 0.0;
        let mut pos = self.head;
        for &i in &scratch.order {
            let c = scratch.cylinders[i];
            busy += ctx.cost.block(pos.abs_diff(c));
            pos = c;
        }
        self.head = pos;
        let busy = busy * f64::from(self.slow_factor.max(1));
        Ok(RoundOutcome { blocks: requests.len() as u32, busy, deadline })
    }
}

/// Outcome of servicing one round on one disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundOutcome {
    /// Number of block retrievals performed.
    pub blocks: u32,
    /// Total busy time for the round (seeks + rotations + settles +
    /// transfers), seconds.
    pub busy: Seconds,
    /// The round deadline `b / r_p`, seconds.
    pub deadline: Seconds,
}

impl RoundOutcome {
    /// Did the disk finish within the round?
    #[must_use]
    pub fn met_deadline(&self) -> bool {
        self.busy <= self.deadline + 1e-9
    }

    /// Utilization of the round (busy / deadline).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.deadline <= 0.0 {
            return f64::INFINITY;
        }
        self.busy / self.deadline
    }
}

/// A homogeneous array of `d` disks.
#[derive(Debug, Clone)]
pub struct DiskArray {
    disks: Vec<Disk>,
    ctx: ServiceContext,
}

impl DiskArray {
    /// Creates an array of `d` in-service disks with the given physical
    /// model and block size.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] for zero disks or a block size
    /// exceeding disk capacity.
    pub fn new(d: u32, params: DiskParams, block_bytes: u64) -> Result<Self, CmsError> {
        params.validate()?;
        if d == 0 {
            return Err(CmsError::invalid_params("array needs at least one disk"));
        }
        if block_bytes == 0 || block_bytes > params.capacity {
            return Err(CmsError::invalid_params(
                "block size must be in 1..=disk capacity",
            ));
        }
        let disks = (0..d)
            .map(|i| Disk { id: DiskId(i), slow_factor: 1, down: false, head: 0 })
            .collect();
        let ctx = ServiceContext {
            cost: BlockCost::new(&params, block_bytes),
            blocks_per_disk: params.capacity / block_bytes,
        };
        Ok(DiskArray { disks, ctx })
    }

    /// Blocks each disk can hold at the configured block size.
    #[must_use]
    pub fn blocks_per_disk(&self) -> u64 {
        self.ctx.blocks_per_disk
    }

    /// Marks `disk` down (it refuses service) or back in service.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] if the disk id is out of range —
    /// an injected fault must never be able to panic the server loop.
    pub fn set_down(&mut self, disk: DiskId, down: bool) -> Result<(), CmsError> {
        self.disk_mut(disk)?.down = down;
        Ok(())
    }

    /// Sets the disk's service-time multiplier (`1` = nominal).
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] if the disk id is out of range,
    /// and [`CmsError::InvalidParams`] for a factor of zero.
    pub fn set_slow_factor(&mut self, disk: DiskId, factor: u32) -> Result<(), CmsError> {
        if factor == 0 {
            return Err(CmsError::invalid_params("slow factor must be >= 1"));
        }
        self.disk_mut(disk)?.slow_factor = factor;
        Ok(())
    }

    fn disk_mut(&mut self, disk: DiskId) -> Result<&mut Disk, CmsError> {
        let n = self.disks.len();
        self.disks.get_mut(disk.idx()).ok_or_else(|| {
            CmsError::out_of_bounds(format!("{disk} out of range: array has {n} disks"))
        })
    }

    /// Splits the array into the shared [`ServiceContext`] and the
    /// per-disk mutable state, so callers can service disjoint disks
    /// concurrently without aliasing `&mut self`. The disks are lent as
    /// the owning `Vec` so a caller may move chunks of them to worker
    /// threads; it must put every disk back, in disk-ID order, before
    /// the array is used again.
    #[must_use]
    pub fn service_parts(&mut self) -> (ServiceContext, &mut Vec<Disk>) {
        (self.ctx, &mut self.disks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_core::units::{kib, mbps, transfer_time};
    use cms_core::ContinuityBudget;

    fn array() -> DiskArray {
        DiskArray::new(4, DiskParams::sigmod96(), kib(256)).unwrap()
    }

    fn reqs(disk: u32, blocks: &[u64]) -> Vec<BlockRequest> {
        blocks
            .iter()
            .map(|&block_no| BlockRequest { disk: DiskId(disk), block_no })
            .collect()
    }

    /// Serves `requests` on `disk` with fresh scratch buffers.
    fn serve(
        a: &mut DiskArray,
        disk: u32,
        requests: &[BlockRequest],
        deadline: Seconds,
    ) -> Result<RoundOutcome, CmsError> {
        let (ctx, disks) = a.service_parts();
        let mut scratch = ServiceScratch::default();
        disks[disk as usize].service_round_with(&ctx, requests, deadline, &mut scratch)
    }

    #[test]
    fn construction_validates() {
        assert!(DiskArray::new(0, DiskParams::sigmod96(), 1024).is_err());
        assert!(DiskArray::new(4, DiskParams::sigmod96(), 0).is_err());
        assert!(DiskArray::new(4, DiskParams::sigmod96(), (2u64 << 30) + 1).is_err());
        let mut a = array();
        assert_eq!(a.blocks_per_disk(), (2u64 << 30) / kib(256));
        assert_eq!(a.service_parts().1.len(), 4);
    }

    #[test]
    fn q_admitted_load_meets_deadline_and_q_plus_one_misses() {
        // The contract between Equation 1 and the execution engine: if we
        // send exactly q requests — even spread over the whole surface —
        // the round must finish in time.
        let budget = ContinuityBudget::solve(&DiskParams::sigmod96(), kib(256), mbps(1.5)).unwrap();
        let mut a = array();
        let span = a.blocks_per_disk();
        let spread = |n: u64| -> Vec<u64> { (0..n).map(|i| i * span / n).collect() };
        let out = serve(&mut a, 0, &reqs(0, &spread(u64::from(budget.q))), budget.round).unwrap();
        assert_eq!(out.blocks, budget.q);
        assert!(
            out.met_deadline(),
            "q = {} admitted blocks must meet the deadline (busy {:.4}s vs {:.4}s)",
            budget.q,
            out.busy,
            out.deadline
        );
        // ... and q+1 full-surface requests miss it: Equation 1 is tight
        // (up to the ≤ 2-stroke seek slack).
        let mut a2 = array();
        let out = serve(&mut a2, 0, &reqs(0, &spread(u64::from(budget.q) + 1)), budget.round)
            .unwrap();
        assert!(!out.met_deadline(), "q+1 must miss the deadline");
    }

    #[test]
    fn service_round_is_the_left_associated_cscan_sum_bit_for_bit() {
        // An independent reference for the one service loop: the linear
        // block → cylinder map, C-SCAN order as a stable sort on
        // (cylinder < head, cylinder), each block's seek + rotation +
        // settle + transfer added left to right, then the slow factor.
        // Three rounds on one disk, so the head carries over, with
        // same-cylinder ties and a wrap-around.
        let p = DiskParams::sigmod96();
        let bpd = p.capacity / kib(256);
        let tx = transfer_time(kib(256), p.transfer_rate);
        let rounds: [&[u64]; 3] = [&[7000, 12, 4096, 13, 8191, 300], &[5000, 100, 6000, 100], &[1]];
        let mut a = array();
        a.set_slow_factor(DiskId(1), 3).unwrap();
        let mut scratch = ServiceScratch::default();
        let mut head = 0u32;
        for blocks in rounds {
            let cyl: Vec<u32> = blocks.iter().map(|&b| (b * 2000 / bpd) as u32).collect();
            let mut order: Vec<usize> = (0..cyl.len()).collect();
            order.sort_by_key(|&i| (cyl[i] < head, cyl[i]));
            let mut busy = 0.0f64;
            for i in order {
                let seek = p.seek_worst * f64::from(head.abs_diff(cyl[i])) / 1999.0;
                busy += ((seek + p.rot_worst) + p.settle) + tx;
                head = cyl[i];
            }
            let expect = busy * 3.0;
            let (ctx, disks) = a.service_parts();
            let out = disks[1].service_round_with(&ctx, &reqs(1, blocks), 10.0, &mut scratch).unwrap();
            assert_eq!(out.busy.to_bits(), expect.to_bits(), "{} vs {expect}", out.busy);
            assert_eq!(out.blocks, blocks.len() as u32);
        }
    }

    #[test]
    fn down_disk_refuses_service() {
        let mut a = array();
        a.set_down(DiskId(2), true).unwrap();
        let err = serve(&mut a, 2, &reqs(2, &[1]), 1.0);
        assert!(matches!(err, Err(CmsError::InvalidParams { .. })), "{err:?}");
        assert!(serve(&mut a, 1, &reqs(1, &[1]), 1.0).is_ok(), "other disks still serve");
        a.set_down(DiskId(2), false).unwrap();
        assert!(serve(&mut a, 2, &reqs(2, &[1]), 1.0).is_ok());
        // Out-of-range ids surface as typed errors, never a panic.
        assert!(matches!(a.set_down(DiskId(99), true), Err(CmsError::OutOfBounds { .. })));
    }

    #[test]
    fn slow_factor_scales_busy_time() {
        let blocks = reqs(0, &(0..8u64).map(|i| i * 1000).collect::<Vec<_>>());
        let mut nominal = array();
        let mut slow = array();
        slow.set_slow_factor(DiskId(0), 3).unwrap();
        let on = serve(&mut nominal, 0, &blocks, 10.0).unwrap();
        let os = serve(&mut slow, 0, &blocks, 10.0).unwrap();
        assert!((os.busy - 3.0 * on.busy).abs() < 1e-9, "{} vs 3x{}", os.busy, on.busy);
        // Restoring the factor restores nominal service.
        let mut fresh = array();
        fresh.set_slow_factor(DiskId(0), 3).unwrap();
        fresh.set_slow_factor(DiskId(0), 1).unwrap();
        assert_eq!(serve(&mut fresh, 0, &blocks, 10.0).unwrap().busy.to_bits(), on.busy.to_bits());
        assert!(matches!(slow.set_slow_factor(DiskId(0), 0), Err(CmsError::InvalidParams { .. })));
        assert!(matches!(slow.set_slow_factor(DiskId(99), 2), Err(CmsError::OutOfBounds { .. })));
    }

    #[test]
    fn misrouted_and_oob_requests_are_rejected() {
        let mut a = array();
        let err = serve(&mut a, 0, &reqs(1, &[0]), 1.0);
        assert!(matches!(err, Err(CmsError::OutOfBounds { .. })));
        let huge = a.blocks_per_disk();
        let err = serve(&mut a, 0, &reqs(0, &[huge]), 1.0);
        assert!(matches!(err, Err(CmsError::OutOfBounds { .. })));
    }

    #[test]
    fn head_position_persists_across_rounds() {
        let mut a = array();
        serve(&mut a, 0, &reqs(0, &[4000]), 10.0).unwrap();
        // Second round over a nearby block should be cheap: the head is
        // already deep into the surface.
        let near = serve(&mut a, 0, &reqs(0, &[4001]), 10.0).unwrap();
        let far = serve(&mut array(), 0, &reqs(0, &[4001]), 10.0).unwrap();
        assert!(near.busy < far.busy, "persisted head must shorten the seek");
    }

    #[test]
    fn empty_round_costs_nothing() {
        let out = serve(&mut array(), 0, &[], 1.0).unwrap();
        assert_eq!(out.blocks, 0);
        assert_eq!(out.busy, 0.0);
        assert!(out.met_deadline());
    }
}
