//! The disk array: per-disk health state, failure injection, and
//! round-by-round service-time accounting.
//!
//! [`DiskArray::service_round`] executes one service round on one disk: it
//! C-SCAN-orders the round's requests, prices each retrieval under the
//! configured [`TimingModel`], and reports whether the round met its
//! deadline `b / r_p`. The simulator calls this for every disk every
//! round; admission control is supposed to make deadline misses
//! *impossible*, and the simulator asserts exactly that.

use crate::cscan::{sweep_order_into, BlockRequest};
use crate::timing::{SeekModel, TimingModel};
use cms_core::units::Seconds;
use cms_core::{CmsError, DiskId, DiskParams};

/// Health state of one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskStatus {
    /// Operating normally.
    Healthy,
    /// Failed; all reads to it must be served by reconstruction.
    Failed,
    /// Temporarily unreachable (controller reset, cable blip): refuses
    /// service exactly like [`DiskStatus::Failed`], but the platters are
    /// intact — when the window ends the disk returns to service with
    /// its data, so no rebuild is triggered.
    Transient,
}

/// One physical disk.
#[derive(Debug, Clone)]
pub struct Disk {
    /// This disk's id (its column in the PGT).
    pub id: DiskId,
    /// Health state.
    pub status: DiskStatus,
    /// Service-time multiplier: 1 for a nominal disk, `k` for a disk
    /// currently serving `k`× slower (thermal recalibration, media
    /// retries). Busy time scales by this factor; admission must shrink
    /// the disk's round budget to compensate.
    pub slow_factor: u32,
    /// Current head cylinder (persisted across rounds).
    head: u32,
    /// Cumulative busy time, seconds.
    busy_total: Seconds,
    /// Number of blocks served over the disk's lifetime.
    blocks_served: u64,
}

/// The array-wide, immutable parameters a disk needs to service a round:
/// physical model, timing model and geometry. `Copy`, so each worker
/// thread in a parallel round can carry its own.
#[derive(Debug, Clone, Copy)]
pub struct ServiceContext {
    params: DiskParams,
    timing: TimingModel,
    block_bytes: u64,
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
    /// mutation, so disks can be serviced concurrently.
    /// `deadline` is the round duration `b / r_p`.
    ///
    /// Allocates working buffers per call; the engine's hot path uses
    /// [`Disk::service_round_with`] with a retained [`ServiceScratch`].
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] if any request addresses a
    /// different disk or a block beyond the disk, and
    /// [`CmsError::InvalidParams`] if the disk is failed (a failed disk
    /// cannot serve; the caller must reroute to survivors).
    pub fn service_round(
        &mut self,
        ctx: &ServiceContext,
        requests: &[BlockRequest],
        deadline: Seconds,
    ) -> Result<RoundOutcome, CmsError> {
        let mut scratch = ServiceScratch::default();
        self.service_round_with(ctx, requests, deadline, &mut scratch)
    }

    /// [`Disk::service_round`] against caller-owned scratch buffers:
    /// allocation-free once `scratch` has grown to the round budget.
    /// Identical results — the scratch only changes where the working
    /// memory lives, never what is computed.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Disk::service_round`].
    // lint: hot
    pub fn service_round_with(
        &mut self,
        ctx: &ServiceContext,
        requests: &[BlockRequest],
        deadline: Seconds,
        scratch: &mut ServiceScratch,
    ) -> Result<RoundOutcome, CmsError> {
        if self.status != DiskStatus::Healthy {
            return Err(CmsError::invalid_params(format!(
                "{} is {}",
                self.id,
                if self.status == DiskStatus::Failed { "failed" } else { "transiently down" }
            )));
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
            scratch.cylinders.push(ctx.timing.cylinder_of(r.block_no, ctx.blocks_per_disk));
        }

        sweep_order_into(&scratch.cylinders, self.head, &mut scratch.order);
        let mut busy = 0.0;
        let mut pos = self.head;
        // When rotation and transfer are block-independent (the worst-case
        // and expected models without zoning — every simulator
        // configuration), hoist that constant tail and price only the seek
        // per block. `seek + rot + settle + tx` is the exact expression
        // `block_time` evaluates, in the same association order, so the
        // busy total is bit-identical to the generic path.
        match (ctx.timing.constant_block_tail(&ctx.params, ctx.block_bytes), ctx.timing.seek) {
            (Some((rot, settle, tx)), SeekModel::WorstCase) => {
                for &i in &scratch.order {
                    let c = scratch.cylinders[i];
                    let seek = ctx.params.seek_worst * f64::from(pos.abs_diff(c)) / 1999.0;
                    busy += seek + rot + settle + tx;
                    pos = c;
                }
            }
            (Some((rot, settle, tx)), SeekModel::SqrtCurve { min_seek, cylinders }) => {
                let full = f64::from(cylinders.saturating_sub(1).max(1));
                let coef = (ctx.params.seek_worst - min_seek) / full.sqrt();
                for &i in &scratch.order {
                    let c = scratch.cylinders[i];
                    let d = pos.abs_diff(c);
                    let seek = if d == 0 {
                        0.0
                    } else {
                        (min_seek + coef * f64::from(d).sqrt()).min(ctx.params.seek_worst)
                    };
                    busy += seek + rot + settle + tx;
                    pos = c;
                }
            }
            (None, _) => {
                for &i in &scratch.order {
                    let c = scratch.cylinders[i];
                    busy += ctx.timing.block_time(
                        &ctx.params,
                        pos.abs_diff(c),
                        requests[i].block_no,
                        ctx.block_bytes,
                    );
                    pos = c;
                }
            }
        }
        self.head = pos;
        let busy = busy * f64::from(self.slow_factor.max(1));
        self.busy_total += busy;
        self.blocks_served += requests.len() as u64;
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
    params: DiskParams,
    timing: TimingModel,
    block_bytes: u64,
    blocks_per_disk: u64,
}

impl DiskArray {
    /// Creates a healthy array of `d` disks with the given physical model
    /// and block size.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] for zero disks or a block size
    /// exceeding disk capacity.
    pub fn new(
        d: u32,
        params: DiskParams,
        timing: TimingModel,
        block_bytes: u64,
    ) -> Result<Self, CmsError> {
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
            .map(|i| Disk {
                id: DiskId(i),
                status: DiskStatus::Healthy,
                slow_factor: 1,
                head: 0,
                busy_total: 0.0,
                blocks_served: 0,
            })
            .collect();
        Ok(DiskArray {
            disks,
            params,
            timing,
            block_bytes,
            blocks_per_disk: params.capacity / block_bytes,
        })
    }

    /// Number of disks in the array.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.disks.len() as u32
    }

    /// Is the array empty? (Never true for a constructed array.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// Blocks each disk can hold at the configured block size.
    #[must_use]
    pub fn blocks_per_disk(&self) -> u64 {
        self.blocks_per_disk
    }

    /// The physical disk parameters.
    #[must_use]
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Marks `disk` failed. Idempotent; returns whether this call made
    /// the Healthy→Failed transition — the hook observability layers use
    /// to emit a failure event exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] if the disk id is out of range —
    /// an injected fault must never be able to panic the server loop.
    pub fn fail(&mut self, disk: DiskId) -> Result<bool, CmsError> {
        let n = self.disks.len();
        match self.disks.get_mut(disk.idx()) {
            Some(d) => {
                // A transient outage escalating to a hard failure is a
                // transition too: the data is now actually gone.
                let transitioned = d.status != DiskStatus::Failed;
                d.status = DiskStatus::Failed;
                Ok(transitioned)
            }
            None => Err(CmsError::out_of_bounds(format!(
                "cannot fail disk {}: array has {n} disks",
                disk.idx()
            ))),
        }
    }

    /// Repairs `disk` (models the completed replacement/rebuild).
    /// Idempotent; returns whether this call made the Failed→Healthy
    /// transition.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] if the disk id is out of range.
    pub fn repair(&mut self, disk: DiskId) -> Result<bool, CmsError> {
        let n = self.disks.len();
        match self.disks.get_mut(disk.idx()) {
            Some(d) => {
                let transitioned = d.status == DiskStatus::Failed;
                d.status = DiskStatus::Healthy;
                Ok(transitioned)
            }
            None => Err(CmsError::out_of_bounds(format!(
                "cannot repair disk {}: array has {n} disks",
                disk.idx()
            ))),
        }
    }

    /// Marks `disk` transiently unreachable: it refuses service but keeps
    /// its data, so no rebuild is needed when the window ends. Idempotent;
    /// returns whether this call made the Healthy→Transient transition.
    /// A disk that is already [`DiskStatus::Failed`] stays failed (a hard
    /// failure outranks a blip).
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] if the disk id is out of range.
    pub fn set_transient(&mut self, disk: DiskId) -> Result<bool, CmsError> {
        let n = self.disks.len();
        match self.disks.get_mut(disk.idx()) {
            Some(d) => {
                let transitioned = d.status == DiskStatus::Healthy;
                if transitioned {
                    d.status = DiskStatus::Transient;
                }
                Ok(transitioned)
            }
            None => Err(CmsError::out_of_bounds(format!(
                "cannot mark disk {} transient: array has {n} disks",
                disk.idx()
            ))),
        }
    }

    /// Ends a transient outage: the disk returns to service with its data
    /// intact. Idempotent; returns whether this call made the
    /// Transient→Healthy transition. A [`DiskStatus::Failed`] disk is
    /// left failed — only [`DiskArray::repair`] clears a hard failure.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] if the disk id is out of range.
    pub fn clear_transient(&mut self, disk: DiskId) -> Result<bool, CmsError> {
        let n = self.disks.len();
        match self.disks.get_mut(disk.idx()) {
            Some(d) => {
                let transitioned = d.status == DiskStatus::Transient;
                if transitioned {
                    d.status = DiskStatus::Healthy;
                }
                Ok(transitioned)
            }
            None => Err(CmsError::out_of_bounds(format!(
                "cannot clear transient on disk {}: array has {n} disks",
                disk.idx()
            ))),
        }
    }

    /// Sets the disk's service-time multiplier (`1` = nominal). Returns
    /// the previous factor.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] if the disk id is out of range,
    /// and [`CmsError::InvalidParams`] for a factor of zero.
    pub fn set_slow_factor(&mut self, disk: DiskId, factor: u32) -> Result<u32, CmsError> {
        if factor == 0 {
            return Err(CmsError::invalid_params("slow factor must be >= 1"));
        }
        let n = self.disks.len();
        match self.disks.get_mut(disk.idx()) {
            Some(d) => {
                let prev = d.slow_factor;
                d.slow_factor = factor;
                Ok(prev)
            }
            None => Err(CmsError::out_of_bounds(format!(
                "cannot set slow factor on disk {}: array has {n} disks",
                disk.idx()
            ))),
        }
    }

    /// The disk's current service-time multiplier (1 = nominal).
    /// Out-of-range ids read as nominal.
    #[must_use]
    pub fn slow_factor(&self, disk: DiskId) -> u32 {
        self.disks.get(disk.idx()).map_or(1, |d| d.slow_factor)
    }

    /// Health of a disk.
    #[must_use]
    pub fn status(&self, disk: DiskId) -> DiskStatus {
        self.disks[disk.idx()].status
    }

    /// Is `disk` currently failed? Out-of-range ids are a caller bug —
    /// routing code must never manufacture a disk id the array does not
    /// have — so they trip a debug assertion; release builds read them as
    /// healthy (an out-of-range disk can never serve a misrouted fetch
    /// anyway, so "healthy" is the non-escalating answer).
    #[must_use]
    pub fn is_failed(&self, disk: DiskId) -> bool {
        debug_assert!(
            disk.idx() < self.disks.len(),
            "is_failed({disk}) on a {}-disk array",
            self.disks.len()
        );
        self.disks
            .get(disk.idx())
            .is_some_and(|d| d.status == DiskStatus::Failed)
    }

    /// Is `disk` currently unable to serve (hard-failed or in a transient
    /// outage)? Same out-of-range contract as [`DiskArray::is_failed`].
    #[must_use]
    pub fn is_down(&self, disk: DiskId) -> bool {
        debug_assert!(
            disk.idx() < self.disks.len(),
            "is_down({disk}) on a {}-disk array",
            self.disks.len()
        );
        self.disks
            .get(disk.idx())
            .is_some_and(|d| d.status != DiskStatus::Healthy)
    }

    /// Is any disk failed? Returns the first failed disk, if any.
    #[must_use]
    pub fn failed_disk(&self) -> Option<DiskId> {
        self.disks
            .iter()
            .find(|d| d.status == DiskStatus::Failed)
            .map(|d| d.id)
    }

    /// Number of healthy disks.
    #[must_use]
    pub fn healthy_count(&self) -> u32 {
        self.disks
            .iter()
            .filter(|d| d.status == DiskStatus::Healthy)
            .count() as u32
    }

    /// Executes one round of requests on `disk`, in C-SCAN order, and
    /// accounts the time. `deadline` is the round duration `b / r_p`.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] if any request addresses a
    /// different disk or a block beyond the disk, and
    /// [`CmsError::InvalidParams`] if the disk is failed (a failed disk
    /// cannot serve; the caller must reroute to survivors).
    pub fn service_round(
        &mut self,
        disk: DiskId,
        requests: &[BlockRequest],
        deadline: Seconds,
    ) -> Result<RoundOutcome, CmsError> {
        let ctx = self.service_context();
        let state = self
            .disks
            .get_mut(disk.idx())
            .ok_or_else(|| CmsError::out_of_bounds(format!("{disk} out of range")))?;
        state.service_round(&ctx, requests, deadline)
    }

    /// The immutable parameters needed to service any disk of this array.
    #[must_use]
    pub fn service_context(&self) -> ServiceContext {
        ServiceContext {
            params: self.params,
            timing: self.timing,
            block_bytes: self.block_bytes,
            blocks_per_disk: self.blocks_per_disk,
        }
    }

    /// Splits the array into the shared [`ServiceContext`] and the
    /// per-disk mutable state, so callers can service disjoint disks
    /// concurrently without aliasing `&mut self`. The disks are lent as
    /// the owning `Vec` so a caller may move chunks of them to worker
    /// threads; it must put every disk back, in disk-ID order, before
    /// the array is used again.
    #[must_use]
    pub fn service_parts(&mut self) -> (ServiceContext, &mut Vec<Disk>) {
        let ctx = self.service_context();
        (ctx, &mut self.disks)
    }

    /// Lifetime statistics: `(total busy seconds, total blocks served)`
    /// for a disk.
    #[must_use]
    pub fn lifetime_stats(&self, disk: DiskId) -> (Seconds, u64) {
        let d = &self.disks[disk.idx()];
        (d.busy_total, d.blocks_served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_core::units::{kib, mbps};
    use cms_core::ContinuityBudget;

    fn array(timing: TimingModel) -> DiskArray {
        DiskArray::new(4, DiskParams::sigmod96(), timing, kib(256)).unwrap()
    }

    fn reqs(disk: u32, blocks: &[u64]) -> Vec<BlockRequest> {
        blocks
            .iter()
            .map(|&block_no| BlockRequest { disk: DiskId(disk), block_no })
            .collect()
    }

    #[test]
    fn construction_validates() {
        assert!(DiskArray::new(0, DiskParams::sigmod96(), TimingModel::worst_case(), 1024).is_err());
        assert!(DiskArray::new(
            4,
            DiskParams::sigmod96(),
            TimingModel::worst_case(),
            0
        )
        .is_err());
        let a = array(TimingModel::worst_case());
        assert_eq!(a.len(), 4);
        assert_eq!(a.blocks_per_disk(), (2u64 << 30) / kib(256));
    }

    #[test]
    fn q_admitted_load_meets_deadline_under_worst_case_model() {
        // The contract between Equation 1 and the execution engine: if we
        // send exactly q requests — even spread over the whole surface —
        // the round must finish in time under the worst-case model.
        let budget = ContinuityBudget::solve(&DiskParams::sigmod96(), kib(256), mbps(1.5)).unwrap();
        let mut a = array(TimingModel::worst_case());
        let span = a.blocks_per_disk();
        let spread = |n: u64| -> Vec<u64> { (0..n).map(|i| i * span / n).collect() };
        let out = a
            .service_round(DiskId(0), &reqs(0, &spread(u64::from(budget.q))), budget.round)
            .unwrap();
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
        let mut a2 = array(TimingModel::worst_case());
        let out = a2
            .service_round(DiskId(0), &reqs(0, &spread(u64::from(budget.q) + 1)), budget.round)
            .unwrap();
        assert!(!out.met_deadline(), "q+1 must miss the deadline");
    }

    #[test]
    fn sampled_round_is_cheaper_for_spread_loads() {
        // For realistic spread loads the hashed-rotation savings dominate
        // the sqrt-seek overhead, so sampled rounds come in cheaper.
        let blocks: Vec<u64> = (0..20u64).map(|i| i * 409).collect();
        let mut worst = array(TimingModel::worst_case());
        let mut sampled = array(TimingModel::sampled());
        let ow = worst.service_round(DiskId(1), &reqs(1, &blocks), 1.4).unwrap();
        let os = sampled.service_round(DiskId(1), &reqs(1, &blocks), 1.4).unwrap();
        assert!(
            os.busy <= ow.busy + 1e-9,
            "sampled {:.4}s vs worst {:.4}s",
            os.busy,
            ow.busy
        );
    }

    #[test]
    fn failed_disk_rejects_service() {
        let mut a = array(TimingModel::worst_case());
        a.fail(DiskId(2)).unwrap();
        assert_eq!(a.status(DiskId(2)), DiskStatus::Failed);
        assert_eq!(a.failed_disk(), Some(DiskId(2)));
        assert_eq!(a.healthy_count(), 3);
        let err = a.service_round(DiskId(2), &reqs(2, &[1]), 1.0);
        assert!(err.is_err());
        a.repair(DiskId(2)).unwrap();
        assert_eq!(a.healthy_count(), 4);
        // Out-of-range ids surface as typed errors, never a panic.
        assert!(matches!(a.fail(DiskId(99)), Err(CmsError::OutOfBounds { .. })));
        assert!(matches!(a.repair(DiskId(99)), Err(CmsError::OutOfBounds { .. })));
        assert!(a.service_round(DiskId(2), &reqs(2, &[1]), 1.0).is_ok());
    }

    #[test]
    fn fail_and_repair_report_transitions_exactly_once() {
        let mut a = array(TimingModel::worst_case());
        assert!(!a.is_failed(DiskId(1)));
        assert!(a.fail(DiskId(1)).unwrap(), "first fail transitions");
        assert!(!a.fail(DiskId(1)).unwrap(), "second fail is idempotent");
        assert!(a.is_failed(DiskId(1)));
        assert!(a.repair(DiskId(1)).unwrap(), "first repair transitions");
        assert!(!a.repair(DiskId(1)).unwrap(), "second repair is idempotent");
        assert!(!a.is_failed(DiskId(1)));
    }

    #[test]
    #[should_panic(expected = "is_failed")]
    #[cfg(debug_assertions)]
    fn is_failed_out_of_range_is_a_caller_bug() {
        // Routing code must never manufacture a disk id the array lacks;
        // debug builds trip the assertion instead of reading "healthy".
        let a = array(TimingModel::worst_case());
        let _ = a.is_failed(DiskId(99));
    }

    #[test]
    fn transient_refuses_service_but_keeps_data() {
        let mut a = array(TimingModel::worst_case());
        assert!(a.set_transient(DiskId(1)).unwrap(), "first call transitions");
        assert!(!a.set_transient(DiskId(1)).unwrap(), "second call is idempotent");
        assert_eq!(a.status(DiskId(1)), DiskStatus::Transient);
        assert!(a.is_down(DiskId(1)));
        assert!(!a.is_failed(DiskId(1)), "transient is not a hard failure");
        assert_eq!(a.healthy_count(), 3);
        assert_eq!(a.failed_disk(), None, "no rebuild trigger for a blip");
        assert!(a.service_round(DiskId(1), &reqs(1, &[1]), 1.0).is_err());
        assert!(a.clear_transient(DiskId(1)).unwrap());
        assert!(!a.clear_transient(DiskId(1)).unwrap());
        assert!(a.service_round(DiskId(1), &reqs(1, &[1]), 1.0).is_ok());
        // A hard failure outranks a blip in both directions.
        a.fail(DiskId(2)).unwrap();
        assert!(!a.set_transient(DiskId(2)).unwrap());
        assert_eq!(a.status(DiskId(2)), DiskStatus::Failed);
        assert!(!a.clear_transient(DiskId(2)).unwrap());
        assert_eq!(a.status(DiskId(2)), DiskStatus::Failed);
        // ... and escalating a transient disk to failed is a transition.
        a.set_transient(DiskId(3)).unwrap();
        assert!(a.fail(DiskId(3)).unwrap(), "transient -> failed transitions");
        // Out-of-range ids surface as typed errors, never a panic.
        assert!(a.set_transient(DiskId(99)).is_err());
        assert!(a.clear_transient(DiskId(99)).is_err());
    }

    #[test]
    fn slow_factor_scales_busy_time() {
        let blocks: Vec<u64> = (0..8u64).map(|i| i * 1000).collect();
        let mut nominal = array(TimingModel::worst_case());
        let mut slow = array(TimingModel::worst_case());
        assert_eq!(slow.set_slow_factor(DiskId(0), 3).unwrap(), 1);
        assert_eq!(slow.slow_factor(DiskId(0)), 3);
        let on = nominal.service_round(DiskId(0), &reqs(0, &blocks), 10.0).unwrap();
        let os = slow.service_round(DiskId(0), &reqs(0, &blocks), 10.0).unwrap();
        assert!((os.busy - 3.0 * on.busy).abs() < 1e-9, "{} vs 3x{}", os.busy, on.busy);
        // Restoring the factor restores nominal service.
        assert_eq!(slow.set_slow_factor(DiskId(0), 1).unwrap(), 3);
        assert!(slow.set_slow_factor(DiskId(0), 0).is_err());
        assert!(slow.set_slow_factor(DiskId(99), 2).is_err());
        assert_eq!(slow.slow_factor(DiskId(1)), 1);
    }

    #[test]
    fn misrouted_and_oob_requests_are_rejected() {
        let mut a = array(TimingModel::worst_case());
        let err = a.service_round(DiskId(0), &reqs(1, &[0]), 1.0);
        assert!(matches!(err, Err(CmsError::OutOfBounds { .. })));
        let huge = a.blocks_per_disk();
        let err = a.service_round(DiskId(0), &reqs(0, &[huge]), 1.0);
        assert!(matches!(err, Err(CmsError::OutOfBounds { .. })));
    }

    #[test]
    fn head_position_persists_across_rounds() {
        let mut a = array(TimingModel::sampled());
        a.service_round(DiskId(0), &reqs(0, &[4000]), 10.0).unwrap();
        // Second round over a nearby block should be cheap: the head is
        // already deep into the surface.
        let near = a.service_round(DiskId(0), &reqs(0, &[4001]), 10.0).unwrap();
        let mut fresh = array(TimingModel::sampled());
        let far = fresh.service_round(DiskId(0), &reqs(0, &[4001]), 10.0).unwrap();
        assert!(near.busy < far.busy, "persisted head must shorten the seek");
    }

    #[test]
    fn lifetime_stats_accumulate() {
        let mut a = array(TimingModel::worst_case());
        a.service_round(DiskId(3), &reqs(3, &[1, 2, 3]), 10.0).unwrap();
        a.service_round(DiskId(3), &reqs(3, &[4]), 10.0).unwrap();
        let (busy, blocks) = a.lifetime_stats(DiskId(3));
        assert_eq!(blocks, 4);
        assert!(busy > 0.0);
        let (b0, n0) = a.lifetime_stats(DiskId(0));
        assert_eq!((b0, n0), (0.0, 0));
    }

    #[test]
    fn empty_round_costs_nothing() {
        let mut a = array(TimingModel::worst_case());
        let out = a.service_round(DiskId(0), &[], 1.0).unwrap();
        assert_eq!(out.blocks, 0);
        assert_eq!(out.busy, 0.0);
        assert!(out.met_deadline());
    }
}
