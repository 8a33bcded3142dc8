//! The fault surface: the one gate every fault-tested file op passes.
//!
//! Out-of-core engines must fail cleanly (not corrupt state or hang) when the
//! backing store misbehaves. A [`FaultSurface`] bundles what a chaos test
//! arms against a pipeline's file ops: a planned fault ([`FaultPlan`],
//! executed by [`FaultState`]: a hard failure at op N or at a named op, a
//! torn write that leaves partial bytes, a transient fault that fails K
//! times and then succeeds, a disk-full error), the [`RetryPolicy`] that
//! retries transient faults, and an optional [`DiskBudget`] modelling a
//! nearly-full device. Ingest and checkpoints thread the same surface:
//! metadata ops (fsync, rename, commit, retire) gate through
//! [`FaultSurface::op`] and byte writes through the [`SurfaceWriter`] that
//! [`FaultSurface::wrap`] returns, each under a label a test can target.
//! Production passes the inert [`FaultSurface::none`], which writes
//! straight through.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a planned fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails outright; nothing reaches the underlying file.
    Error,
    /// A torn write: only the first `keep_bytes` of the buffer land before
    /// the error — the on-disk result a power cut mid-`write` leaves behind.
    Torn { keep_bytes: u64 },
    /// The operation fails `failures` times, then succeeds: the retryable
    /// class of error (EINTR-ish hiccups, momentary ENOSPC, ...).
    Transient { failures: u32 },
    /// The device reports out-of-space: the operation fails with
    /// [`io::ErrorKind::StorageFull`] and nothing lands. Distinct from
    /// `Error` so callers can assert the typed `StorageFull` path.
    Full,
}

/// A single planned fault: `kind` fires when the gated operation counter
/// reaches `at_op` (0-based, counting every gated write/fsync/rename).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    pub at_op: u64,
    pub kind: FaultKind,
}

impl FaultPlan {
    pub fn fail_at(at_op: u64) -> Self {
        FaultPlan { at_op, kind: FaultKind::Error }
    }

    pub fn torn_at(at_op: u64, keep_bytes: u64) -> Self {
        FaultPlan { at_op, kind: FaultKind::Torn { keep_bytes } }
    }

    pub fn transient_at(at_op: u64, failures: u32) -> Self {
        FaultPlan { at_op, kind: FaultKind::Transient { failures } }
    }

    pub fn full_at(at_op: u64) -> Self {
        FaultPlan { at_op, kind: FaultKind::Full }
    }
}

/// Error payload marking an injected fault as transient (retry-worthy).
#[derive(Debug)]
struct TransientError;

impl std::fmt::Display for TransientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected transient fault")
    }
}

impl std::error::Error for TransientError {}

/// Whether `e` is a transient fault worth retrying.
pub(crate) fn is_transient(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<TransientError>())
}

/// Shared, thread-safe state executing a [`FaultPlan`].
///
/// A [`FaultSurface`] gates each operation through it: byte-carrying writes
/// and metadata operations (fsync, rename) alike. Successful operations
/// advance a counter; when it reaches `plan.at_op` the fault fires. `Error`
/// and `Torn` fire once and then pass everything through (the crashed
/// process never retries); `Transient` holds the counter in place and fails
/// `failures` consecutive attempts at the same operation before letting it
/// succeed.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    /// When set, the fault triggers on the `label_nth`-th (0-based) gated op
    /// whose label equals this string instead of on an op index — letting
    /// tests target a named point ("commit-manifest:runs") without
    /// counting ops.
    at_label: Option<String>,
    label_nth: u64,
    /// Ops labeled `at_label` that passed before the targeted one.
    label_seen: AtomicU64,
    op: AtomicU64,
    transient_left: AtomicU32,
    fired: AtomicBool,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Self::build(plan, None, 0)
    }

    /// A fault that fires at the first gated operation labeled `label`
    /// (the `what` passed to [`FaultSurface::op`], or a writer's label),
    /// regardless of op index.
    pub fn new_at_label(plan: FaultPlan, label: &str) -> Arc<Self> {
        Self::at_label_occurrence(plan, label, 0)
    }

    /// A fault that fires at the `nth` (0-based) gated operation labeled
    /// `label` — a sampled point inside a long run of same-labeled ops (the
    /// writes of one spilled run, the opens of one merge).
    pub fn at_label_occurrence(plan: FaultPlan, label: &str, nth: u64) -> Arc<Self> {
        Self::build(plan, Some(label.to_string()), nth)
    }

    /// Shorthand for a hard failure at the named operation.
    pub fn fail_at_label(label: &str) -> Arc<Self> {
        Self::new_at_label(FaultPlan::fail_at(u64::MAX), label)
    }

    fn build(plan: FaultPlan, at_label: Option<String>, label_nth: u64) -> Arc<Self> {
        let transient_left = match plan.kind {
            FaultKind::Transient { failures } => failures,
            _ => 0,
        };
        Arc::new(FaultState {
            plan,
            at_label,
            label_nth,
            label_seen: AtomicU64::new(0),
            op: AtomicU64::new(0),
            transient_left: AtomicU32::new(transient_left),
            fired: AtomicBool::new(false),
        })
    }

    /// A plan that never fires — useful for counting the ops a workload
    /// performs before sweeping faults across them.
    pub fn counting() -> Arc<Self> {
        Self::new(FaultPlan::fail_at(u64::MAX))
    }

    /// Operations that have passed through (successfully) so far.
    pub fn ops_seen(&self) -> u64 {
        self.op.load(Ordering::SeqCst)
    }

    /// Whether the planned fault has fired at least once.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Returns `Some(kind)` if the fault should fire for the current op.
    fn arm(&self, what: &str) -> Option<FaultKind> {
        let triggered = match &self.at_label {
            Some(label) if what == label => {
                // Earlier occurrences pass; from the targeted one on, every
                // occurrence is the target (a transient retry hits it again).
                let seen = self.label_seen.load(Ordering::SeqCst);
                if seen < self.label_nth {
                    self.label_seen.store(seen + 1, Ordering::SeqCst);
                }
                seen >= self.label_nth
            }
            Some(_) => false,
            None => self.op.load(Ordering::SeqCst) == self.plan.at_op,
        };
        if !triggered {
            return None;
        }
        match self.plan.kind {
            FaultKind::Transient { .. } => {
                // Fail while failures remain; the op index does not advance,
                // so a retry hits the same gate.
                let left = self.transient_left.load(Ordering::SeqCst);
                if left > 0 {
                    self.transient_left.store(left - 1, Ordering::SeqCst);
                    self.fired.store(true, Ordering::SeqCst);
                    Some(self.plan.kind)
                } else {
                    None
                }
            }
            kind => {
                if self.fired.swap(true, Ordering::SeqCst) {
                    None
                } else {
                    Some(kind)
                }
            }
        }
    }

    fn advance(&self) {
        self.op.fetch_add(1, Ordering::SeqCst);
    }

    fn injected(&self, what: &str) -> io::Error {
        match self.plan.kind {
            FaultKind::Transient { .. } => io::Error::other(TransientError),
            FaultKind::Full => io::Error::new(
                io::ErrorKind::StorageFull,
                format!("injected disk-full: {what}"),
            ),
            _ => io::Error::other(format!("injected fault: {what} (op {})", self.plan.at_op)),
        }
    }

    /// Gate a metadata operation (fsync, rename, create). On success the op
    /// counter advances; a `Torn` plan degrades to `Error` here since
    /// metadata ops have no byte stream to tear.
    pub(crate) fn op_gate(&self, what: &str) -> io::Result<()> {
        match self.arm(what) {
            Some(_) => Err(self.injected(what)),
            None => {
                self.advance();
                Ok(())
            }
        }
    }

    /// Gate a byte-carrying write of `buf` into `w`, labeled `what`. A
    /// `Torn` plan writes the planned prefix before failing, leaving real
    /// partial bytes behind.
    pub(crate) fn write_gate_as<W: Write>(
        &self,
        what: &str,
        w: &mut W,
        buf: &[u8],
    ) -> io::Result<usize> {
        match self.arm(what) {
            Some(FaultKind::Torn { keep_bytes }) => {
                let keep = (keep_bytes as usize).min(buf.len());
                w.write_all(&buf[..keep])?;
                Err(self.injected(what))
            }
            Some(_) => Err(self.injected(what)),
            None => {
                self.advance();
                w.write_all(buf)?;
                Ok(buf.len())
            }
        }
    }
}

/// Bounded retry for transient IO faults: up to `max_retries` extra attempts
/// with capped exponential backoff and deterministic jitter.
///
/// Attempt `n` (1-based) sleeps for `base_backoff * 2^(n-1)`, capped at
/// `max_backoff`, then scaled into `[50%, 100%]` of that value by a jitter
/// fraction derived purely from `jitter_seed` and `n` — no wall-clock or RNG
/// reads, so the whole schedule is a pure function testable without sleeping.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    pub max_retries: u32,
    pub base_backoff: Duration,
    /// Ceiling the exponential doubling saturates at.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter; two policies with the same seed
    /// produce byte-identical schedules.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// No retries: every error is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// The backoff before retry attempt `attempt` (1-based). Pure: depends
    /// only on the policy fields and `attempt`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if self.base_backoff.is_zero() || attempt == 0 {
            return Duration::ZERO;
        }
        // base * 2^(attempt-1), saturating well before u128 overflow.
        let exp = attempt.saturating_sub(1).min(63);
        let raw = self.base_backoff.as_nanos().saturating_mul(1u128 << exp);
        let cap = self.max_backoff.as_nanos().max(self.base_backoff.as_nanos());
        let capped = raw.min(cap);
        // Equal jitter: [50%, 100%] of the capped delay, fraction taken from
        // a splitmix64 of (seed, attempt).
        let unit = splitmix64(self.jitter_seed.wrapping_add(u64::from(attempt))) % 1000;
        let jittered = capped / 2 + (capped / 2) * u128::from(unit) / 999;
        Duration::from_nanos(jittered.min(u128::from(u64::MAX)) as u64)
    }
}

/// SplitMix64 step — the standard seeded mixer (same constants as the
/// reference implementation), used here only for deterministic jitter.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run `f`, retrying transient failures per `policy`. Non-transient errors
/// propagate immediately; exhausting the retry budget returns the last
/// transient error.
pub(crate) fn retry_transient<T>(
    policy: &RetryPolicy,
    mut f: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < policy.max_retries => {
                attempt += 1;
                let backoff = policy.backoff_for(attempt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// A shared byte budget modeling a nearly-full scratch device: every write
/// charged against it past `limit` fails with [`io::ErrorKind::StorageFull`]
/// — the deterministic stand-in for ENOSPC that the ingest chaos tests
/// drive a whole pipeline run into.
#[derive(Debug)]
pub struct DiskBudget {
    limit: u64,
    used: AtomicU64,
}

impl DiskBudget {
    pub fn new(limit: u64) -> Arc<Self> {
        Arc::new(DiskBudget { limit, used: AtomicU64::new(0) })
    }

    /// Bytes charged so far.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::SeqCst)
    }

    /// Bytes left before writes start failing.
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.used())
    }

    /// Charge `bytes` against the budget, or fail with `StorageFull` (the
    /// bytes are *not* charged on failure, like a write that never landed).
    pub fn try_charge(&self, bytes: u64) -> io::Result<()> {
        let grew = self.used.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| {
            used.checked_add(bytes).filter(|&total| total <= self.limit)
        });
        match grew {
            Ok(_) => Ok(()),
            Err(used) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                format!("scratch disk budget exhausted: {used} of {} bytes used", self.limit),
            )),
        }
    }
}

/// The pluggable fault surface threaded through every gated file op, ingest
/// and checkpoints alike: planned faults ([`FaultState`]), a retry policy
/// for transient errors, and an optional [`DiskBudget`] modeling ENOSPC. The
/// default surface is a pure pass-through — clean runs pay nothing and stay
/// byte-identical.
#[derive(Debug, Clone, Default)]
pub struct FaultSurface {
    faults: Option<Arc<FaultState>>,
    retry: RetryPolicy,
    disk: Option<Arc<DiskBudget>>,
}

impl FaultSurface {
    /// The inert surface: no faults, no disk budget, nothing gated.
    pub fn none() -> Self {
        Self::default()
    }

    pub fn with_faults(mut self, faults: Arc<FaultState>) -> Self {
        self.faults = Some(faults);
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    pub fn with_disk_budget(mut self, disk: Arc<DiskBudget>) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The scratch disk budget, if one is attached — callers use it to
    /// pre-check a stage's estimated footprint before starting work.
    pub fn disk(&self) -> Option<&Arc<DiskBudget>> {
        self.disk.as_ref()
    }

    /// Gate a named metadata operation (stage commit, rename, fsync,
    /// retire), retrying transient faults per the surface's policy. The
    /// caller runs the operation itself once this returns `Ok`.
    pub fn op(&self, what: &str) -> io::Result<()> {
        match &self.faults {
            None => Ok(()),
            Some(faults) => retry_transient(&self.retry, || faults.op_gate(what)),
        }
    }

    /// Wrap a writer so its bytes are charged against the disk budget and
    /// gated through the fault plan (with transparent transient retry).
    pub fn wrap<W: Write>(&self, inner: W) -> SurfaceWriter<W> {
        SurfaceWriter { inner, surface: self.clone(), label: "write" }
    }
}

/// A writer produced by [`FaultSurface::wrap`]: charges the disk budget
/// first (ENOSPC fails before bytes land), then runs the write through the
/// fault gate with transient retry. With an inert surface it degrades to a
/// plain pass-through.
pub struct SurfaceWriter<W: Write> {
    inner: W,
    surface: FaultSurface,
    label: &'static str,
}

impl<W: Write> SurfaceWriter<W> {
    /// Gate every write under `label` instead of `write`, so a label probe
    /// can target one kind of write (a spilled run, a pre-merge).
    pub fn labeled(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// The inner writer, for what its bytes do not reach: a seek before a
    /// positional write.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for SurfaceWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(disk) = &self.surface.disk {
            disk.try_charge(buf.len() as u64)?;
        }
        match &self.surface.faults {
            None => self.inner.write(buf),
            Some(faults) => {
                let (inner, label) = (&mut self.inner, self.label);
                retry_transient(&self.surface.retry, || faults.write_gate_as(label, inner, buf))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fails_exactly_at_op() {
        let faults = FaultState::new(FaultPlan::fail_at(2));
        let mut sink = Vec::new();
        assert!(faults.write_gate_as("write", &mut sink, b"aa").is_ok()); // op 0
        assert!(faults.op_gate("fsync").is_ok()); // op 1
        let err = faults.write_gate_as("write", &mut sink, b"bb").unwrap_err(); // op 2: boom
        assert!(!is_transient(&err));
        assert!(faults.fired());
        assert_eq!(sink, b"aa", "failed write must not land");
        // Fires once; later ops pass.
        assert!(faults.write_gate_as("write", &mut sink, b"cc").is_ok());
        assert_eq!(sink, b"aacc");
    }

    #[test]
    fn torn_write_leaves_prefix() {
        let faults = FaultState::new(FaultPlan::torn_at(0, 3));
        let mut sink = Vec::new();
        assert!(faults.write_gate_as("write", &mut sink, b"abcdef").is_err());
        assert_eq!(sink, b"abc", "torn write keeps exactly keep_bytes");
    }

    #[test]
    fn transient_fails_k_times_then_succeeds() {
        let faults = FaultState::new(FaultPlan::transient_at(1, 2));
        let mut sink = Vec::new();
        assert!(faults.op_gate("fsync").is_ok()); // op 0
        let e1 = faults.write_gate_as("write", &mut sink, b"x").unwrap_err();
        assert!(is_transient(&e1));
        let e2 = faults.write_gate_as("write", &mut sink, b"x").unwrap_err();
        assert!(is_transient(&e2));
        assert!(faults.write_gate_as("write", &mut sink, b"x").is_ok(), "third attempt succeeds");
        assert_eq!(sink, b"x");
    }

    #[test]
    fn counting_state_never_fires() {
        let faults = FaultState::counting();
        let mut sink = Vec::new();
        for _ in 0..100 {
            faults.write_gate_as("write", &mut sink, b"y").unwrap();
        }
        assert_eq!(faults.ops_seen(), 100);
        assert!(!faults.fired());
    }

    #[test]
    fn retry_recovers_from_transient_within_budget() {
        let faults = FaultState::new(FaultPlan::transient_at(0, 3));
        let policy = RetryPolicy { max_retries: 4, ..RetryPolicy::none() };
        let mut sink = Vec::new();
        retry_transient(&policy, || faults.write_gate_as("write", &mut sink, b"data")).unwrap();
        assert_eq!(sink, b"data");
    }

    #[test]
    fn retry_gives_up_past_budget_and_skips_hard_errors() {
        let faults = FaultState::new(FaultPlan::transient_at(0, 5));
        let policy = RetryPolicy { max_retries: 2, ..RetryPolicy::none() };
        let mut sink = Vec::new();
        let err = retry_transient(&policy, || faults.write_gate_as("write", &mut sink, b"d"))
            .unwrap_err();
        assert!(is_transient(&err), "last transient error is returned");

        let hard = FaultState::new(FaultPlan::fail_at(0));
        let mut calls = 0;
        let err = retry_transient(&policy, || {
            calls += 1;
            hard.write_gate_as("write", &mut sink, b"d")
        })
        .unwrap_err();
        assert!(!is_transient(&err));
        assert_eq!(calls, 1, "hard errors must not be retried");
    }

    #[test]
    fn backoff_schedule_doubles_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            jitter_seed: 42,
        };
        // Deterministic: the same policy yields the same schedule.
        let a: Vec<_> = (1..=10).map(|n| policy.backoff_for(n)).collect();
        let b: Vec<_> = (1..=10).map(|n| policy.backoff_for(n)).collect();
        assert_eq!(a, b);
        // Jitter keeps each delay within [50%, 100%] of base * 2^(n-1),
        // capped at max_backoff.
        for (i, d) in a.iter().enumerate() {
            let nominal = Duration::from_millis(1 << i.min(3)).min(Duration::from_millis(8));
            assert!(*d >= nominal / 2, "attempt {}: {d:?} below half of {nominal:?}", i + 1);
            assert!(*d <= nominal, "attempt {}: {d:?} above cap {nominal:?}", i + 1);
        }
        // Capped: deep attempts never exceed max_backoff.
        assert!(policy.backoff_for(40) <= Duration::from_millis(8));
        // Exponential growth before the cap bites: the envelope doubles, so
        // even the most pessimistic jitter leaves attempt 3 above attempt 1.
        assert!(a[2] > a[0], "schedule does not grow: {a:?}");
        // A different seed gives a different (but equally valid) schedule.
        let reseeded = RetryPolicy { jitter_seed: 43, ..policy };
        let c: Vec<_> = (1..=10).map(|n| reseeded.backoff_for(n)).collect();
        assert_ne!(a, c, "jitter ignores the seed");
    }

    #[test]
    fn zero_base_backoff_never_sleeps() {
        let policy = RetryPolicy { max_retries: 3, ..RetryPolicy::none() };
        for n in 0..10 {
            assert_eq!(policy.backoff_for(n), Duration::ZERO);
        }
    }

    #[test]
    fn full_fault_is_storage_full() {
        let faults = FaultState::new(FaultPlan::full_at(1));
        let mut sink = Vec::new();
        assert!(faults.write_gate_as("write", &mut sink, b"aa").is_ok()); // op 0
        let err = faults.write_gate_as("write", &mut sink, b"bb").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(faults.fired());
        assert_eq!(sink, b"aa", "a full device writes nothing");
    }

    #[test]
    fn labeled_fault_fires_at_the_nth_occurrence() {
        let faults = FaultState::at_label_occurrence(FaultPlan::fail_at(u64::MAX), "open-run", 2);
        assert!(faults.op_gate("open-run").is_ok());
        assert!(faults.op_gate("fsync").is_ok());
        assert!(faults.op_gate("open-run").is_ok());
        assert!(faults.op_gate("open-run").is_err(), "the third open-run is the target");
        assert!(faults.fired());
        assert_eq!(faults.ops_seen(), 3, "the failed op does not advance the counter");
        assert!(faults.op_gate("open-run").is_ok(), "a hard fault fires once");
    }

    #[test]
    fn labeled_fault_fires_at_the_named_op() {
        let faults = FaultState::fail_at_label("commit-manifest:triads");
        let mut sink = Vec::new();
        // Unrelated ops and writes pass untouched.
        assert!(faults.op_gate("fsync").is_ok());
        assert!(faults.write_gate_as("write", &mut sink, b"x").is_ok());
        assert!(faults.op_gate("commit-manifest:import").is_ok());
        let err = faults.op_gate("commit-manifest:triads").unwrap_err();
        assert!(err.to_string().contains("commit-manifest:triads"), "{err}");
        assert!(faults.fired());
        // Fires once, like an op-indexed hard fault.
        assert!(faults.op_gate("commit-manifest:triads").is_ok());
    }

    #[test]
    fn disk_budget_trips_with_storage_full() {
        let disk = DiskBudget::new(10);
        disk.try_charge(6).unwrap();
        assert_eq!(disk.remaining(), 4);
        let err = disk.try_charge(5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(disk.used(), 6, "failed charge must not consume budget");
        disk.try_charge(4).unwrap();
        assert_eq!(disk.remaining(), 0);
    }

    #[test]
    fn inert_surface_is_a_pass_through() {
        let surface = FaultSurface::none();
        surface.op("anything").unwrap();
        let mut w = surface.wrap(Vec::new());
        w.write_all(b"hello").unwrap();
        w.flush().unwrap();
        assert_eq!(w.into_inner(), b"hello");
    }

    #[test]
    fn surface_writer_charges_budget_then_gates_faults() {
        // Disk budget fails before bytes land.
        let disk = DiskBudget::new(4);
        let surface = FaultSurface::none().with_disk_budget(Arc::clone(&disk));
        let mut w = surface.wrap(Vec::new());
        w.write_all(b"1234").unwrap();
        let err = w.write_all(b"5").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(w.into_inner(), b"1234");

        // Transient faults retry through transparently.
        let faults = FaultState::new(FaultPlan::transient_at(1, 2));
        let surface = FaultSurface::none()
            .with_faults(Arc::clone(&faults))
            .with_retry(RetryPolicy { max_retries: 3, ..RetryPolicy::none() });
        let mut w = surface.wrap(Vec::new());
        w.write_all(b"one").unwrap();
        w.write_all(b"two").unwrap();
        assert!(faults.fired());
        assert_eq!(w.into_inner(), b"onetwo");
    }

    #[test]
    fn gated_writer_retries_transparently() {
        let faults = FaultState::new(FaultPlan::transient_at(1, 2));
        let surface = FaultSurface::none()
            .with_faults(faults)
            .with_retry(RetryPolicy { max_retries: 3, ..RetryPolicy::none() });
        let mut w = surface.wrap(Vec::new()).labeled("write-manifest");
        w.write_all(b"one").unwrap();
        w.write_all(b"two").unwrap(); // transient x2 under the hood
        assert_eq!(w.into_inner(), b"onetwo");
    }
}
