//! Bounded retry with backoff for transient I/O errors.
//!
//! [`RetryingStorage`] sits above a (possibly faulty) backend and retries
//! attempts that fail with a *retryable* kind — `Interrupted`,
//! `WouldBlock` or `TimedOut` — up to a bounded number of attempts with
//! exponential backoff. Anything else (corruption, missing keys,
//! permission, injected permanent faults) propagates immediately:
//! retrying cannot fix it and would only mask the bug.
//!
//! Every retry is observable twice over: the shared [`IoStats`] counters
//! (`retried_ops` / `gave_up_ops`, which flow into each run's
//! `RunStats.io`) and the trace stream (`IoRetry` / `IoGaveUp` events).

use gsd_io::{DiskModel, IoStats, SharedStorage, Storage};
use gsd_trace::{TraceEvent, TraceSink};
use std::io::ErrorKind;
use std::sync::Arc;
use std::time::Duration;

/// How hard to try before declaring a transient error fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (≥ 1).
    pub max_attempts: u32,
    /// Sleep before retry `n` is `base_backoff · 2^(n-1)`. The default is
    /// zero: simulated backends fail deterministically and re-draw per
    /// attempt, so waiting buys nothing; real deployments set a small
    /// base (e.g. 10 ms) to ride out device hiccups.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and no backoff.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// Sets the backoff before the first retry (doubles each retry).
    pub fn with_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self
    }
}

/// Whether one more attempt could plausibly succeed.
fn retryable(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
    )
}

/// A [`Storage`] decorator that retries transient failures (see the
/// module docs for the policy).
pub struct RetryingStorage {
    inner: SharedStorage,
    policy: RetryPolicy,
    trace: Arc<dyn TraceSink>,
}

impl RetryingStorage {
    /// Wraps `inner` with retry handling under `policy`.
    pub fn new(inner: SharedStorage, policy: RetryPolicy) -> Self {
        RetryingStorage {
            inner,
            policy,
            trace: gsd_trace::null_sink(),
        }
    }

    /// Routes `IoRetry`/`IoGaveUp` events to `trace`.
    pub fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// The policy attempts run under.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    fn with_retry<T>(
        &self,
        op: &'static str,
        mut attempt_once: impl FnMut() -> gsd_io::Result<T>,
    ) -> gsd_io::Result<T> {
        let mut attempt = 1u32;
        loop {
            match attempt_once() {
                Ok(value) => return Ok(value),
                Err(err) if !retryable(err.kind()) => return Err(err),
                Err(err) => {
                    if attempt >= self.policy.max_attempts {
                        self.inner.stats().record_giveup();
                        if self.trace.enabled() {
                            self.trace.emit(&TraceEvent::IoGaveUp {
                                op,
                                attempts: attempt,
                            });
                        }
                        return Err(err);
                    }
                    self.inner.stats().record_retry();
                    if self.trace.enabled() {
                        self.trace.emit(&TraceEvent::IoRetry { op, attempt });
                    }
                    let backoff = self.policy.base_backoff * 2u32.saturating_pow(attempt - 1);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    attempt += 1;
                }
            }
        }
    }
}

impl Storage for RetryingStorage {
    fn create(&self, key: &str, data: &[u8]) -> gsd_io::Result<()> {
        self.with_retry("create", || self.inner.create(key, data))
    }

    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> gsd_io::Result<()> {
        self.with_retry("read", || self.inner.read_at(key, offset, buf))
    }

    fn read_unaccounted(&self, key: &str, offset: u64, buf: &mut [u8]) -> gsd_io::Result<()> {
        // Must forward explicitly: the trait default would route the
        // verification side channel through the *accounted* read path.
        // Transient errors are still retried — the side read rides the
        // same flaky device.
        self.with_retry("read", || self.inner.read_unaccounted(key, offset, buf))
    }

    fn write_at(&self, key: &str, offset: u64, data: &[u8]) -> gsd_io::Result<()> {
        self.with_retry("write", || self.inner.write_at(key, offset, data))
    }

    fn sync(&self) -> gsd_io::Result<()> {
        self.with_retry("sync", || self.inner.sync())
    }

    fn len(&self, key: &str) -> gsd_io::Result<u64> {
        self.inner.len(key)
    }

    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }

    fn delete(&self, key: &str) -> gsd_io::Result<()> {
        self.inner.delete(key)
    }

    fn list_keys(&self) -> Vec<String> {
        self.inner.list_keys()
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn disk_model(&self) -> Option<DiskModel> {
        self.inner.disk_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultyStorage};
    use gsd_io::MemStorage;
    use gsd_trace::RingRecorder;

    fn stack(cfg: FaultConfig, policy: RetryPolicy) -> (RetryingStorage, SharedStorage) {
        let mem: SharedStorage = Arc::new(MemStorage::new());
        let faulty: SharedStorage = Arc::new(FaultyStorage::new(mem.clone(), cfg));
        (RetryingStorage::new(faulty, policy), mem)
    }

    #[test]
    fn rides_out_transient_faults() -> std::io::Result<()> {
        let (retrying, _) = stack(FaultConfig::transient(42, 0.4), RetryPolicy::attempts(10));
        retrying.create("k", &[0u8; 64])?;
        let mut buf = [0u8; 64];
        for _ in 0..200 {
            retrying.read_at("k", 0, &mut buf)?;
        }
        let s = retrying.stats().snapshot();
        assert!(s.retried_ops > 0, "rate 0.4 must have retried");
        assert_eq!(s.gave_up_ops, 0, "10 attempts at rate 0.4 cannot all fail");
        Ok(())
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let (retrying, _) = stack(FaultConfig::transient(1, 1.0), RetryPolicy::attempts(3));
        let err = retrying.create("k", &[1]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Interrupted);
        let s = retrying.stats().snapshot();
        assert_eq!(s.retried_ops, 2, "attempts 1 and 2 retried");
        assert_eq!(s.gave_up_ops, 1, "attempt 3 gave up");
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let mem: SharedStorage = Arc::new(MemStorage::new());
        let retrying = RetryingStorage::new(mem, RetryPolicy::attempts(5));
        let mut buf = [0u8; 4];
        let err = retrying.read_at("missing", 0, &mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
        let s = retrying.stats().snapshot();
        assert_eq!(s.retried_ops, 0);
        assert_eq!(s.gave_up_ops, 0);
    }

    #[test]
    fn emits_retry_and_giveup_events() {
        let (mut retrying, _) = stack(FaultConfig::transient(1, 1.0), RetryPolicy::attempts(2));
        let sink = Arc::new(RingRecorder::new(16));
        retrying.set_trace(sink.clone());
        retrying.read_at("k", 0, &mut [0]).unwrap_err();
        retrying.write_at("k", 0, &[1]).unwrap_err();
        retrying.create("k", &[1]).unwrap_err();
        retrying.sync().unwrap_err();
        let kinds: Vec<&'static str> = sink.events().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["io_retry", "io_gave_up"].repeat(4));
        // Every wrapped operation names itself with a label the trace
        // decoder knows.
        let gave_up = sink.events().into_iter().filter_map(|e| {
            let TraceEvent::IoGaveUp { op, .. } = e else {
                return None;
            };
            Some(op)
        });
        assert_eq!(gave_up.collect::<Vec<_>>(), gsd_trace::labels::IO_OPS);
    }

    #[test]
    fn successful_retries_keep_accounting_identical_to_a_clean_run() -> std::io::Result<()> {
        // The faulty stack (with enough attempts to always succeed) must
        // report byte-identical traffic to a fault-free run of the same
        // request sequence — failed attempts never reach the backend.
        let drive = |storage: &dyn Storage| -> std::io::Result<()> {
            storage.create("k", &[0u8; 256])?;
            let mut buf = [0u8; 32];
            for i in 0..8 {
                storage.read_at("k", i * 32, &mut buf)?;
            }
            storage.write_at("k", 0, &[7u8; 16])
        };
        let clean: SharedStorage = Arc::new(MemStorage::new());
        drive(clean.as_ref())?;
        let (retrying, mem) = stack(FaultConfig::transient(99, 0.3), RetryPolicy::attempts(64));
        drive(&retrying)?;
        let mut faulty_snap = mem.stats().snapshot();
        faulty_snap.retried_ops = 0;
        assert_eq!(faulty_snap, clean.stats().snapshot());
        Ok(())
    }

    #[test]
    fn ranges_past_the_end_are_errors_on_every_backend() -> std::io::Result<()> {
        // Offsets whose end overflows `u64` (and, on files, `i64`) used to
        // panic on the add; every backend and decorator must answer a
        // read with `UnexpectedEof` and a write with an error, and change
        // nothing.
        let dir = gsd_io::TempDir::new("gsd-retry-ranges")?;
        let (stacked, _) = stack(FaultConfig::transient(3, 0.0), RetryPolicy::default());
        let backends: Vec<(&str, SharedStorage)> = vec![
            ("mem", Arc::new(MemStorage::new())),
            ("sim", Arc::new(gsd_io::SimDisk::new(DiskModel::hdd()))),
            ("file", Arc::new(gsd_io::FileStorage::open(dir.path())?)),
            ("retry+faulty", Arc::new(stacked)),
        ];
        for (name, store) in &backends {
            store.create("k", &[1u8; 16])?;
            let mut buf = [0u8; 8];
            for offset in [u64::MAX, u64::MAX - 4, 1 << 63, 12] {
                let kinds = [
                    store.read_at("k", offset, &mut buf),
                    store.read_unaccounted("k", offset, &mut buf),
                    store.write_at("k", offset, &[9u8; 8]),
                ]
                .map(|r| r.map_err(|e| e.kind()));
                let eof = Err(ErrorKind::UnexpectedEof);
                assert_eq!(
                    kinds, [eof; 3],
                    "{name}: read, side read, write at {offset}"
                );
            }
            assert_eq!(store.read_all("k")?, [1u8; 16], "{name} unchanged");
        }
        Ok(())
    }

    #[test]
    fn backoff_doubles_but_is_bounded_by_attempts() {
        // Zero base: the loop must not sleep at all (no wall-clock
        // dependence in simulated runs); just exercise the path.
        let (retrying, _) = stack(
            FaultConfig::transient(1, 1.0),
            RetryPolicy::attempts(8).with_backoff(Duration::ZERO),
        );
        retrying.sync().unwrap_err();
        assert_eq!(retrying.stats().snapshot().gave_up_ops, 1);
    }
}
