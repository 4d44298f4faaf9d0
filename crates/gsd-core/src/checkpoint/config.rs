//! Recovery configuration.

/// Checkpoint/recovery options an engine runs with. Engines run
/// unprotected unless handed one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Write a checkpoint every this many committed iterations (≥ 1).
    /// Checkpoints land only on driver-loop boundaries: a two-pass FCIU
    /// round commits two iterations between boundaries, so the actual
    /// cadence may skip an odd iteration number.
    pub every: u32,
    /// Keep the newest `retain` checkpoints; older ones are deleted after
    /// each successful commit.
    pub retain: usize,
    /// Attempt to resume from the latest valid checkpoint at run start.
    pub resume: bool,
    /// Testing/fault-injection aid: simulate a crash by aborting the run
    /// (with `ErrorKind::Interrupted`) immediately after the first
    /// checkpoint whose iteration is ≥ this value. The abort happens at
    /// the exact commit point, so storage and checkpoint state are those
    /// of a kill at an iteration boundary.
    pub halt_after: Option<u32>,
}

impl RecoveryConfig {
    /// Checkpoint every `n` committed iterations with default retention
    /// and resume policy.
    pub fn every(n: u32) -> Self {
        RecoveryConfig {
            every: n.max(1),
            retain: 2,
            resume: true,
            halt_after: None,
        }
    }

    /// Sets the retention depth (keep the newest `k` checkpoints).
    pub fn with_retain(mut self, k: usize) -> Self {
        self.retain = k.max(1);
        self
    }

    /// Writes checkpoints but never resumes from them.
    pub fn without_resume(mut self) -> Self {
        self.resume = false;
        self
    }

    /// Simulates a crash right after the first checkpoint at iteration
    /// ≥ `k` (see [`RecoveryConfig::halt_after`]).
    pub fn with_halt_after(mut self, k: u32) -> Self {
        self.halt_after = Some(k);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = RecoveryConfig::every(3)
            .with_retain(5)
            .without_resume()
            .with_halt_after(7);
        assert_eq!(c.every, 3);
        assert_eq!(c.retain, 5);
        assert!(!c.resume);
        assert_eq!(c.halt_after, Some(7));
    }

    #[test]
    fn every_zero_is_clamped() {
        assert_eq!(RecoveryConfig::every(0).every, 1);
        assert_eq!(RecoveryConfig::every(0).with_retain(0).retain, 1);
    }
}
