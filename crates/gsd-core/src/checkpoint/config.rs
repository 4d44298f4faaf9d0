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
    /// Checkpoint every `n` committed iterations, resuming when a
    /// checkpoint exists.
    pub fn every(n: u32) -> Self {
        RecoveryConfig {
            every: n.max(1),
            resume: true,
            halt_after: None,
        }
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
        let c = RecoveryConfig::every(3).without_resume().with_halt_after(7);
        assert_eq!(c.every, 3);
        assert!(!c.resume);
        assert_eq!(c.halt_after, Some(7));
    }

    #[test]
    fn every_zero_is_clamped() {
        assert_eq!(RecoveryConfig::every(0).every, 1);
    }
}
