//! The verification policy.

/// Whether a run checksums the grid objects it reads.
///
/// `Off` is free. `Full` checksums every manifest-covered object the
/// first time it is read (whole-object reads are verified in place;
/// partial reads trigger one unaccounted whole-object side read, after
/// which the object is trusted for the rest of the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyPolicy {
    /// Trust the grid blindly.
    Off,
    /// Verify every covered object on first read.
    Full,
}

impl VerifyPolicy {
    /// Parses `off` or `full`.
    pub fn parse(spec: &str) -> Option<Self> {
        match spec.trim() {
            "off" => Some(VerifyPolicy::Off),
            "full" => Some(VerifyPolicy::Full),
            _ => None,
        }
    }
}

/// What verification does on a corrupt object: it fails the read with a
/// structured [`crate::CorruptionError`]. Recovery is offline (`gsd scrub
/// --repair`). Kept only because `GridSession::open` still names it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CorruptionResponse {
    /// Surface a structured [`crate::CorruptionError`] immediately.
    #[default]
    FailFast,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parsing() {
        assert_eq!(VerifyPolicy::parse("off"), Some(VerifyPolicy::Off));
        assert_eq!(VerifyPolicy::parse("full"), Some(VerifyPolicy::Full));
        assert_eq!(VerifyPolicy::parse(" full "), Some(VerifyPolicy::Full));
        assert_eq!(VerifyPolicy::parse("sample:4"), None);
        assert_eq!(VerifyPolicy::parse("everything"), None);
    }
}
