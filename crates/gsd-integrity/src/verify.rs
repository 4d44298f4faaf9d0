//! Verification policy and corruption-response knobs.

use crate::hash::fnv64;

/// How much of the grid to checksum while a run reads it.
///
/// `Off` is free. `Full` checksums every manifest-covered object the
/// first time it is read (whole-object reads are verified in place;
/// partial reads trigger one unaccounted whole-object side read, after
/// which the object is trusted for the rest of the run). `Sample(n)`
/// verifies a deterministic ~1/n of objects, chosen by key hash so the
/// same objects are verified on every run and every replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyPolicy {
    /// Trust the grid blindly (the pre-v2 behavior).
    Off,
    /// Verify objects whose key hash falls in a deterministic 1/n bucket.
    Sample(u32),
    /// Verify every covered object on first read.
    Full,
}

impl VerifyPolicy {
    /// Parses `off`, `full`, or `sample:N` (N ≥ 1; `sample:1` ≡ `full`).
    pub fn parse(spec: &str) -> Option<Self> {
        match spec.trim() {
            "off" => Some(VerifyPolicy::Off),
            "full" => Some(VerifyPolicy::Full),
            other => {
                let n: u32 = other.strip_prefix("sample:")?.parse().ok()?;
                if n == 0 {
                    None
                } else if n == 1 {
                    Some(VerifyPolicy::Full)
                } else {
                    Some(VerifyPolicy::Sample(n))
                }
            }
        }
    }

    /// True when no verification happens at all.
    pub fn is_off(self) -> bool {
        self == VerifyPolicy::Off
    }

    /// Whether this policy verifies the object at `rel_key`.
    pub fn selects(self, rel_key: &str) -> bool {
        match self {
            VerifyPolicy::Off => false,
            VerifyPolicy::Full => true,
            VerifyPolicy::Sample(n) => {
                fnv64(rel_key.as_bytes()).is_multiple_of(u64::from(n.max(1)))
            }
        }
    }
}

impl std::fmt::Display for VerifyPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyPolicy::Off => write!(f, "off"),
            VerifyPolicy::Sample(n) => write!(f, "sample:{n}"),
            VerifyPolicy::Full => write!(f, "full"),
        }
    }
}

/// What to do when verification catches a corrupt object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CorruptionResponse {
    /// Surface a structured [`crate::CorruptionError`] immediately.
    #[default]
    FailFast,
    /// Re-read the object up to N times before giving up — recovers
    /// transient in-flight corruption (a bad DMA, a flaky cable), not
    /// at-rest rot. Layer under `RetryingStorage` for transient *I/O
    /// errors*; this retry is for reads that *succeed* with bad bytes.
    Retry(u32),
    /// Record the object in a quarantine list next to the grid (for a
    /// later offline `gsd scrub --repair`) and then fail the read.
    Quarantine,
}

impl CorruptionResponse {
    /// Parses `fail`, `retry`, `retry:N` (N ≥ 1), or `quarantine`.
    pub fn parse(spec: &str) -> Option<Self> {
        match spec.trim() {
            "fail" => Some(CorruptionResponse::FailFast),
            "retry" => Some(CorruptionResponse::Retry(2)),
            "quarantine" => Some(CorruptionResponse::Quarantine),
            other => {
                let n: u32 = other.strip_prefix("retry:")?.parse().ok()?;
                if n == 0 {
                    None
                } else {
                    Some(CorruptionResponse::Retry(n))
                }
            }
        }
    }
}

impl std::fmt::Display for CorruptionResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorruptionResponse::FailFast => write!(f, "fail"),
            CorruptionResponse::Retry(n) => write!(f, "retry:{n}"),
            CorruptionResponse::Quarantine => write!(f, "quarantine"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parsing() {
        assert_eq!(VerifyPolicy::parse("off"), Some(VerifyPolicy::Off));
        assert_eq!(VerifyPolicy::parse("full"), Some(VerifyPolicy::Full));
        assert_eq!(VerifyPolicy::parse(" full "), Some(VerifyPolicy::Full));
        assert_eq!(
            VerifyPolicy::parse("sample:4"),
            Some(VerifyPolicy::Sample(4))
        );
        assert_eq!(VerifyPolicy::parse("sample:1"), Some(VerifyPolicy::Full));
        assert_eq!(VerifyPolicy::parse("sample:0"), None);
        assert_eq!(VerifyPolicy::parse("sample:x"), None);
        assert_eq!(VerifyPolicy::parse("everything"), None);
    }

    #[test]
    fn response_parsing() {
        assert_eq!(
            CorruptionResponse::parse("fail"),
            Some(CorruptionResponse::FailFast)
        );
        assert_eq!(
            CorruptionResponse::parse("retry"),
            Some(CorruptionResponse::Retry(2))
        );
        assert_eq!(
            CorruptionResponse::parse("retry:5"),
            Some(CorruptionResponse::Retry(5))
        );
        assert_eq!(CorruptionResponse::parse("retry:0"), None);
        assert_eq!(
            CorruptionResponse::parse("quarantine"),
            Some(CorruptionResponse::Quarantine)
        );
        assert_eq!(CorruptionResponse::parse("panic"), None);
    }

    #[test]
    fn selection_is_deterministic_and_respects_policy() {
        assert!(!VerifyPolicy::Off.selects("blocks/b_0_0.edges"));
        assert!(VerifyPolicy::Full.selects("blocks/b_0_0.edges"));
        let sample = VerifyPolicy::Sample(3);
        let keys: Vec<String> = (0..32).map(|i| format!("blocks/b_{i}_0.edges")).collect();
        let picked: Vec<bool> = keys.iter().map(|k| sample.selects(k)).collect();
        // Deterministic across calls.
        let again: Vec<bool> = keys.iter().map(|k| sample.selects(k)).collect();
        assert_eq!(picked, again);
        // Neither empty nor everything for a 1/3 sample of 32 keys.
        let hits = picked.iter().filter(|&&p| p).count();
        assert!(hits > 0 && hits < keys.len(), "{hits}");
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for policy in [
            VerifyPolicy::Off,
            VerifyPolicy::Sample(7),
            VerifyPolicy::Full,
        ] {
            assert_eq!(VerifyPolicy::parse(&policy.to_string()), Some(policy));
        }
        for response in [
            CorruptionResponse::FailFast,
            CorruptionResponse::Retry(3),
            CorruptionResponse::Quarantine,
        ] {
            assert_eq!(
                CorruptionResponse::parse(&response.to_string()),
                Some(response)
            );
        }
    }
}
