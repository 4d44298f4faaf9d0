//! How a run is configured: one value, built by one flag parser.
//!
//! Prefetch sizing, checkpoint cadence, verification, fault injection and
//! the trace sink all reach [`crate::runner`], [`crate::wall`] and
//! [`crate::experiments`] as a [`RunSettings`] argument — never through
//! the process environment or a global. [`RunFlags::parse`] is the only
//! place the command-line spelling of those settings is known; `gsd run`,
//! `gsd serve`, `gsd bench` and `gsd experiments` all call it, so a bad spec
//! is a usage error naming its flag on every entry point.

use crate::datasets::Scale;
use crate::trace::trace_sink;
use gsd_core::RecoveryConfig;
use gsd_core::{GraphSdConfig, PipelineConfig};
use gsd_graph::VerifyPolicy;
use gsd_integrity::{FaultConfig, FaultyStorage, RetryPolicy, RetryingStorage};
use gsd_io::SharedStorage;
use gsd_trace::TraceSink;
use std::sync::Arc;

/// Everything about a run that is not the graph, the system or the
/// algorithm. All of it is result-neutral: values, iteration counts and
/// accounted I/O are bit-identical whatever is set here (faults are
/// absorbed by the retry layer; detected corruption fails the run).
#[derive(Clone)]
pub struct RunSettings {
    /// Prefetch pipeline sizing (GraphSD variants and Lumos); `None` for
    /// fully synchronous reads.
    pub prefetch: Option<PipelineConfig>,
    /// Checkpoint cadence (GraphSD variants, Lumos, HUS-Graph); `None`
    /// runs unprotected.
    pub checkpoint: Option<RecoveryConfig>,
    /// Whether grid objects are checksummed as the run reads them (a
    /// mismatch fails the run).
    pub verify: VerifyPolicy,
    /// Seeded transient I/O faults under a bounded-retry layer, or `None`
    /// for the bare storage.
    pub faults: Option<FaultConfig>,
    /// Where engines (and the retry layer) emit trace events.
    pub sink: Arc<dyn TraceSink>,
}

impl Default for RunSettings {
    /// What the libraries do when handed nothing: synchronous reads, no
    /// checkpoints, no verification, no faults, no trace.
    fn default() -> Self {
        RunSettings {
            prefetch: None,
            checkpoint: None,
            verify: VerifyPolicy::Off,
            faults: None,
            sink: gsd_trace::null_sink(),
        }
    }
}

impl RunSettings {
    /// `base`, behind the fault injector and the bounded-retry layer when
    /// faults are set. Results are unchanged — transient faults are
    /// retried until the operation passes — only the `retried_ops`
    /// counter and `IoRetry` trace events appear.
    pub fn storage(&self, base: SharedStorage) -> SharedStorage {
        match &self.faults {
            Some(faults) => {
                let faulty: SharedStorage = Arc::new(FaultyStorage::new(base, faults.clone()));
                let mut retrying = RetryingStorage::new(faulty, RetryPolicy::default());
                retrying.set_trace(self.sink.clone());
                Arc::new(retrying)
            }
            None => base,
        }
    }

    /// `config` with this run's prefetch sizing and checkpoint cadence.
    pub fn graphsd_config(&self, config: GraphSdConfig) -> GraphSdConfig {
        GraphSdConfig {
            prefetch: self.prefetch,
            checkpoint: self.checkpoint.clone(),
            ..config
        }
    }
}

/// A command line split into the shared run flags and everything else.
pub struct RunFlags {
    /// The settings the flags spell.
    pub settings: RunSettings,
    /// `--scale` (default `small`): the size of the stand-in datasets.
    pub scale: Scale,
    /// Every argument the parser does not own, in order.
    pub rest: Vec<String>,
}

impl RunFlags {
    /// Parses the shared run flags out of `raw`:
    ///
    /// ```text
    /// --no-prefetch | --prefetch-depth N     (N ≥ 1; default: `prefetch`)
    /// --checkpoint-every N                   (N ≥ 1; default: none)
    /// --verify off|full                      (default off)
    /// --inject-faults SEED:RATE              (rate in [0, 1])
    /// --scale tiny|small|medium
    /// --trace FILE  --verbose            (→ `settings.sink`; flush it at exit)
    /// ```
    ///
    /// `prefetch` is what the entry point runs with when neither prefetch
    /// flag is given (the harnesses pipeline by default, `gsd run` and
    /// `gsd serve` do not). A later occurrence of a flag overrides an
    /// earlier one; `--no-prefetch` wins over `--prefetch-depth`.
    pub fn parse(raw: &[String], prefetch: Option<PipelineConfig>) -> Result<RunFlags, String> {
        let mut settings = RunSettings {
            prefetch,
            ..RunSettings::default()
        };
        let mut no_prefetch = false;
        let mut scale = Scale::Small;
        let mut trace = None;
        let mut verbose = false;
        let mut rest = Vec::new();

        let mut it = raw.iter().peekable();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            let mut value = || {
                it.next_if(|v| !v.starts_with("--"))
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--no-prefetch" => no_prefetch = true,
                "--verbose" => verbose = true,
                "--prefetch-depth" => {
                    settings.prefetch = Some(PipelineConfig::with_depth(
                        positive(flag, value()?)? as usize
                    ));
                }
                "--checkpoint-every" => {
                    settings.checkpoint = Some(RecoveryConfig::every(positive(flag, value()?)?));
                }
                "--verify" => {
                    let spec = value()?;
                    settings.verify = VerifyPolicy::parse(spec)
                        .ok_or_else(|| format!("{flag}: unknown spec {spec:?} (off|full)"))?;
                }
                "--inject-faults" => {
                    let spec = value()?;
                    settings.faults = Some(FaultConfig::parse(spec).ok_or_else(|| {
                        format!("{flag}: expected SEED:RATE with rate in [0, 1], got {spec:?}")
                    })?);
                }
                "--scale" => {
                    let spec = value()?;
                    scale = Scale::parse(spec).ok_or_else(|| {
                        format!("{flag}: unknown scale {spec:?} (tiny|small|medium)")
                    })?;
                }
                "--trace" => trace = Some(value()?),
                _ => rest.push(arg.clone()),
            }
        }
        if no_prefetch {
            settings.prefetch = None;
        }
        settings.sink = trace_sink(trace, verbose)?;
        Ok(RunFlags {
            settings,
            scale,
            rest,
        })
    }
}

/// An integer ≥ 1 (`--prefetch-depth`, `--checkpoint-every`).
fn positive(flag: &str, value: &str) -> Result<u32, String> {
    value
        .parse()
        .ok()
        .filter(|n| *n >= 1)
        .ok_or_else(|| format!("{flag}: expected an integer >= 1, got {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunFlags, String> {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        RunFlags::parse(&raw, Some(PipelineConfig::default()))
    }

    #[test]
    fn a_bad_spec_is_an_error_naming_its_flag() {
        for (flag, value) in [
            ("--verify", "ful"),
            ("--verify", "sample:4"),
            ("--checkpoint-every", "two"),
            ("--prefetch-depth", "0"),
            ("--inject-faults", "42:1.5"),
            ("--scale", "tinny"),
        ] {
            let err = parse(&[flag, value, "fig7"]).err();
            assert!(
                err.as_deref().is_some_and(|e| e.starts_with(flag)),
                "{flag} {value}: {err:?}"
            );
        }
        let err = parse(&["--verify", "--verbose"]).err();
        assert_eq!(err.as_deref(), Some("--verify needs a value"));
        assert!(parse(&["fig7", "--scale"]).is_err());
    }

    #[test]
    fn no_flags_is_the_entry_points_default() {
        let flags = parse(&["fig5", "--top", "3", "fig7"]).unwrap();
        assert_eq!(flags.rest, ["fig5", "--top", "3", "fig7"]);
        assert_eq!(flags.scale, Scale::Small);
        let s = &flags.settings;
        assert_eq!(s.prefetch, Some(PipelineConfig::default()));
        assert_eq!(s.checkpoint, None);
        assert_eq!(s.verify, VerifyPolicy::Off);
        assert!(s.faults.is_none());
        assert!(!s.sink.enabled());
        assert!(RunFlags::parse(&[], None)
            .unwrap()
            .settings
            .prefetch
            .is_none());
    }

    #[test]
    fn flags_spell_every_setting() {
        let flags = parse(&[
            "--scale",
            "tiny",
            "--prefetch-depth",
            "5",
            "--checkpoint-every",
            "2",
            "fig7",
            "--inject-faults",
            "42:0.01",
            "--verify",
            "full",
            "--verbose",
        ])
        .unwrap();
        assert_eq!(flags.rest, ["fig7"]);
        assert_eq!(flags.scale, Scale::Tiny);
        let s = &flags.settings;
        assert_eq!(s.prefetch, Some(PipelineConfig::with_depth(5)));
        assert_eq!(s.checkpoint, Some(RecoveryConfig::every(2)));
        assert_eq!(s.verify, VerifyPolicy::Full);
        assert!(s.faults.is_some());
        assert!(s.sink.enabled(), "--verbose installs a sink");

        let off = parse(&["--prefetch-depth", "5", "--no-prefetch"]).unwrap();
        assert_eq!(off.settings.prefetch, None);
        let config = flags
            .settings
            .graphsd_config(GraphSdConfig::b3_always_full());
        assert_eq!(config.prefetch, s.prefetch);
        assert_eq!(config.checkpoint, s.checkpoint);
        assert!(config.force_model.is_some(), "the ablation switch survives");
    }
}
