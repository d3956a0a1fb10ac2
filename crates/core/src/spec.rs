//! The campaign spec: what names a supervised campaign, its defaults, and
//! its one mapping onto a [`CampaignConfig`].
//!
//! The `mopfuzzer` CLI (`--rounds R --rng S --iterations I --jobs J
//! --oracle-jobs K --round-timeout MS --corpus DIR`) and a `mopfuzzerd`
//! tenant (`POST /campaigns` with the same fields in JSON) both resolve
//! their settings here. A tenant's journal is byte-identical to the CLI's
//! at the same settings because there is only this one resolution to
//! agree with.

use crate::campaign::CampaignConfig;
use crate::supervisor::SupervisorConfig;
use jtelemetry::schema::{escape_json, parse_json, Json};
use std::path::PathBuf;

/// Campaign RNG seed when none is given.
pub const DEFAULT_SEED: u64 = 0;

/// Mutation iterations per seed when none are given (the paper's
/// artifact setting).
pub const DEFAULT_ITERATIONS: usize = 50;

/// Most round workers, and most oracle workers, one campaign may ask
/// for. The shared work pool starts one OS thread per busy dispatch, and
/// a campaign keeps up to twice its round workers in flight, so an
/// unbounded count would let one request ask for a thread per round.
pub const MAX_JOBS: usize = 256;

/// `--jobs` default: every hardware thread, up to [`MAX_JOBS`]. Campaign
/// output is identical at any worker count, so there is no correctness
/// reason to default low.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_JOBS)
}

/// `--oracle-jobs` default: the hardware threads `jobs` round workers
/// leave over, at least 1 (a serial oracle). Both engines draw from one
/// shared process-wide pool, so this default never oversubscribes: with
/// `jobs` saturating the machine the oracle stays serial, and with a
/// small `jobs` the idle threads fan out differential executions instead.
/// A run with no round workers (plain fuzzing) passes 0 and gets every
/// hardware thread.
pub fn default_oracle_jobs(jobs: usize) -> usize {
    default_jobs().saturating_sub(jobs).max(1)
}

/// Checks an explicit worker count against `1..=MAX_JOBS`; `name` is how
/// the caller spells the setting in its error.
pub fn check_jobs(name: &str, jobs: u64) -> Result<usize, String> {
    match usize::try_from(jobs) {
        Ok(n @ 1..=MAX_JOBS) => Ok(n),
        _ => Err(format!(
            "{name} must be between 1 and {MAX_JOBS}, got {jobs}"
        )),
    }
}

/// `(jobs, oracle_jobs)` for a campaign: the given counts (already passed
/// through [`check_jobs`]), defaulting the missing ones — the oracle
/// default depends on the round workers.
pub fn resolve_workers(jobs: Option<usize>, oracle_jobs: Option<usize>) -> (usize, usize) {
    let jobs = jobs.unwrap_or_else(default_jobs);
    (
        jobs,
        oracle_jobs.unwrap_or_else(|| default_oracle_jobs(jobs)),
    )
}

/// One campaign's parameters, fully resolved. A daemon tenant persists
/// it as `spec.json` in the same shape [`CampaignSpec::from_json`] reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Supervised rounds to run.
    pub rounds: usize,
    /// Campaign RNG seed (`--rng`, JSON `"seed"`; default [`DEFAULT_SEED`]).
    pub rng_seed: u64,
    /// Mutation iterations per seed (default [`DEFAULT_ITERATIONS`]).
    pub iterations: usize,
    /// Corpus store directory; `None` fuzzes the built-in corpus.
    pub corpus: Option<PathBuf>,
    /// Round-level worker threads (default [`default_jobs`]).
    pub jobs: usize,
    /// Oracle worker threads (default [`default_oracle_jobs`]).
    pub oracle_jobs: usize,
    /// Wall-clock round timeout in milliseconds, if any.
    pub round_timeout_ms: Option<u64>,
}

impl CampaignSpec {
    /// Parses a submission body, rejecting unknown keys so a typo'd
    /// option fails loudly instead of silently running with defaults.
    /// Integers must be exact non-negative integers that fit: a seed
    /// past 2^53 keeps every bit, and `1.5`, `-1`, `1e300` or a value
    /// past `u64::MAX` is an error, never a rounded or saturated value.
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        let json = parse_json(text)?;
        let Json::Obj(map) = &json else {
            return Err("campaign spec must be a JSON object".to_string());
        };
        const KNOWN: [&str; 7] = [
            "rounds",
            "seed",
            "iterations",
            "corpus",
            "jobs",
            "oracle_jobs",
            "round_timeout_ms",
        ];
        if let Some(key) = map.keys().find(|k| !KNOWN.contains(&k.as_str())) {
            return Err(format!("unknown spec field \"{key}\""));
        }
        let int = |key: &str| -> Result<Option<u64>, String> {
            match json.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                    format!("\"{key}\" must be an integer between 0 and {}", u64::MAX)
                }),
            }
        };
        let size = |key: &str| -> Result<Option<usize>, String> {
            int(key)?
                .map(|n| usize::try_from(n).map_err(|_| format!("\"{key}\" is too large")))
                .transpose()
        };
        let workers = |key: &str| -> Result<Option<usize>, String> {
            int(key)?
                .map(|n| check_jobs(&format!("\"{key}\""), n))
                .transpose()
        };
        let rounds = size("rounds")?.ok_or_else(|| "\"rounds\" is required".to_string())?;
        if rounds == 0 {
            return Err("\"rounds\" must be >= 1".to_string());
        }
        let corpus = match json.get("corpus") {
            None | Some(Json::Null) => None,
            Some(Json::Str(dir)) => Some(PathBuf::from(dir)),
            Some(_) => return Err("\"corpus\" must be a string".to_string()),
        };
        let (jobs, oracle_jobs) = resolve_workers(workers("jobs")?, workers("oracle_jobs")?);
        Ok(CampaignSpec {
            rounds,
            rng_seed: int("seed")?.unwrap_or(DEFAULT_SEED),
            iterations: size("iterations")?.unwrap_or(DEFAULT_ITERATIONS),
            corpus,
            jobs,
            oracle_jobs,
            round_timeout_ms: int("round_timeout_ms")?,
        })
    }

    /// The resolved spec, in the same shape `from_json` accepts.
    pub fn to_json(&self) -> String {
        let corpus = match &self.corpus {
            Some(dir) => format!("\"{}\"", escape_json(&dir.display().to_string())),
            None => "null".to_string(),
        };
        let timeout = match self.round_timeout_ms {
            Some(ms) => ms.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"rounds\":{},\"seed\":{},\"iterations\":{},\"corpus\":{corpus},\
             \"jobs\":{},\"oracle_jobs\":{},\"round_timeout_ms\":{timeout}}}",
            self.rounds, self.rng_seed, self.iterations, self.jobs, self.oracle_jobs,
        )
    }

    /// The campaign this spec names: full guidance, the standard
    /// differential pool, the default supervisor policy with the spec's
    /// round timeout, no fault injection. The CLI's testing flags
    /// (`--jdk`, `--fault-rate`, budgets, ...) adjust the result; the
    /// corpus directory is the caller's to open.
    pub fn config(&self) -> CampaignConfig {
        CampaignConfig {
            iterations_per_seed: self.iterations,
            rng_seed: self.rng_seed,
            supervisor: SupervisorConfig {
                round_wall_timeout_ms: self.round_timeout_ms,
                ..SupervisorConfig::default()
            },
            jobs: self.jobs,
            oracle_jobs: self.oracle_jobs,
            ..CampaignConfig::new(self.rounds)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_come_from_one_place() {
        let spec = CampaignSpec::from_json("{\"rounds\": 3}").unwrap();
        assert_eq!((spec.rounds, spec.rng_seed, spec.iterations), (3, 0, 50));
        assert_eq!((spec.corpus, spec.round_timeout_ms), (None, None));
        assert_eq!((spec.jobs, spec.oracle_jobs), resolve_workers(None, None));
        assert_eq!(spec.oracle_jobs, default_oracle_jobs(default_jobs()));
        assert!((1..=MAX_JOBS).contains(&default_jobs()));
        assert_eq!(default_oracle_jobs(0), default_jobs());
        assert_eq!(resolve_workers(None, Some(3)), (default_jobs(), 3));
        assert_eq!(resolve_workers(Some(1), None), (1, default_oracle_jobs(1)));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CampaignSpec {
            rounds: 4,
            rng_seed: u64::MAX,
            iterations: 10,
            corpus: Some(PathBuf::from("/tmp/store \"q\"")),
            jobs: MAX_JOBS,
            oracle_jobs: 3,
            round_timeout_ms: Some(500),
        };
        assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn spec_integers_are_exact() {
        let spec = CampaignSpec::from_json("{\"rounds\":1,\"seed\":9007199254740993}").unwrap();
        assert_eq!(spec.rng_seed, 9_007_199_254_740_993);
        assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
        for body in [
            "{\"rounds\":1,\"seed\":18446744073709551616}",
            "{\"rounds\":1e300}",
            "{\"rounds\":1.5}",
            "{\"rounds\":1,\"jobs\":-1}",
            "{\"rounds\":1,\"seed\":NaN}",
            "{\"rounds\":1,\"round_timeout_ms\":\"5\"}",
        ] {
            let err = CampaignSpec::from_json(body).unwrap_err();
            assert!(err.contains("must be an integer"), "{body}: {err}");
        }
    }

    #[test]
    fn spec_rejects_worker_counts_above_the_ceiling() {
        for key in ["jobs", "oracle_jobs"] {
            let body = |n: u64| format!("{{\"rounds\":100000,\"{key}\":{n}}}");
            assert!(CampaignSpec::from_json(&body(MAX_JOBS as u64)).is_ok());
            for n in [0, MAX_JOBS as u64 + 1, 100_000, u64::MAX] {
                let err = CampaignSpec::from_json(&body(n)).unwrap_err();
                assert!(err.contains(&format!("\"{key}\" must be between 1 and 256")));
            }
        }
    }

    #[test]
    fn spec_rejects_bad_input() {
        for (body, why) in [
            ("{}", "rounds"),
            ("{\"rounds\":0}", ">= 1"),
            ("{\"rounds\":2,\"jbos\":1}", "unknown spec field"),
            ("{\"rounds\":2,\"corpus\":7}", "corpus"),
            ("[1]", "object"),
            ("not json", "parse error"),
        ] {
            let err = CampaignSpec::from_json(body).unwrap_err();
            assert!(err.contains(why), "{body}: {err}");
        }
    }

    #[test]
    fn config_is_the_standard_campaign_at_the_spec() {
        let spec = CampaignSpec::from_json(
            "{\"rounds\":6,\"seed\":9,\"iterations\":7,\"jobs\":2,\"oracle_jobs\":3,\
             \"round_timeout_ms\":250}",
        )
        .unwrap();
        let (config, standard) = (spec.config(), CampaignConfig::new(6));
        assert_eq!(
            (config.rounds, config.rng_seed, config.iterations_per_seed),
            (6, 9, 7)
        );
        assert_eq!((config.jobs, config.oracle_jobs), (2, 3));
        let timeout = Some(250);
        assert_eq!(config.supervisor.round_wall_timeout_ms, timeout);
        assert_eq!(
            config.supervisor,
            SupervisorConfig {
                round_wall_timeout_ms: timeout,
                ..standard.supervisor
            }
        );
        assert_eq!((config.variant, config.fault), (standard.variant, None));
        assert_eq!(config.pool.len(), standard.pool.len());
    }
}
