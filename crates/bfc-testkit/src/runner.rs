//! The property runner: executes N seeded cases, shrinks failures greedily,
//! and reports the failing seed so the exact case can be replayed.
//!
//! Each case gets its own seed derived from the base seed and the case index
//! with a strong mixer, the value is drawn from a fresh `SimRng::new(seed)`,
//! and the property is run under `catch_unwind` so plain `assert!` failures
//! are captured. On failure the runner greedily walks the generator's shrink
//! candidates to a local minimum and panics with a report containing the
//! case seed; setting `BFC_TESTKIT_SEED=<seed>` reruns exactly that case.

use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use bfc_sim::rng::mix64;
use bfc_sim::SimRng;

use crate::gen::Gen;

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Base seed; each case derives its own seed from this and its index.
    pub seed: u64,
    /// Cap on property evaluations spent shrinking a failure.
    pub max_shrink_evals: u32,
    /// Replay mode: run exactly one case with this per-case seed instead of
    /// the full seeded sweep. [`Config::from_env`] fills it from
    /// `BFC_TESTKIT_SEED`; a `Config::default()` is never affected by the
    /// environment, so programmatic callers stay deterministic.
    pub replay_seed: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            seed: 0x5EED_0BFC,
            max_shrink_evals: 2_000,
            replay_seed: None,
        }
    }
}

impl Config {
    /// Default configuration, honouring the `BFC_TESTKIT_CASES` (case count)
    /// and `BFC_TESTKIT_SEED` (single-case replay) environment variables.
    pub fn from_env() -> Self {
        let mut config = Config::default();
        if let Some(cases) = read_env_u64("BFC_TESTKIT_CASES") {
            config.cases = cases.clamp(1, 1_000_000) as u32;
        }
        config.replay_seed = read_env_u64("BFC_TESTKIT_SEED");
        config
    }

    /// Overrides the number of cases.
    pub fn with_cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Overrides the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn read_env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("could not parse {name}={raw:?} as a u64 (decimal or 0x-hex)"),
    }
}

/// A captured property failure (used by [`check_result`]; [`check`] turns it
/// into a panic report).
#[derive(Debug, Clone)]
pub struct Failure {
    /// Name of the property that failed.
    pub property: String,
    /// Index of the failing case within the run.
    pub case: u32,
    /// The per-case seed: `SimRng::new(seed)` regenerates the input exactly.
    pub seed: u64,
    /// Debug rendering of the originally generated failing input.
    pub original_input: String,
    /// Panic message of the original failure.
    pub original_error: String,
    /// Debug rendering of the shrunk (locally minimal) failing input.
    pub shrunk_input: String,
    /// Panic message of the shrunk failure.
    pub shrunk_error: String,
    /// Number of successful shrink steps taken.
    pub shrink_steps: u32,
}

impl Failure {
    /// The human-readable report [`check`] panics with.
    pub fn report(&self) -> String {
        format!(
            "property '{}' failed at case {} (seed {:#018x})\n\
             \x20 shrunk input ({} shrink steps): {}\n\
             \x20 shrunk error: {}\n\
             \x20 original input: {}\n\
             \x20 original error: {}\n\
             \x20 replay exactly this case with: BFC_TESTKIT_SEED={:#x} cargo test {}\n",
            self.property,
            self.case,
            self.seed,
            self.shrink_steps,
            self.shrunk_input,
            self.shrunk_error,
            self.original_input,
            self.original_error,
            self.seed,
            self.property,
        )
    }
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that suppresses printing for
/// panics the runner is catching on purpose, and forwards everything else to
/// the previous hook. Without this every probed shrink candidate would spam
/// the test output with an expected panic message.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs the property on one value, capturing an `assert!`/`panic!` failure as
/// `Err(message)`.
fn run_case<V, P: Fn(&V)>(prop: &P, value: &V) -> Result<(), String> {
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
    QUIET_PANICS.with(|q| q.set(false));
    outcome.map_err(panic_message)
}

/// Greedy shrink: repeatedly adopt the first candidate that still fails.
fn shrink_failure<G: Gen, P: Fn(&G::Value)>(
    gen: &G,
    mut current: G::Value,
    mut current_error: String,
    prop: &P,
    max_evals: u32,
) -> (G::Value, String, u32) {
    let mut evals = 0u32;
    let mut steps = 0u32;
    'outer: loop {
        for candidate in gen.shrink(&current) {
            if evals >= max_evals {
                break 'outer;
            }
            evals += 1;
            if let Err(error) = run_case(prop, &candidate) {
                current = candidate;
                current_error = error;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, current_error, steps)
}

/// The per-case seed for `case` under `base_seed`.
pub fn case_seed(base_seed: u64, case: u32) -> u64 {
    mix64(base_seed ^ mix64(case as u64 + 1))
}

/// Like [`check`] but returns the failure instead of panicking. This is the
/// testable core; property tests should use [`check`] or the
/// [`property!`](crate::property) macro.
pub fn check_result<G, P>(name: &str, config: Config, gen: &G, prop: P) -> Result<(), Failure>
where
    G: Gen,
    P: Fn(&G::Value),
{
    install_quiet_hook();
    // Replay mode: a single explicit case seed.
    let cases = if config.replay_seed.is_some() {
        1
    } else {
        config.cases
    };
    for case in 0..cases {
        let seed = config
            .replay_seed
            .unwrap_or_else(|| case_seed(config.seed, case));
        let value = gen.generate(&mut SimRng::new(seed));
        if let Err(error) = run_case(&prop, &value) {
            let original_input = format!("{value:?}");
            let (shrunk, shrunk_error, shrink_steps) =
                shrink_failure(gen, value, error.clone(), &prop, config.max_shrink_evals);
            return Err(Failure {
                property: name.to_string(),
                case,
                seed,
                original_input,
                original_error: error,
                shrunk_input: format!("{shrunk:?}"),
                shrunk_error,
                shrink_steps,
            });
        }
    }
    Ok(())
}

/// Runs `config.cases` seeded cases of `prop` against values drawn from
/// `gen`, panicking with a full report (failing seed, original and shrunk
/// inputs) on the first failure.
pub fn check<G, P>(name: &str, config: Config, gen: G, prop: P)
where
    G: Gen,
    P: Fn(&G::Value),
{
    if let Err(failure) = check_result(name, config, &gen, prop) {
        panic!("{}", failure.report());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{int_range, pair, vec_of};

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        let result = check_result(
            "always_true",
            Config::default().with_cases(37),
            &int_range(0u64..100),
            |_| counter.set(counter.get() + 1),
        );
        assert!(result.is_ok());
        assert_eq!(counter.get(), 37);
    }

    #[test]
    fn failing_property_reports_and_replays_from_seed() {
        let gen = vec_of(int_range(0u64..1000), 1..50);
        let prop = |v: &Vec<u64>| assert!(v.iter().all(|&x| x < 700), "saw a large element");
        let failure = check_result("has_no_large_elements", Config::default(), &gen, prop)
            .expect_err("property must fail: ~30% of elements are >= 700");

        // The printed seed regenerates the exact failing input.
        let replayed = gen.generate(&mut SimRng::new(failure.seed));
        assert_eq!(format!("{replayed:?}"), failure.original_input);
        assert!(run_case(&prop, &replayed).is_err());

        // The report names the property, the seed, and the replay recipe.
        let report = failure.report();
        assert!(report.contains("has_no_large_elements"));
        assert!(report.contains(&format!("BFC_TESTKIT_SEED={:#x}", failure.seed)));
        assert!(report.contains("saw a large element"));
    }

    #[test]
    fn shrinking_reaches_the_minimal_counterexample() {
        // The minimal failing input for "no element >= 700" under
        // vec(0..1000, len 1..50) is the single-element vector [700].
        let gen = vec_of(int_range(0u64..1000), 1..50);
        let failure = check_result("shrinks_to_700", Config::default(), &gen, |v: &Vec<u64>| {
            assert!(v.iter().all(|&x| x < 700))
        })
        .expect_err("property must fail");
        assert_eq!(failure.shrunk_input, "[700]");
        assert!(failure.shrink_steps > 0);
    }

    #[test]
    fn shrinking_tuples_minimizes_each_component() {
        let gen = pair(int_range(0u32..100), int_range(0u32..100));
        let failure = check_result(
            "sum_small",
            Config::default(),
            &gen,
            |&(a, b): &(u32, u32)| assert!(a + b < 50),
        )
        .expect_err("property must fail");
        // Minimal counterexamples have a + b == 50 with one component 0.
        assert!(failure.shrunk_input == "(50, 0)" || failure.shrunk_input == "(0, 50)");
    }

    #[test]
    fn case_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..1000).map(|c| case_seed(1, c)).collect();
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(case_seed(1, 5), case_seed(1, 5));
        assert_ne!(case_seed(1, 5), case_seed(2, 5));
    }

    #[test]
    fn same_config_is_fully_deterministic() {
        let gen = vec_of(int_range(0u64..1_000_000), 1..30);
        let config = Config::default().with_cases(16).with_seed(77);
        let mut first: Vec<String> = Vec::new();
        let result = check_result("record_inputs", config, &gen, |v| {
            let _ = v;
        });
        assert!(result.is_ok());
        for case in 0..16 {
            first.push(format!(
                "{:?}",
                gen.generate(&mut SimRng::new(case_seed(77, case)))
            ));
        }
        let second: Vec<String> = (0..16)
            .map(|case| format!("{:?}", gen.generate(&mut SimRng::new(case_seed(77, case)))))
            .collect();
        assert_eq!(first, second);
    }
}
