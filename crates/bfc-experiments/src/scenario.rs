//! Scenario specifications: human-writable fault schedules.
//!
//! A [`ScenarioSpec`] names links by node *labels* (`"tor0"`, `"spine1"`,
//! `"host17"` — or numeric node ids) and times by human units, and resolves
//! against a concrete [`Topology`] into the [`FaultSchedule`] the experiment
//! driver executes. Build one with the fluent API, or parse the small
//! std-only text format:
//!
//! ```text
//! # one directive per line; blank lines and #-comments are ignored
//! at 100us down tor0 spine0        # cable dies
//! at 300us up   tor0 spine0        # cable repaired
//! at 150us rate tor1 spine1 25     # degrade to 25 Gbps
//! flap tor0 spine1 from 80us every 40us until 280us
//! ```
//!
//! Times are `<integer><unit>` with unit `ps`, `ns`, `us`, `ms` or `s`. A
//! `flap` expands to alternating `down`/`up` events every period, starting
//! down at `from`; a toggle landing exactly on `until` is excluded (the
//! window is half-open), and if the expansion would leave the link down at
//! `until`, a final `up` is appended there, so a flapped link always ends
//! the scenario up; a flap of more than 1 000 toggles is refused. A `rate`
//! may degrade a cable or restore it, never raise it above its native rate
//! (refused at [`ScenarioSpec::resolve`]). Steps at
//! identical timestamps are applied in spec order ([`FaultSchedule`] sorts
//! stably).
//!
//! The format also round-trips: [`ScenarioSpec`] implements [`Display`],
//! emitting one `at` directive per (expanded) step using the largest time
//! unit that is exact, so `parse(spec.to_string())` reconstructs the same
//! spec. This is what the fuzzer uses to serialize shrunk reproducers.
//!
//! [`Display`]: fmt::Display
//!
//! Canonical shapes used by the failure-sweep figure and the tier-1 tests
//! are provided as constructors: [`ScenarioSpec::single_link_down_up`],
//! [`ScenarioSpec::degraded_link`] and [`ScenarioSpec::flapping_link`].

use std::collections::HashMap;
use std::fmt;

use bfc_net::dynamics::{DynamicsError, FaultEvent, FaultSchedule, LinkAction};
use bfc_net::topology::Topology;
use bfc_net::types::NodeId;
use bfc_sim::{SimDuration, SimTime};

/// Most toggles one `flap` may expand to, so that one directive cannot ask
/// for more steps than memory holds (the figures' and the fuzzer's: 17).
pub const MAX_FLAP_STEPS: u64 = 1_000;

/// A positive period, a non-empty window and at most [`MAX_FLAP_STEPS`] toggles.
fn flap_is_valid(from: SimDuration, period: SimDuration, until: SimDuration) -> bool {
    !period.is_zero()
        && from < until
        && (until - from).as_picos().div_ceil(period.as_picos()) <= MAX_FLAP_STEPS
}

/// What one scenario step does to its link.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StepAction {
    Down,
    Up,
    Rate(f64),
}

/// One resolved-later scenario step: an action on the cable between two
/// named endpoints at a relative instant.
#[derive(Debug, Clone, PartialEq)]
struct Step {
    at: SimDuration,
    a: String,
    b: String,
    action: StepAction,
}

/// A link-dynamics scenario with endpoints still referred to by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSpec {
    steps: Vec<Step>,
}

/// A line-numbered scenario parse / resolve error.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// 1-based line of the offending directive (0 for builder/resolve errors
    /// not tied to a line).
    pub line: usize,
    /// What went wrong.
    pub kind: ScenarioErrorKind,
}

/// The ways a scenario can be malformed.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioErrorKind {
    /// A directive did not match any known form.
    BadDirective {
        /// The offending text.
        found: String,
    },
    /// A time field failed to parse.
    BadTime {
        /// The offending text.
        value: String,
    },
    /// A rate field failed to parse or was not positive.
    BadRate {
        /// The offending text.
        value: String,
    },
    /// A flap's period was zero, or its window empty or over [`MAX_FLAP_STEPS`] toggles.
    BadFlap,
    /// An endpoint name matched no node label or id of the topology.
    UnknownEndpoint {
        /// The name that failed to resolve.
        name: String,
    },
    /// The resolved endpoints are not connected by a cable.
    Dynamics(DynamicsError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: ", self.line)?;
        }
        match &self.kind {
            ScenarioErrorKind::BadDirective { found } => write!(
                f,
                "unrecognized directive `{found}` (expected `at <time> down|up|rate <a> <b> [gbps]` \
                 or `flap <a> <b> from <time> every <period> until <time>`)"
            ),
            ScenarioErrorKind::BadTime { value } => write!(
                f,
                "bad time `{value}`: expected <integer><ps|ns|us|ms|s>"
            ),
            ScenarioErrorKind::BadRate { value } => {
                write!(f, "bad rate `{value}`: expected a positive Gbps number")
            }
            ScenarioErrorKind::BadFlap => {
                let n = MAX_FLAP_STEPS;
                write!(f, "flap needs a positive period, `from` < `until`, at most {n} toggles")
            }
            ScenarioErrorKind::UnknownEndpoint { name } => {
                write!(f, "`{name}` is neither a node label nor a node id of the topology")
            }
            ScenarioErrorKind::Dynamics(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Parses `<integer><ps|ns|us|ms|s>` into a duration. All arithmetic is
/// checked against the picosecond clock domain, so absurd values are a parse
/// error, never an overflow.
fn parse_time(text: &str) -> Option<SimDuration> {
    let split = text.find(|c: char| !c.is_ascii_digit())?;
    let (digits, unit) = text.split_at(split);
    if digits.is_empty() {
        return None;
    }
    let value: u64 = digits.parse().ok()?;
    let ps_per_unit: u64 = match unit {
        "ps" => 1,
        "ns" => 1_000,
        "us" => 1_000_000,
        "ms" => 1_000_000_000,
        "s" => 1_000_000_000_000,
        _ => return None,
    };
    Some(SimDuration::from_picos(value.checked_mul(ps_per_unit)?))
}

/// Formats a duration as `<integer><unit>` with the largest unit that is
/// exact, the inverse of [`parse_time`]. The `ps` unit makes every
/// representable duration serializable, so `Display` → `parse` is lossless.
fn format_time(d: SimDuration) -> String {
    let ps = d.as_picos();
    let (per, unit) = [
        (1_000_000_000_000u64, "s"),
        (1_000_000_000, "ms"),
        (1_000_000, "us"),
        (1_000, "ns"),
        (1, "ps"),
    ]
    .into_iter()
    .find(|(per, _)| ps % per == 0)
    .expect("everything divides by 1ps");
    format!("{}{unit}", ps / per)
}

/// Serializes back to the text format: one `at` directive per (expanded)
/// step, in spec order. Flaps were expanded at build time, so they reappear
/// as their constituent `down`/`up` steps; parsing the output reconstructs
/// an equal [`ScenarioSpec`]. Rates round-trip exactly (Rust's shortest
/// float repr re-parses to the same bits).
impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            let at = format_time(step.at);
            match step.action {
                StepAction::Down => writeln!(f, "at {at} down {} {}", step.a, step.b)?,
                StepAction::Up => writeln!(f, "at {at} up {} {}", step.a, step.b)?,
                StepAction::Rate(gbps) => writeln!(f, "at {at} rate {} {} {gbps}", step.a, step.b)?,
            }
        }
        Ok(())
    }
}

impl ScenarioSpec {
    /// An empty scenario.
    pub fn new() -> Self {
        ScenarioSpec::default()
    }

    /// Number of (expanded) steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the scenario has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    fn push(
        mut self,
        at: SimDuration,
        a: impl Into<String>,
        b: impl Into<String>,
        action: StepAction,
    ) -> Self {
        self.steps.push(Step {
            at,
            a: a.into(),
            b: b.into(),
            action,
        });
        self
    }

    /// Takes the `a`–`b` cable down at `at`.
    pub fn down(self, at: SimDuration, a: impl Into<String>, b: impl Into<String>) -> Self {
        self.push(at, a, b, StepAction::Down)
    }

    /// Brings the `a`–`b` cable back up at `at`.
    pub fn up(self, at: SimDuration, a: impl Into<String>, b: impl Into<String>) -> Self {
        self.push(at, a, b, StepAction::Up)
    }

    /// Sets the `a`–`b` cable rate to `gbps` at `at`.
    pub fn rate(
        self,
        at: SimDuration,
        a: impl Into<String>,
        b: impl Into<String>,
        gbps: f64,
    ) -> Self {
        self.push(at, a, b, StepAction::Rate(gbps))
    }

    /// Flaps the `a`–`b` cable: down at `from`, then alternating up/down
    /// every `period` while strictly before `until`; a final `up` at `until`
    /// is appended if the expansion would end with the link down.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, `from >= until`, or the window holds more
    /// than [`MAX_FLAP_STEPS`] toggles — programmer error in the builder
    /// API, like every zero-rate `Link`. The text-format parse path
    /// validates the same condition first and reports
    /// [`ScenarioErrorKind::BadFlap`] instead.
    pub fn flap(
        mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        from: SimDuration,
        period: SimDuration,
        until: SimDuration,
    ) -> Self {
        let (a, b) = (a.into(), b.into());
        assert!(
            flap_is_valid(from, period, until),
            "flap needs a positive period, a non-empty window and at most {MAX_FLAP_STEPS} toggles"
        );
        let mut at = from;
        let mut down = true;
        while at < until {
            let action = if down {
                StepAction::Down
            } else {
                StepAction::Up
            };
            self.steps.push(Step {
                at,
                a: a.clone(),
                b: b.clone(),
                action,
            });
            down = !down;
            at += period;
        }
        if down {
            // The loop ended right after an `up`: nothing to repair.
        } else {
            self.steps.push(Step {
                at: until,
                a,
                b,
                action: StepAction::Up,
            });
        }
        self
    }

    /// Canonical shape 1: one cable dies at `down_at` and is repaired at
    /// `up_at`.
    pub fn single_link_down_up(
        a: impl Into<String>,
        b: impl Into<String>,
        down_at: SimDuration,
        up_at: SimDuration,
    ) -> Self {
        let (a, b) = (a.into(), b.into());
        ScenarioSpec::new()
            .down(down_at, a.clone(), b.clone())
            .up(up_at, a, b)
    }

    /// Canonical shape 2: one cable degrades to `gbps` at `at` and is
    /// restored to `restore_gbps` at `restore_at`.
    pub fn degraded_link(
        a: impl Into<String>,
        b: impl Into<String>,
        at: SimDuration,
        gbps: f64,
        restore_at: SimDuration,
        restore_gbps: f64,
    ) -> Self {
        let (a, b) = (a.into(), b.into());
        ScenarioSpec::new()
            .rate(at, a.clone(), b.clone(), gbps)
            .rate(restore_at, a, b, restore_gbps)
    }

    /// Canonical shape 3: one cable flaps from `from` every `period` until
    /// `until` (ending up).
    pub fn flapping_link(
        a: impl Into<String>,
        b: impl Into<String>,
        from: SimDuration,
        period: SimDuration,
        until: SimDuration,
    ) -> Self {
        ScenarioSpec::new().flap(a, b, from, period, until)
    }

    /// Parses the text format (see the module docs). Errors carry the
    /// 1-based line number; malformed input never panics.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut spec = ScenarioSpec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let content = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if content.is_empty() {
                continue;
            }
            let fields: Vec<&str> = content.split_whitespace().collect();
            let bad = |kind| ScenarioError { line, kind };
            let time = |value: &str| {
                parse_time(value).ok_or_else(|| {
                    bad(ScenarioErrorKind::BadTime {
                        value: value.to_string(),
                    })
                })
            };
            match fields.as_slice() {
                ["at", t, "down", a, b] => {
                    spec = spec.down(time(t)?, *a, *b);
                }
                ["at", t, "up", a, b] => {
                    spec = spec.up(time(t)?, *a, *b);
                }
                ["at", t, "rate", a, b, gbps] => {
                    let rate: f64 = gbps.parse().map_err(|_| {
                        bad(ScenarioErrorKind::BadRate {
                            value: gbps.to_string(),
                        })
                    })?;
                    if !(rate > 0.0) {
                        return Err(bad(ScenarioErrorKind::BadRate {
                            value: gbps.to_string(),
                        }));
                    }
                    spec = spec.rate(time(t)?, *a, *b, rate);
                }
                ["flap", a, b, "from", t0, "every", p, "until", t1] => {
                    let (from, period, until) = (time(t0)?, time(p)?, time(t1)?);
                    if !flap_is_valid(from, period, until) {
                        return Err(bad(ScenarioErrorKind::BadFlap));
                    }
                    spec = spec.flap(*a, *b, from, period, until);
                }
                _ => {
                    return Err(bad(ScenarioErrorKind::BadDirective {
                        found: content.to_string(),
                    }))
                }
            }
        }
        Ok(spec)
    }

    /// Resolves endpoint names against `topo` (labels first, then numeric
    /// ids), checks adjacency and rates, and returns the executable
    /// time-sorted [`FaultSchedule`].
    pub fn resolve(&self, topo: &Topology) -> Result<FaultSchedule, ScenarioError> {
        let mut by_label: HashMap<&str, NodeId> = HashMap::new();
        for node in 0..topo.num_nodes() {
            let id = NodeId(node as u32);
            by_label.insert(topo.label(id), id);
        }
        let lookup = |name: &str| -> Result<NodeId, ScenarioError> {
            if let Some(&id) = by_label.get(name) {
                return Ok(id);
            }
            if let Ok(raw) = name.parse::<u32>() {
                if (raw as usize) < topo.num_nodes() {
                    return Ok(NodeId(raw));
                }
            }
            Err(ScenarioError {
                line: 0,
                kind: ScenarioErrorKind::UnknownEndpoint {
                    name: name.to_string(),
                },
            })
        };
        let mut events = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let a = lookup(&step.a)?;
            let b = lookup(&step.b)?;
            let action = match step.action {
                StepAction::Down => LinkAction::Down { a, b },
                StepAction::Up => LinkAction::Up { a, b },
                StepAction::Rate(gbps) => LinkAction::SetRate { a, b, gbps },
            };
            events.push(FaultEvent {
                at: SimTime::ZERO + step.at,
                action,
            });
        }
        let schedule = FaultSchedule::new(events);
        schedule.validate(topo).map_err(|e| ScenarioError {
            line: 0,
            kind: ScenarioErrorKind::Dynamics(e),
        })?;
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfc_net::dynamics::MAX_LINK_GBPS;
    use bfc_net::topology::{fat_tree, FatTreeParams};

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn text_round_trip_resolves_against_labels() {
        let text = "\
# single failure with repair, a degrade, and a flap
at 100us down tor0 spine0
at 300us up   tor0 spine0   # repaired
at 150us rate tor1 spine1 25

flap tor0 spine1 from 80us every 40us until 200us
";
        let spec = ScenarioSpec::parse(text).expect("valid scenario");
        let topo = fat_tree(FatTreeParams::tiny());
        let schedule = spec.resolve(&topo).expect("labels resolve");
        assert!(!schedule.is_empty());
        // flap 80..200 every 40: down@80 up@120 down@160 + final up@200 = 4.
        assert_eq!(schedule.len(), 3 + 4);
        // Events come out time-sorted.
        let times: Vec<_> = schedule.events().iter().map(|e| e.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(times[0], SimTime::from_micros(80));
    }

    #[test]
    fn numeric_ids_are_accepted() {
        let topo = fat_tree(FatTreeParams::tiny());
        let tor = topo.switches()[0];
        let host = topo.hosts()[0];
        let spec = ScenarioSpec::new().down(us(10), host.0.to_string(), tor.0.to_string());
        let schedule = spec.resolve(&topo).expect("ids resolve");
        assert_eq!(schedule.len(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = ScenarioSpec::parse("at 10us down tor0 spine0\nat banana down a b\n")
            .expect_err("bad time");
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ScenarioErrorKind::BadTime { .. }));
        assert!(err.to_string().contains("line 2"));

        let err = ScenarioSpec::parse("at 10us explode tor0 spine0\n").expect_err("bad verb");
        assert!(matches!(err.kind, ScenarioErrorKind::BadDirective { .. }));

        let err = ScenarioSpec::parse("at 10us rate tor0 spine0 -3\n").expect_err("bad rate");
        assert!(matches!(err.kind, ScenarioErrorKind::BadRate { .. }));

        let err = ScenarioSpec::parse("flap a b from 90us every 0us until 100us\n")
            .expect_err("bad flap");
        assert!(matches!(err.kind, ScenarioErrorKind::BadFlap));
    }

    #[test]
    fn resolve_rejects_unknown_names_and_non_adjacent_links() {
        let topo = fat_tree(FatTreeParams::tiny());
        let err = ScenarioSpec::new()
            .down(us(1), "tor0", "nonsuch")
            .resolve(&topo)
            .expect_err("unknown label");
        assert!(matches!(
            err.kind,
            ScenarioErrorKind::UnknownEndpoint { .. }
        ));

        let err = ScenarioSpec::new()
            .down(us(1), "host0", "host1")
            .resolve(&topo)
            .expect_err("hosts are not adjacent");
        assert!(matches!(
            err.kind,
            ScenarioErrorKind::Dynamics(DynamicsError::NotAdjacent { .. })
        ));
    }

    #[test]
    fn flap_always_ends_up() {
        // Expansion ends after a down (down@80 up@120 down@160): a final up
        // is appended at `until`.
        let spec = ScenarioSpec::flapping_link("a", "b", us(80), us(40), us(200));
        assert_eq!(spec.len(), 4);
        let last = spec.steps.last().expect("non-empty");
        assert_eq!((last.at, last.action), (us(200), StepAction::Up));
        // Expansion ends right after an up (down@80 up@120): nothing
        // appended, and no up-after-up pair is produced.
        let spec = ScenarioSpec::flapping_link("a", "b", us(80), us(40), us(160));
        assert_eq!(spec.len(), 2);
        let actions: Vec<StepAction> = spec.steps.iter().map(|s| s.action).collect();
        assert_eq!(actions, vec![StepAction::Down, StepAction::Up]);
        // Window cut mid-down: final up appended at `until`.
        let spec = ScenarioSpec::flapping_link("a", "b", us(80), us(40), us(170));
        let last = spec.steps.last().expect("non-empty");
        assert_eq!((last.at, last.action), (us(170), StepAction::Up));
    }

    #[test]
    fn a_flap_of_more_than_max_flap_steps_toggles_is_refused() {
        // One toggle per nanosecond for a second would be 10^9 steps.
        let err = ScenarioSpec::parse("\nflap tor0 spine0 from 1us every 1ns until 1s\n")
            .expect_err("too many toggles");
        assert_eq!((err.line, err.kind), (2, ScenarioErrorKind::BadFlap));
        // The bound itself is accepted (and ends up); one toggle more is not.
        let max = MAX_FLAP_STEPS;
        let spec = ScenarioSpec::flapping_link("a", "b", us(0), us(1), us(max));
        assert_eq!(spec.len() as u64, max);
        let over = format!("flap a b from 0us every 1us until {}us", max + 1);
        assert!(matches!(
            ScenarioSpec::parse(&over).map_err(|e| e.kind),
            Err(ScenarioErrorKind::BadFlap)
        ));
    }

    #[test]
    #[should_panic(expected = "at most 1000 toggles")]
    fn the_flap_builder_asserts_the_same_bound() {
        ScenarioSpec::flapping_link("a", "b", us(0), us(1), us(MAX_FLAP_STEPS + 1));
    }

    #[test]
    fn a_rate_no_packet_can_take_time_at_is_refused_at_resolve() {
        let topo = fat_tree(FatTreeParams::tiny());
        for gbps in ["inf", "1e308", "NaN"] {
            let text = format!("at 10us rate tor0 spine0 {gbps}\n");
            let resolved = ScenarioSpec::parse(&text).and_then(|s| s.resolve(&topo));
            assert!(
                matches!(
                    resolved.map_err(|e| e.kind),
                    Err(ScenarioErrorKind::Dynamics(DynamicsError::BadRate { .. })
                        | ScenarioErrorKind::BadRate { .. })
                ),
                "{gbps}"
            );
        }
    }

    #[test]
    fn a_rate_above_the_cables_native_rate_is_refused_at_resolve() {
        // Every ideal FCT is computed at the native rates: a cable run
        // faster would let a flow beat its own lower bound.
        let topo = fat_tree(FatTreeParams::tiny());
        let (tor, spine) = (topo.switches()[0], topo.switches()[2]);
        let port = topo.port_towards(tor, spine).unwrap() as usize;
        let native = topo.ports(tor)[port].link.rate_gbps;
        let at = |gbps| ScenarioSpec::new().rate(us(0), "tor0", "spine0", gbps);
        assert!(at(native).resolve(&topo).is_ok(), "a restore to native");
        for gbps in [native * 4.0, MAX_LINK_GBPS] {
            let err = at(gbps).resolve(&topo).expect_err("an up-rate");
            assert!(
                matches!(
                    err.kind,
                    ScenarioErrorKind::Dynamics(DynamicsError::AboveNative { .. })
                ),
                "{gbps}: {err}"
            );
        }
        let text = "at 0us rate tor0 spine0 400\n";
        let parsed = ScenarioSpec::parse(text).expect("well-formed");
        assert!(parsed.resolve(&topo).is_err(), "{text}");
    }

    #[test]
    fn display_round_trips_losslessly() {
        // Mix of units, a non-integral-unit time (odd picoseconds), a float
        // rate that needs shortest-repr printing, and a flap.
        let spec = ScenarioSpec::new()
            .down(SimDuration::from_picos(1_234_567), "tor0", "spine0")
            .rate(us(150), "tor1", "spine1", 12.625)
            .rate(us(151), "tor1", "spine1", 0.1)
            .up(SimDuration::from_nanos(300), "tor0", "spine0")
            .flap("tor0", "spine1", us(80), us(40), us(200));
        let text = spec.to_string();
        let reparsed = ScenarioSpec::parse(&text).expect("display output parses");
        assert_eq!(spec, reparsed);
        // The largest exact unit is chosen per step.
        assert!(text.contains("at 1234567ps down"), "{text}");
        assert!(text.contains("at 150us rate tor1 spine1 12.625"), "{text}");
        assert!(text.contains("at 300ns up"), "{text}");
    }

    #[test]
    fn flap_toggle_on_until_is_excluded() {
        // 80 + 2*40 = 160 lands exactly on `until`: the window is half-open,
        // so the toggle at 160 is *not* emitted and no repair is needed
        // (expansion already ends up).
        let spec = ScenarioSpec::flapping_link("a", "b", us(80), us(40), us(160));
        let times: Vec<SimDuration> = spec.steps.iter().map(|s| s.at).collect();
        assert_eq!(times, vec![us(80), us(120)]);
        let actions: Vec<StepAction> = spec.steps.iter().map(|s| s.action).collect();
        assert_eq!(actions, vec![StepAction::Down, StepAction::Up]);
        // One period exactly: a single down, repaired at `until`.
        let spec = ScenarioSpec::flapping_link("a", "b", us(80), us(40), us(120));
        let steps: Vec<(SimDuration, StepAction)> =
            spec.steps.iter().map(|s| (s.at, s.action)).collect();
        assert_eq!(
            steps,
            vec![(us(80), StepAction::Down), (us(120), StepAction::Up)]
        );
        // Both survive the serializer round trip.
        assert_eq!(ScenarioSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn identical_timestamps_keep_spec_order() {
        // Two actions on the same cable at the same instant: the stable sort
        // in `FaultSchedule::new` must keep spec order, so the later `up`
        // wins and the link ends the scenario alive.
        let topo = fat_tree(FatTreeParams::tiny());
        let spec = ScenarioSpec::new()
            .down(us(50), "tor0", "spine0")
            .up(us(50), "tor0", "spine0");
        let schedule = spec.resolve(&topo).expect("resolves");
        let kinds: Vec<bool> = schedule
            .events()
            .iter()
            .map(|e| matches!(e.action, LinkAction::Down { .. }))
            .collect();
        assert_eq!(kinds, vec![true, false], "down first, then up");
        // Reversed spec order reverses the outcome — and the serializer
        // preserves it, because Display emits steps in spec order.
        let spec = ScenarioSpec::new()
            .up(us(50), "tor0", "spine0")
            .down(us(50), "tor0", "spine0");
        let reparsed = ScenarioSpec::parse(&spec.to_string()).expect("parses");
        assert_eq!(reparsed, spec);
        let schedule = reparsed.resolve(&topo).expect("resolves");
        let kinds: Vec<bool> = schedule
            .events()
            .iter()
            .map(|e| matches!(e.action, LinkAction::Down { .. }))
            .collect();
        assert_eq!(kinds, vec![false, true], "up first, then down");
    }

    #[test]
    fn picosecond_times_parse() {
        let spec = ScenarioSpec::parse("at 1500ps down tor0 spine0\n").expect("ps unit");
        assert_eq!(spec.steps[0].at, SimDuration::from_picos(1500));
    }

    #[test]
    fn oversized_times_are_parse_errors_not_overflows() {
        let err = ScenarioSpec::parse("at 99999999999999999s down tor0 spine0\n")
            .expect_err("beyond the picosecond clock domain");
        assert!(matches!(err.kind, ScenarioErrorKind::BadTime { .. }));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn canonical_shapes_have_expected_steps() {
        let s = ScenarioSpec::single_link_down_up("tor0", "spine0", us(10), us(50));
        assert_eq!(s.len(), 2);
        let s = ScenarioSpec::degraded_link("tor0", "spine0", us(10), 25.0, us(50), 100.0);
        assert_eq!(s.len(), 2);
        let topo = fat_tree(FatTreeParams::tiny());
        assert!(s.resolve(&topo).is_ok());
    }
}
