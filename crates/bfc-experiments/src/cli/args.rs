//! What every binary in the workspace shares: the argument parser, the
//! output handles a command writes to, and the JSON string escaper.

use std::io::Write;
use std::str::FromStr;

/// Where a command writes: `out` is its result, `err` its diagnostics. The
/// binaries pass the process's stdout and stderr, tests pass buffers.
pub struct Io<'a> {
    /// Standard output.
    pub out: &'a mut dyn Write,
    /// Standard error.
    pub err: &'a mut dyn Write,
}

/// Writes a line to an [`Io`]'s `out`. A failed write is dropped: a reader
/// that went away (`trace-tool help | head -1`) must not turn into a panic.
macro_rules! outln {
    ($io:expr, $($arg:tt)*) => {{
        let _ = writeln!($io.out, $($arg)*);
    }};
}
pub(crate) use outln;

/// Writes a line to an [`Io`]'s `err`; a failed write is dropped.
macro_rules! errln {
    ($io:expr, $($arg:tt)*) => {{
        let _ = writeln!($io.err, $($arg)*);
    }};
}
pub(crate) use errln;

/// A misuse of the command line — an unknown or malformed option, a missing
/// or stray argument — as opposed to a bad input. `trace-tool` answers it
/// with the message and its usage; wherever else it ends up, it reads as its
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Usage(pub String);

impl From<Usage> for String {
    fn from(usage: Usage) -> String {
        usage.0
    }
}

/// One command's arguments, pulled by name: the command asks for each
/// `--option` it understands, then [`Args::positional`] takes what is left
/// and rejects any `--flag` nobody asked for.
///
/// An option's value is whatever argument follows it, so the one rule is
/// **switches before options**: pull every valueless [`Args::switch`] first,
/// or an option pulled earlier would swallow a switch standing right after
/// it as its value. An option given twice keeps its last value.
pub struct Args {
    cmd: String,
    rest: Vec<String>,
    /// The first required option found absent; [`Args::positional`] reports
    /// it once the arguments that are present have been checked.
    missing: Option<Usage>,
}

/// Parses a number, naming the option in the error.
pub(super) fn parse_num<T: FromStr>(name: &str, value: &str) -> Result<T, Usage> {
    value
        .parse()
        .map_err(|_| Usage(format!("--{name}: not a valid number: {value}")))
}

impl Args {
    /// The arguments of `cmd` (the name error messages start with).
    pub fn new(cmd: &str, args: &[String]) -> Args {
        Args {
            cmd: cmd.to_string(),
            rest: args.to_vec(),
            missing: None,
        }
    }

    /// The command's name, as error messages spell it.
    pub fn cmd(&self) -> &str {
        &self.cmd
    }

    /// Whether the valueless `--name` was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a.strip_prefix("--") != Some(name));
        self.rest.len() < before
    }

    /// Every value given for `--name`, in order.
    pub fn all(&mut self, name: &str) -> Result<Vec<String>, Usage> {
        let mut values = Vec::new();
        while let Some(i) = self
            .rest
            .iter()
            .position(|a| a.strip_prefix("--") == Some(name))
        {
            if i + 1 == self.rest.len() {
                return Err(Usage(format!("--{name} requires a value")));
            }
            values.push(self.rest.remove(i + 1));
            self.rest.remove(i);
        }
        Ok(values)
    }

    /// The value of `--name`, if given.
    pub fn text(&mut self, name: &str) -> Result<Option<String>, Usage> {
        Ok(self.all(name)?.pop())
    }

    /// The number `--name` holds, or `default`.
    pub fn num<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, Usage> {
        self.all(name)?
            .iter()
            .try_fold(default, |_, value| parse_num(name, value))
    }

    /// A count that must be at least 1.
    pub fn positive(&mut self, name: &str, default: usize) -> Result<usize, Usage> {
        match self.num(name, default)? {
            0 => Err(Usage(format!("--{name} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// The value `parse` gives for the key `--name` holds (for `default` when
    /// absent); `kind` says what the keys name, for the error.
    pub fn keyed<T>(
        &mut self,
        name: &str,
        kind: &str,
        parse: impl Fn(&str) -> Option<T>,
        default: &str,
    ) -> Result<T, Usage> {
        let key = self.text(name)?.unwrap_or_else(|| default.to_string());
        parse(&key).ok_or_else(|| Usage(format!("--{name}: unknown {kind} {key}")))
    }

    /// An option the command cannot run without; `what` names its value in
    /// the error. When it is absent this returns a placeholder and
    /// [`Args::positional`] fails with the error, so a stray or unknown
    /// argument is reported before a missing one.
    pub fn required<T: FromStr + Default>(&mut self, name: &str, what: &str) -> Result<T, Usage> {
        match self.text(name)? {
            Some(value) => parse_num(name, &value),
            None => {
                let cmd = &self.cmd;
                self.missing
                    .get_or_insert_with(|| Usage(format!("{cmd}: --{name} <{what}> is required")));
                Ok(T::default())
            }
        }
    }

    /// Ends the parse: exactly `N` arguments may be left and none of them a
    /// `--flag`. `what` completes "exactly … required" (`"one trace path
    /// is"`); with `N = 0` any argument left is unexpected.
    pub fn positional<const N: usize>(self, what: &str) -> Result<[String; N], Usage> {
        let cmd = self.cmd;
        if let Some(flag) = self.rest.iter().find(|a| a.starts_with("--")) {
            return Err(Usage(format!("{cmd}: unknown option {flag}")));
        }
        let found: [String; N] = self.rest.try_into().map_err(|rest: Vec<String>| {
            Usage(if N == 0 {
                format!("{cmd}: unexpected argument {}", rest[0])
            } else {
                format!("{cmd}: exactly {what} required")
            })
        })?;
        self.missing.map_or(Ok(found), Err)
    }
}

/// `s` as a JSON string literal, quotes included.
pub(super) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Args::new("cmd", &words)
    }

    #[test]
    fn options_are_pulled_by_name_and_the_rest_is_positional() {
        let mut a = args("a.csv --seed 7 --follow --kind x --out o --kind y,z");
        assert!(a.switch("follow") && !a.switch("follow"));
        assert_eq!(a.num("seed", 1u64), Ok(7));
        assert_eq!(a.num("drain-x", 4u64), Ok(4));
        assert_eq!(a.all("kind"), Ok(vec!["x".to_string(), "y,z".to_string()]));
        assert_eq!(a.required::<String>("out", "path"), Ok("o".to_string()));
        assert_eq!(a.positional::<1>("one path is"), Ok(["a.csv".to_string()]));
    }

    #[test]
    fn every_misuse_is_an_error_line() {
        assert_eq!(
            args("--seed").num("seed", 1u64),
            Err(Usage("--seed requires a value".into()))
        );
        assert_eq!(
            args("--seed x").num("seed", 1u64),
            Err(Usage("--seed: not a valid number: x".into()))
        );
        assert_eq!(
            args("--cap 0").positive("cap", 64),
            Err(Usage("--cap must be at least 1".into()))
        );
        assert_eq!(
            args("--topo moon").keyed("topo", "topology", |_| None::<()>, "tiny"),
            Err(Usage("--topo: unknown topology moon".into()))
        );
        assert_eq!(
            args("a --bogus").positional::<1>("one path is"),
            Err(Usage("cmd: unknown option --bogus".into()))
        );
        assert_eq!(
            args("a b").positional::<1>("one path is"),
            Err(Usage("cmd: exactly one path is required".into()))
        );
        assert_eq!(
            args("a").positional::<0>(""),
            Err(Usage("cmd: unexpected argument a".into()))
        );
    }

    #[test]
    fn a_missing_required_option_is_reported_after_a_stray_argument() {
        let mut a = args("stray");
        assert_eq!(a.required::<String>("out", "path"), Ok(String::new()));
        assert_eq!(
            a.positional::<0>(""),
            Err(Usage("cmd: unexpected argument stray".into()))
        );
        let mut a = args("");
        a.required::<f64>("at-us", "n").expect("deferred");
        a.required::<String>("out", "snap").expect("deferred");
        assert_eq!(
            a.positional::<0>(""),
            Err(Usage("cmd: --at-us <n> is required".into()))
        );
    }

    #[test]
    fn json_strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(json_str("DCQCN+Win"), "\"DCQCN+Win\"");
        assert_eq!(json_str("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }
}
