//! One strict parse of a command's arguments, and the flag blocks
//! several commands share.

use crate::CliError;
use dim_cgra::ShapeChoice;
use dim_core::SystemConfig;
use std::str::FromStr;

/// A command's arguments after one strict walk: every flag is known,
/// a flag taking a value has one (another of the command's flags is not
/// a value), no flag repeats, and at most the declared number of
/// positionals is given. A typo like `--slot 16` fails loudly rather
/// than silently running with defaults, and a flag before the input or
/// a flag's value is never read as the input.
///
/// The accessors read only what the walk parsed. Reading a flag the
/// command did not declare is a bug in the command, and panics.
pub(crate) struct Flags<'a> {
    cmd: &'static str,
    spec: &'static str,
    given: Vec<(&'a str, Option<&'a str>)>,
    positionals: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Walks `args` for command `cmd`, which takes the flags listed in
    /// `spec` (whitespace-separated; a flag that takes a value ends in
    /// `=`, as in `"--slots= --no-spec"`) and up to `positionals` other
    /// arguments.
    pub(crate) fn parse(
        cmd: &'static str,
        args: &'a [String],
        spec: &'static str,
        positionals: usize,
    ) -> Result<Flags<'a>, CliError> {
        let mut flags = Flags {
            cmd,
            spec,
            given: Vec::new(),
            positionals: Vec::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                if flags.positionals.len() == positionals {
                    return Err(CliError::new(format!("{cmd}: unexpected argument `{arg}`")));
                }
                flags.positionals.push(arg);
                continue;
            }
            if flags.given.iter().any(|&(f, _)| f == arg) {
                return Err(CliError::new(format!(
                    "{cmd}: `{arg}` given more than once"
                )));
            }
            let value = match flags.takes_value(arg) {
                Some(true) => match args.next() {
                    Some(v) if flags.takes_value(v).is_none() => Some(v),
                    _ => return Err(CliError::new(format!("{arg} requires a value"))),
                },
                Some(false) => None,
                None => {
                    return Err(CliError::new(format!(
                        "{cmd}: unknown flag `{arg}` (see `dim help`)"
                    )))
                }
            };
            flags.given.push((arg, value));
        }
        Ok(flags)
    }

    /// Whether `flag` takes a value; `None` when the command does not
    /// declare it.
    fn takes_value(&self, flag: &str) -> Option<bool> {
        self.spec
            .split_whitespace()
            .find_map(|f| match f.strip_suffix('=') {
                Some(name) => (name == flag).then_some(true),
                None => (f == flag).then_some(false),
            })
    }

    fn find(&self, flag: &str) -> Option<&(&'a str, Option<&'a str>)> {
        assert!(
            self.takes_value(flag).is_some(),
            "`{}` reads `{flag}`, which it does not declare",
            self.cmd
        );
        self.given.iter().find(|&&(f, _)| f == flag)
    }

    /// The positional arguments, in order.
    pub(crate) fn positionals(&self) -> &[&'a str] {
        &self.positionals
    }

    /// The first positional argument, or `{cmd}: missing {what}`.
    pub(crate) fn input(&self, what: &str) -> Result<&'a str, CliError> {
        self.positionals
            .first()
            .copied()
            .ok_or_else(|| CliError::new(format!("{}: missing {what}", self.cmd)))
    }

    /// Whether `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.find(flag).is_some()
    }

    /// The value `flag` was given, if it was.
    pub(crate) fn value(&self, flag: &str) -> Option<&'a str> {
        assert!(
            self.takes_value(flag) != Some(false),
            "`{}` reads a value from `{flag}`, which takes none",
            self.cmd
        );
        self.find(flag).and_then(|&(_, v)| v)
    }

    /// A numeric `flag N`, naming the flag when `N` is not a number.
    pub(crate) fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::new(format!("{flag}: not a number")))
            })
            .transpose()
    }

    /// A named `flag NAME` (a scale or a Table 1 shape), naming the flag
    /// when `NAME` is unknown.
    pub(crate) fn name<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::new(format!("{flag}: unknown `{v}`")))
            })
            .transpose()
    }

    /// A count that must be at least 1 (jobs, queue, quota, clients,
    /// requests).
    pub(crate) fn positive(&self, flag: &str) -> Result<Option<u64>, CliError> {
        match self.num(flag)? {
            Some(0) => Err(CliError::new(format!("{flag}: must be at least 1"))),
            n => Ok(n),
        }
    }

    /// `--telemetry-interval`, the status cadence of `sweep` and `serve`:
    /// a positive cycle count. 0 is rejected rather than silently
    /// meaning the default: omitting the flag keeps the default.
    pub(crate) fn telemetry_interval(&self) -> Result<Option<u64>, CliError> {
        match self.num("--telemetry-interval")? {
            Some(0) => Err(CliError::new(
                "--telemetry-interval: must be at least 1 cycle (omit the flag for the default)",
            )),
            n => Ok(n),
        }
    }

    /// `--max-steps N`: the instruction budget of one run.
    pub(crate) fn max_steps(&self) -> Result<u64, CliError> {
        Ok(self.num("--max-steps")?.unwrap_or(100_000_000))
    }

    /// The `--config/--slots/--no-spec/--max-steps` block of the
    /// commands that build a `System` (accel, profile, heat): the shape
    /// chosen, the system configuration and the instruction budget.
    pub(crate) fn system(&self) -> Result<(ShapeChoice, SystemConfig, u64), CliError> {
        let choice = self.name("--config")?.unwrap_or(ShapeChoice::Config1);
        let slots = self.num("--slots")?.unwrap_or(64);
        let config = SystemConfig::new(choice.shape(), slots, !self.has("--no-spec"));
        Ok((choice, config, self.max_steps()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "--slots= --config= --no-spec --compare";

    #[test]
    fn accessors_read_what_the_walk_parsed() {
        let args: Vec<String> = ["--slots", "8", "in.s", "--no-spec"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let flags = Flags::parse("accel", &args, SPEC, 1).unwrap();
        assert_eq!(flags.input("input file").unwrap(), "in.s");
        assert_eq!(flags.num::<usize>("--slots").unwrap(), Some(8));
        assert_eq!(flags.value("--config"), None);
        assert!(flags.has("--no-spec") && flags.has("--slots"));
        assert!(!flags.has("--compare"));
        let empty = Flags::parse("accel", &[], SPEC, 1).unwrap();
        assert_eq!(
            empty.input("input file").unwrap_err().to_string(),
            "accel: missing input file"
        );
    }

    #[test]
    #[should_panic(expected = "`accel` reads `--bogus`, which it does not declare")]
    fn reading_an_undeclared_flag_panics() {
        Flags::parse("accel", &[], SPEC, 1).unwrap().has("--bogus");
    }

    #[test]
    #[should_panic(expected = "`accel` reads a value from `--no-spec`, which takes none")]
    fn reading_a_value_from_a_switch_panics() {
        let _ = Flags::parse("accel", &[], SPEC, 1)
            .unwrap()
            .value("--no-spec");
    }
}
