//! Strict command-line parsing: every flag is known and takes a value,
//! the seed is required, and any typo is an error instead of a silently
//! different run.

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson traffic over one loopback TCP connection.
    WireSingleOpen,
    /// In-process closed loop of 4-scene Rep-3 batches.
    Rep3MultiClosed,
    /// In-process closed loop mixing Classify reads with Train/Retrain
    /// writes on one learnable model.
    LearnRwClosed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::WireSingleOpen,
        Workload::Rep3MultiClosed,
        Workload::LearnRwClosed,
    ];

    /// The name the CLI and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSingleOpen => "wire-single-open",
            Workload::Rep3MultiClosed => "rep3-multi-closed",
            Workload::LearnRwClosed => "learn-rw-closed",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What `--workload` selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// One workload, measured in this process.
    One(Workload),
    /// Every workload, each in its own child process.
    All,
}

/// A validated command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// The workload(s) to run.
    pub selection: Selection,
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// `true` for the traced pass that reports per-layer metrics.
    pub trace: bool,
}

/// Why the command line was refused (or help was asked for).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h`: print [`USAGE`] and exit successfully.
    Help,
    /// Anything else: print the message and [`USAGE`], exit with 2.
    Invalid(String),
}

/// Usage text.
pub const USAGE: &str =
    "usage: perfbench --workload <wire-single-open|rep3-multi-closed|learn-rw-closed|all> \
--seed <u64> [--seconds <1..=600>] [--trace <0|1>]";

/// Longest measured window accepted.
const MAX_SECONDS: u64 = 600;
/// Measured window when `--seconds` is not given: `run_seconds` in
/// `BENCHMARK.json`, the window the metric bounds were set on.
pub const DEFAULT_SECONDS: u64 = 20;

/// Parses the arguments after the program name.
///
/// `--workload` and `--seed` are required; `--seconds` defaults to
/// [`DEFAULT_SECONDS`] and `--trace` to 0. Unknown flags, positional arguments, repeated
/// flags, `--flag=value` spellings and out-of-range values are errors.
pub fn parse<I, S>(args: I) -> Result<Args, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut workload: Option<Selection> = None;
    let mut seed: Option<u64> = None;
    let mut seconds: Option<u64> = None;
    let mut trace: Option<bool> = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_ref();
        if flag == "--help" || flag == "-h" {
            return Err(CliError::Help);
        }
        let value = |args: &mut I::IntoIter| -> Result<String, CliError> {
            args.next()
                .map(|v| v.as_ref().to_owned())
                .ok_or_else(|| CliError::Invalid(format!("{flag} needs a value")))
        };
        let duplicate = || CliError::Invalid(format!("{flag} given more than once"));
        match flag {
            "--workload" => {
                let raw = value(&mut args)?;
                let parsed =
                    if raw == "all" {
                        Selection::All
                    } else {
                        Selection::One(Workload::parse(&raw).ok_or_else(|| {
                            CliError::Invalid(format!("unknown workload {raw:?}"))
                        })?)
                    };
                if workload.replace(parsed).is_some() {
                    return Err(duplicate());
                }
            }
            "--seed" => {
                let raw = value(&mut args)?;
                let parsed = raw
                    .parse::<u64>()
                    .map_err(|_| CliError::Invalid(format!("--seed {raw:?} is not a u64")))?;
                if seed.replace(parsed).is_some() {
                    return Err(duplicate());
                }
            }
            "--seconds" => {
                let raw = value(&mut args)?;
                let parsed = raw
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=MAX_SECONDS).contains(s))
                    .ok_or_else(|| {
                        CliError::Invalid(format!("--seconds {raw:?} is not in 1..={MAX_SECONDS}"))
                    })?;
                if seconds.replace(parsed).is_some() {
                    return Err(duplicate());
                }
            }
            "--trace" => {
                let raw = value(&mut args)?;
                let parsed = match raw.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(CliError::Invalid(format!("--trace {raw:?} is not 0 or 1"))),
                };
                if trace.replace(parsed).is_some() {
                    return Err(duplicate());
                }
            }
            other => return Err(CliError::Invalid(format!("unknown argument {other:?}"))),
        }
    }
    Ok(Args {
        selection: workload.ok_or_else(|| CliError::Invalid("--workload is required".into()))?,
        seed: seed.ok_or_else(|| CliError::Invalid("--seed is required".into()))?,
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invalid(args: &[&str]) -> String {
        match parse(args.iter().copied()) {
            Err(CliError::Invalid(message)) => message,
            other => panic!("{args:?} was accepted: {other:?}"),
        }
    }

    #[test]
    fn full_command_line_parses() {
        let args = parse([
            "--workload",
            "rep3-multi-closed",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            args,
            Args {
                selection: Selection::One(Workload::Rep3MultiClosed),
                seed: 7,
                seconds: 3,
                trace: true,
            }
        );
        let all = parse(["--seed", "1", "--workload", "all"]).expect("valid");
        assert_eq!(all.selection, Selection::All);
        assert_eq!((all.seconds, all.trace), (DEFAULT_SECONDS, false));
    }

    #[test]
    fn typos_and_unknown_flags_are_errors() {
        // The repo's `parse_quick` would start a full run on `--quikc`;
        // here every unknown token is refused.
        assert!(invalid(&["--workload", "all", "--seed", "1", "--quikc"]).contains("--quikc"));
        assert!(invalid(&["--workload", "all", "--seed", "1", "extra"]).contains("extra"));
        assert!(invalid(&["--workload=all", "--seed", "1"]).contains("--workload=all"));
        assert!(invalid(&["--workload", "rep3", "--seed", "1"]).contains("unknown workload"));
    }

    #[test]
    fn seed_and_workload_are_required() {
        assert!(invalid(&["--workload", "all"]).contains("--seed"));
        assert!(invalid(&["--seed", "3"]).contains("--workload"));
        assert!(invalid(&["--workload", "all", "--seed"]).contains("needs a value"));
    }

    #[test]
    fn bad_values_and_repeats_are_errors() {
        assert!(invalid(&["--workload", "all", "--seed", "-1"]).contains("u64"));
        assert!(invalid(&["--workload", "all", "--seed", "1", "--seconds", "0"]).contains("1..="));
        assert!(
            invalid(&["--workload", "all", "--seed", "1", "--trace", "yes"]).contains("0 or 1")
        );
        assert!(
            invalid(&["--workload", "all", "--seed", "1", "--seed", "2"])
                .contains("more than once")
        );
    }

    #[test]
    fn help_is_not_an_error_exit() {
        assert_eq!(parse(["--help"]), Err(CliError::Help));
    }
}
