//! Argument parsing for the `figures` binary, split out so the CLI
//! contract (notably `--jobs` validation) is unit-testable without
//! spawning the binary.

use std::num::NonZeroU64;

use crate::experiments::SELECTORS;

/// Largest `--scale` accepted. The widest product a figure forms from it
/// is its measured window in nanoseconds (200 ms × scale), which leaves
/// `u64` just above 9 × 10¹⁰; a release build would wrap there and print a
/// table from the remainder. The cap sits far below that and far above any
/// run that finishes (scale 1 is 1.4 s of wall time).
pub const MAX_SCALE: u64 = 1_000_000;

/// Largest `--seeds` accepted. `--crash-enum` enqueues six closures per
/// seed before it runs one and keeps their outcomes until the fold (about
/// 100 KB per seed, measured at 1,000 seeds); `--fig crash` holds three
/// boxed cells per seed. The widest product formed is the crash instant of
/// `--fig crash`, `(2 + 3 × seed)` ms in nanoseconds, which leaves `u64`
/// near 6 × 10¹² — a release build would wrap there, a debug build panic.
/// The cap sits at about 1 GB of held outcomes: far below the overflow,
/// and 27 times CI's 360-seed run (over a minute of wall time).
pub const MAX_SEEDS: u64 = 10_000;

/// Parsed `figures` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Figure/table selectors: `"all"`, `"fig9"`, `"table1"`, ...
    pub wanted: Vec<String>,
    /// Run-length multiplier (1 ..= [`MAX_SCALE`]).
    pub scale: u64,
    /// Seeds for the crash ablation (and traces per stack for
    /// `--crash-enum`), at most [`MAX_SEEDS`].
    pub crash_seeds: u64,
    /// Worker-pool override; `None` = auto (all cores).
    pub jobs: Option<usize>,
    /// Run the exhaustive differential crash enumeration. Deliberately
    /// not part of `--all`: it is a correctness harness, not a paper
    /// figure, and its output depends on `--seeds`.
    pub crash_enum: bool,
    /// `--help` was requested.
    pub help: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            wanted: Vec::new(),
            scale: 1,
            crash_seeds: 20,
            jobs: None,
            crash_enum: false,
            help: false,
        }
    }
}

/// Parses `figures` arguments (everything after the binary name).
///
/// # Errors
///
/// Returns a user-facing message for unknown flags, missing values,
/// selectors that name no figure or table ([`SELECTORS`]), and invalid
/// values — in particular `--jobs 0`: a zero-worker pool is
/// meaningless (`std::thread::scope` with no workers would simply hang the
/// grid's consumers), so it is rejected rather than silently reinterpreted,
/// and so are `--scale 0`, a `--scale` above [`MAX_SCALE`] and a `--seeds`
/// above [`MAX_SEEDS`].
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => opts.wanted.push("all".into()),
            "--jobs" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| "--jobs requires a worker count".to_string())?;
                let jobs: usize = raw
                    .parse()
                    .map_err(|_| format!("--jobs expects a positive integer, got '{raw}'"))?;
                if jobs == 0 {
                    return Err(
                        "--jobs must be >= 1 (use --jobs 1 for a serial run; omit --jobs \
                         to use all cores)"
                            .to_string(),
                    );
                }
                opts.jobs = Some(jobs);
            }
            "--fig" => {
                i += 1;
                let n = args
                    .get(i)
                    .ok_or_else(|| "--fig requires a figure number".to_string())?;
                opts.wanted.push(known_selector(format!("fig{n}"))?);
            }
            "--table" => {
                i += 1;
                let n = args
                    .get(i)
                    .ok_or_else(|| "--table requires a table number".to_string())?;
                opts.wanted.push(known_selector(format!("table{n}"))?);
            }
            "--scale" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| "--scale requires a multiplier".to_string())?;
                let scale: NonZeroU64 = raw
                    .parse()
                    .map_err(|_| format!("--scale expects a positive integer, got '{raw}'"))?;
                if scale.get() > MAX_SCALE {
                    return Err(format!("--scale must be <= {MAX_SCALE}, got '{raw}'"));
                }
                opts.scale = scale.get();
            }
            "--seeds" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| "--seeds requires a count".to_string())?;
                opts.crash_seeds = raw
                    .parse()
                    .map_err(|_| format!("--seeds expects an integer, got '{raw}'"))?;
                if opts.crash_seeds > MAX_SEEDS {
                    return Err(format!("--seeds must be <= {MAX_SEEDS}, got '{raw}'"));
                }
            }
            "--crash-enum" => opts.crash_enum = true,
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// `name` if a runner is registered under it, else the error message.
fn known_selector(name: String) -> Result<String, String> {
    if SELECTORS.iter().any(|(known, _)| *known == name) {
        Ok(name)
    } else {
        Err(format!("no such figure or table: {name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_with_no_args() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o, CliOptions::default());
    }

    #[test]
    fn jobs_zero_is_rejected_with_clear_message() {
        let err = parse_args(&args(&["--all", "--jobs", "0"])).unwrap_err();
        assert!(err.contains("--jobs must be >= 1"), "unhelpful: {err}");
        assert!(err.contains("serial"), "should point at --jobs 1: {err}");
    }

    #[test]
    fn jobs_requires_a_numeric_value() {
        let err = parse_args(&args(&["--jobs"])).unwrap_err();
        assert!(err.contains("--jobs requires"), "{err}");
        let err = parse_args(&args(&["--jobs", "many"])).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn jobs_one_and_n_are_accepted() {
        assert_eq!(parse_args(&args(&["--jobs", "1"])).unwrap().jobs, Some(1));
        assert_eq!(parse_args(&args(&["--jobs", "8"])).unwrap().jobs, Some(8));
        assert_eq!(parse_args(&args(&["--all"])).unwrap().jobs, None);
    }

    #[test]
    fn selectors_accumulate() {
        let o = parse_args(&args(&["--fig", "9", "--fig", "11", "--table", "1"])).unwrap();
        assert_eq!(o.wanted, vec!["fig9", "fig11", "table1"]);
    }

    #[test]
    fn unknown_selectors_are_rejected() {
        let err = parse_args(&args(&["--fig", "7"])).unwrap_err();
        assert!(err.contains("fig7"), "{err}");
        let err = parse_args(&args(&["--table", "2"])).unwrap_err();
        assert!(err.contains("table2"), "{err}");
        let o = parse_args(&args(&["--fig", "engines"])).unwrap();
        assert_eq!(o.wanted, vec!["figengines"]);
    }

    #[test]
    fn scale_zero_is_rejected() {
        let err = parse_args(&args(&["--all", "--scale", "0"])).unwrap_err();
        assert_eq!(err, "--scale expects a positive integer, got '0'");
    }

    #[test]
    fn a_scale_whose_products_overflow_is_rejected() {
        // 1_000 * scale wraps to 384 in a release build.
        let err = parse_args(&args(&["--fig", "11", "--scale", "18446744073709552"])).unwrap_err();
        assert_eq!(err, "--scale must be <= 1000000, got '18446744073709552'");
        let max = MAX_SCALE.to_string();
        assert_eq!(
            parse_args(&args(&["--scale", &max])).unwrap().scale,
            MAX_SCALE
        );
        assert!(parse_args(&args(&["--scale", "1000001"])).is_err());
    }

    #[test]
    fn a_seed_count_no_run_could_hold_is_rejected() {
        // 2 + seed * 3 wraps in a release build and panics in a debug one.
        let err = parse_args(&args(&[
            "--fig",
            "crash",
            "--seeds",
            "18446744073709551615",
        ]));
        assert_eq!(
            err.unwrap_err(),
            "--seeds must be <= 10000, got '18446744073709551615'"
        );
        let max = MAX_SEEDS.to_string();
        let o = parse_args(&args(&["--crash-enum", "--seeds", &max])).unwrap();
        assert_eq!(o.crash_seeds, MAX_SEEDS);
        assert!(parse_args(&args(&["--crash-enum", "--seeds", "10001"])).is_err());
        assert_eq!(parse_args(&args(&["--seeds", "0"])).unwrap().crash_seeds, 0);
    }

    #[test]
    fn fig_and_table_require_values() {
        assert!(parse_args(&args(&["--fig"])).is_err());
        assert!(parse_args(&args(&["--table"])).is_err());
    }

    #[test]
    fn scale_and_seeds_parse() {
        let o = parse_args(&args(&["--scale", "3", "--seeds", "7"])).unwrap();
        assert_eq!(o.scale, 3);
        assert_eq!(o.crash_seeds, 7);
        assert!(parse_args(&args(&["--scale", "x"])).is_err());
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn crash_enum_flag_parses_and_is_off_by_default() {
        assert!(!parse_args(&args(&["--all"])).unwrap().crash_enum);
        let o = parse_args(&args(&["--crash-enum", "--seeds", "50"])).unwrap();
        assert!(o.crash_enum);
        assert_eq!(o.crash_seeds, 50);
        // --crash-enum alone selects no figures: --all must stay pristine.
        assert!(o.wanted.is_empty());
    }
}
