//! # concordia-bench
//!
//! The per-figure/per-table experiment harness. Every binary in `src/bin`
//! regenerates one table or figure of the paper's evaluation (see
//! DESIGN.md §3 for the index), printing the same rows/series the paper
//! reports and writing machine-readable JSON under `bench-results/`.
//!
//! Shared here: output handling, run-length presets and tiny table
//! formatting.

use serde::Serialize;
use std::path::PathBuf;

/// Run-length preset parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLength {
    /// `--quick`: seconds-scale sanity runs.
    Quick,
    /// Default: runs with enough slots for 99.99 % tails.
    Standard,
    /// `--long`: the closest to the paper's 15-minute runs.
    Long,
}

impl RunLength {
    /// Parses `--quick` / `--long` from the process arguments.
    pub fn from_args() -> RunLength {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            RunLength::Quick
        } else if args.iter().any(|a| a == "--long") {
            RunLength::Long
        } else {
            RunLength::Standard
        }
    }

    /// Online-phase duration in seconds for this preset.
    pub fn online_secs(self) -> u64 {
        match self {
            RunLength::Quick => 2,
            RunLength::Standard => 10,
            RunLength::Long => 60,
        }
    }

    /// Offline profiling slots for this preset.
    pub fn profiling_slots(self) -> usize {
        match self {
            RunLength::Quick => 400,
            RunLength::Standard => 2_000,
            RunLength::Long => 4_000,
        }
    }
}

/// Parses `--seed N` (default 2021).
pub fn seed_from_args() -> u64 {
    u64_flag("--seed", 2021)
}

/// Parses a `--flag N` integer from the process arguments.
pub fn u64_flag(name: &str, default: u64) -> u64 {
    flag_with(name, |s| s.parse().ok()).unwrap_or(default)
}

/// Parses `--cells N` (pooled cells; default from the scenario).
pub fn cells_from_args(default: u32) -> u32 {
    (u64_flag("--cells", default as u64) as u32).max(1)
}

/// Parses `--jobs N` (worker threads; default: all available cores).
/// The runner merges results in input order, so the value never changes
/// a byte of output — only wall-clock time.
pub fn jobs_from_args() -> usize {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    (u64_flag("--jobs", default as u64) as usize).max(1)
}

/// Parses a `--flag X.Y` float from the process arguments.
pub fn f64_flag(name: &str, default: f64) -> f64 {
    flag_with(name, |s| s.parse().ok()).unwrap_or(default)
}

/// True when a bare `--flag` is present in the process arguments.
pub fn bool_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Unwraps an optional tail quantile for a numeric report row; empty
/// recorders surface as NaN, which the JSON writer renders as `null`.
pub fn quantile_or_nan(q: Option<f64>) -> f64 {
    q.unwrap_or(f64::NAN)
}

/// Parses a `--flag VALUE` from the process arguments through `parse`:
/// `None` when the flag is absent. A flag whose value is missing or does
/// not parse is a usage error: the process prints it and exits 2.
pub fn flag_with<T>(name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, name, parse).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// [`flag_with`] over an explicit argument list: `Ok(None)` when `name`
/// is absent, `Err` naming the flag when its value is missing or `parse`
/// rejects it.
fn parse_flag<T>(
    args: &[String],
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("{name}: missing value"))?;
    parse(raw)
        .map(Some)
        .ok_or_else(|| format!("{name}: invalid value '{raw}'"))
}

/// Directory for the JSON results (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(
        std::env::var("CONCORDIA_RESULTS_DIR").unwrap_or_else(|_| "bench-results".into()),
    );
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes one experiment's JSON next to the printed output.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize results");
    std::fs::write(&path, json).expect("write results");
    println!("\n[results written to {}]", path.display());
}

/// Prints a header banner naming the figure/table being reproduced.
pub fn banner(id: &str, claim: &str) {
    println!("{}", "=".repeat(78));
    println!("Reproducing {id}");
    println!("Paper claim: {claim}");
    println!("{}", "=".repeat(78));
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_up() {
        assert!(RunLength::Quick.online_secs() < RunLength::Standard.online_secs());
        assert!(RunLength::Standard.online_secs() < RunLength::Long.online_secs());
        assert!(RunLength::Quick.profiling_slots() < RunLength::Long.profiling_slots());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.7), "70.0%");
        assert_eq!(pct(0.056), "5.6%");
    }

    #[test]
    fn default_seed() {
        assert_eq!(seed_from_args(), 2021);
    }

    #[test]
    fn flags_fall_back_to_defaults() {
        // The test binary's argv carries no such flags, so both helpers
        // must return the caller's default.
        assert_eq!(u64_flag("--windows", 200), 200);
        assert!((f64_flag("--load", 0.6) - 0.6).abs() < 1e-12);
        assert!(!bool_flag("--trace"));
    }

    #[test]
    fn flag_parser_rejects_malformed_and_missing_values() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let u64_of = |s: &str| s.parse::<u64>().ok();
        let valid = args(&["bin", "--quick", "--seed", "7"]);
        assert_eq!(parse_flag(&valid, "--seed", u64_of), Ok(Some(7)));
        assert_eq!(parse_flag(&valid, "--jobs", u64_of), Ok(None));
        let malformed = parse_flag(&args(&["bin", "--seed", "abc"]), "--seed", u64_of);
        assert_eq!(malformed, Err("--seed: invalid value 'abc'".to_string()));
        let missing = parse_flag(&args(&["bin", "--seed"]), "--seed", u64_of);
        assert_eq!(missing, Err("--seed: missing value".to_string()));
    }

    #[test]
    fn quantile_unwrap_preserves_values_and_marks_empty() {
        assert_eq!(quantile_or_nan(Some(912.5)), 912.5);
        assert!(quantile_or_nan(None).is_nan());
    }
}
