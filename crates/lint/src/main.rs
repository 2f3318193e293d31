//! The `bio-lint` binary.
//!
//! ```text
//! bio-lint [--json] [--root <dir>]
//! ```
//!
//! Exit codes: 0 — clean; 1 — at least one finding; 2 — usage error or
//! unreadable workspace.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("bio-lint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("bio-lint [--json] [--root <dir>]");
                println!("Static analysis for the barrier-io workspace: determinism,");
                println!("totality and layer-DAG invariants.");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bio-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match bio_lint::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("bio-lint: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    match bio_lint::run_workspace(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_table());
            }
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("bio-lint: {e}");
            ExitCode::from(2)
        }
    }
}
