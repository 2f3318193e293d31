//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p bio-bench --release --bin figures -- --all
//! cargo run -p bio-bench --release --bin figures -- --fig 9 --fig 11
//! cargo run -p bio-bench --release --bin figures -- --table 1 --scale 4
//! cargo run -p bio-bench --release --bin figures -- --all --jobs 1   # serial
//! ```
//!
//! Experiment cells run on a worker pool (`--jobs`, default: all cores).
//! Results are assembled in deterministic order, so `--jobs 1` and
//! `--jobs N` print byte-identical tables — `tests/golden_figures.rs`
//! holds both to `tests/golden/figures_all.txt`. A run summary
//! (`[grid] cells=.. jobs=.. elapsed_ms=..`) goes to stderr to keep
//! stdout clean for that comparison.
//!
//! Exit status: 2 for a usage error; 3 when the crash enumeration found a
//! cross-stack divergence; otherwise 4 when any stack dropped an event
//! (a warning block on stderr names each counter and cell); else 0.

use bio_bench::{cli, experiments};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            print_help();
            std::process::exit(2);
        }
    };
    if opts.help || (opts.wanted.is_empty() && !opts.crash_enum) {
        print_help();
        return;
    }
    if let Some(jobs) = opts.jobs {
        bio_bench::set_default_jobs(jobs);
    }
    let crash_seeds = opts.crash_seeds;
    let started = std::time::Instant::now();

    for (_, text) in experiments::render(&opts.wanted, opts.scale, crash_seeds) {
        print!("{text}");
    }
    // Opt-in only (never under --all): the exhaustive differential crash
    // enumeration. Non-zero exit on cross-stack divergence so CI can gate.
    let mut divergent = false;
    if opts.crash_enum {
        let t0 = std::time::Instant::now();
        let report = bio_bench::crash::run(crash_seeds);
        let secs = t0.elapsed().as_secs_f64();
        print!("{}", report.render());
        // Throughput goes to stderr: stdout stays byte-identical between
        // machines.
        let points = report.total("crash points");
        eprintln!(
            "[crash-enum] points={points} elapsed_s={secs:.2} points_per_s={:.0}",
            points as f64 / secs.max(f64::MIN_POSITIVE),
        );
        divergent = !report.divergences.is_empty();
    }
    eprintln!(
        "[grid] cells={} jobs={} elapsed_ms={}",
        bio_bench::cells_run(),
        bio_bench::default_jobs(),
        started.elapsed().as_millis()
    );
    let dropped = bio_bench::drop_warning();
    if let Some(block) = &dropped {
        eprint!("{block}");
    }
    if divergent {
        eprintln!("crash-enum: cross-stack divergence detected");
        std::process::exit(3);
    }
    if dropped.is_some() {
        std::process::exit(4);
    }
}

fn print_help() {
    println!(
        "usage: figures [--all] [--fig N]... [--table 1] [--scale K] [--seeds N] [--jobs J]\n\
         \x20      [--crash-enum]\n\
         figures: 1, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, engines, crash; table: 1\n\
         --scale multiplies run length (1 = quick, at most {}); --jobs bounds the\n\
         experiment-grid worker pool (>= 1; 1 = serial, default: all cores)\n\
         --crash-enum runs the exhaustive differential crash enumeration\n\
         (--seeds traces per stack, at most {}; exits 3 on cross-stack divergence)\n\
         exits 4 when a stack dropped an event (a warning block on stderr names it)",
        cli::MAX_SCALE,
        cli::MAX_SEEDS
    );
}
