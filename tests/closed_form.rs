//! A closed-form second opinion on `fig08` and `fig09` XnF (ROADMAP item
//! 1(3)): each labelled row is computed again from the `DeviceProfile` and
//! `FsConfig` constants alone and compared with what the figure prints.
//!
//! A row within [`TOLERANCE`] of its closed form passes. A row outside it
//! is an `expected-miss`: the value it prints is pinned here, so the test
//! fails when that value changes in either direction, and also when it
//! comes within tolerance (the verdict must then flip to `within`). A
//! miss is never fixed by widening the tolerance; ROADMAP item 1(4)
//! calibrates the model, or the figure, until the row lands.
//!
//! What the closed forms assume, from the model's own rules:
//! - A transfer the host waits on finds the link idle, so it pays the
//!   per-command overhead before its blocks (`cmd_overhead + n ×
//!   dma_per_block`); a barrier write's transfer is inflated by
//!   `barrier_overhead`.
//! - A flush waits for the programs resident in the cache, then for the
//!   controller round trip (`page_program + flush_overhead`); under PLP
//!   only the round trip remains (the paper's tε). A FUA write waits for
//!   its own program.
//! - A thread woken from a transfer wait pays `ctx_switch`, a commit
//!   requested by a thread waits `commit_thread_wake` for the commit
//!   thread, and each syscall costs `CPU_PER_OP`.

use barrier_io::{DeviceProfile, FsConfig, FsMode, SimDuration, CPU_PER_OP};
use bio_bench::experiments::cells::{figure_window, WARMUP};
use bio_bench::experiments::run;

/// How far a printed value may sit from its closed form.
const TOLERANCE: f64 = 0.10;

/// The scale and seed count the figures run at (as in `golden_figures`).
const SCALE: u64 = 1;
const SEEDS: u64 = 5;

/// Whether a row is held to its closed form or pinned as a known miss.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// Within [`TOLERANCE`] of the closed form.
    Within,
    /// Outside it; the value the figure prints, to its printed precision.
    ExpectedMiss(f64),
}

/// One labelled row of a figure and its closed form.
struct Claim {
    selector: &'static str,
    key: &'static [&'static str],
    column: &'static str,
    /// Half a unit of the column's last printed digit.
    precision: f64,
    closed_form: f64,
    verdict: Verdict,
}

fn us(d: SimDuration) -> f64 {
    d.as_micros_f64()
}

fn check(claims: &[Claim]) {
    let mut failures = Vec::new();
    for c in claims {
        let fig = run(c.selector, SCALE, SEEDS).expect("a registered selector");
        let printed = fig
            .value(c.key, c.column)
            .expect("the row and column exist");
        let off = printed / c.closed_form - 1.0;
        let row = format!(
            "{} {:?} {}: prints {printed:.2}, closed form {:.2} ({:+.1} %)",
            c.selector,
            c.key,
            c.column,
            c.closed_form,
            100.0 * off
        );
        match c.verdict {
            Verdict::Within if off.abs() > TOLERANCE => {
                failures.push(format!("{row}: outside the {TOLERANCE} tolerance"));
            }
            Verdict::ExpectedMiss(pinned) if (printed - pinned).abs() > c.precision => {
                failures.push(format!("{row}: expected-miss pinned at {pinned} moved"));
            }
            Verdict::ExpectedMiss(_) if off.abs() <= TOLERANCE => {
                failures.push(format!("{row}: now within tolerance, mark it `Within`"));
            }
            _ => {}
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn fig08_commit_intervals_follow_their_labels() {
    let ssd = DeviceProfile::plain_ssd();
    let fs = FsConfig::new(FsMode::Ext4);
    let (dma, overhead) = (us(ssd.dma_per_block), us(ssd.cmd_overhead));
    let barrier = ssd.barrier_overhead.factor();
    // One commit of the storm: four DWSL threads append one block each, so
    // 4 data blocks, a descriptor with 4 inode logs, a commit block, and 4
    // inode checkpoint writes later.
    let (data, jd, jc, checkpoint) = (4.0, 5.0, 1.0, 4.0);
    let waited = |blocks: f64| overhead + blocks * dma;
    // BarrierFS never waits for a transfer: the link, kept busy, is the
    // bound. JD and JC are barrier writes.
    let t_d = (data + checkpoint) * dma + (jd + jc) * dma * barrier;
    // Wait-on-Transfer: D, then JD, then JC, each on an idle link; the
    // data writer's wake-up, the commit thread's, and the next round's
    // write and fsync calls in between.
    let host = us(fs.ctx_switch) + us(fs.commit_thread_wake) + 2.0 * us(CPU_PER_OP);
    let t_dc = waited(data) + waited(jd) + waited(jc) + host;
    // JC's FLUSH|FUA: on PLP only the round trip; otherwise the preflush
    // drains the commit's programs, and the FUA waits for JC's own.
    let t_eps = us(ssd.flush_overhead);
    let t_f = us(ssd.page_program) + us(ssd.flush_overhead) + us(ssd.page_program);
    // The figure divides the commits of the whole run, warm-up included,
    // by the measured window alone: it prints this share of the interval.
    let window = figure_window(SCALE);
    let printed_share = window.as_secs_f64() / (WARMUP + window).as_secs_f64();
    let claim = |key, interval: f64, verdict| Claim {
        selector: "fig8",
        key,
        column: "mean interval (us)",
        precision: 0.5,
        closed_form: interval * printed_share,
        verdict,
    };
    check(&[
        claim(
            &["BarrierFS (tD)"],
            t_d,
            // The link is not kept quite busy: 13 % above the closed form.
            Verdict::ExpectedMiss(104.0),
        ),
        claim(&["EXT4 no flush (tD+tC)"], t_dc, Verdict::Within),
        claim(
            &["EXT4 quick flush (tD+tC+te)"],
            t_dc + t_eps,
            Verdict::Within,
        ),
        claim(&["EXT4 full flush (tD+tC+tF)"], t_dc + t_f, Verdict::Within),
    ]);
}

#[test]
fn fig09_xnf_is_one_transfer_and_one_flush_per_write() {
    let fs = FsConfig::new(FsMode::Ext4);
    let claim = |dev: &DeviceProfile, pinned: f64| {
        // The write's transfer on an idle link, the writer's wake-up, the
        // flush of its one program, and the write and fdatasync calls.
        let transfer = us(dev.cmd_overhead) + us(dev.dma_per_block);
        let program = if dev.plp { 0.0 } else { us(dev.page_program) };
        let flush = program + us(dev.flush_overhead);
        let per_write = transfer + us(fs.ctx_switch) + flush + 2.0 * us(CPU_PER_OP);
        Claim {
            selector: "fig9",
            key: match dev.name.as_str() {
                "UFS" => &["UFS", "XnF"],
                "plain-SSD" => &["plain-SSD", "XnF"],
                _ => &["supercap-SSD", "XnF"],
            },
            column: "KIOPS",
            precision: 0.005,
            // One block per write: thousands of writes per second.
            closed_form: 1e3 / per_write,
            // Every row misses by 2–3×: the writes land on blocks of the
            // 8,192-block region not allocated yet, so an fdatasync commits
            // the journal (about 1.2 commits and 6 blocks written per call)
            // instead of only flushing.
            verdict: Verdict::ExpectedMiss(pinned),
        }
    };
    check(&[
        claim(&DeviceProfile::ufs(), 3.41),
        claim(&DeviceProfile::plain_ssd(), 3.87),
        claim(&DeviceProfile::supercap_ssd(), 25.51),
    ]);
}
