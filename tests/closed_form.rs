//! The claims ledger (ROADMAP item 1(1) and 1(3); `docs/CLAIMS.md` lists
//! the same rows): what the paper says, held against what the model
//! prints.
//!
//! A row names a claim, where it is stated, the cell that reproduces it —
//! one figure cell, or the ratio of two cells of one column — and the
//! number the cell should read: a closed form computed again from the
//! `DeviceProfile` and `FsConfig` constants alone (`fig08`, `fig09` XnF),
//! or the number the paper states (the abstract's headline ratios).
//!
//! A row within [`TOLERANCE`] of that number passes. A row outside it is
//! an `expected-miss`: the value the model gives is pinned here, so the
//! test fails when that value changes in either direction, and also when
//! it comes within tolerance (the verdict must then flip to `within`). A
//! miss is never fixed by widening the tolerance; ROADMAP item 1(4)
//! calibrates the model, or the figure, until the row lands. Every row
//! prints as a `ledger: ` line (`cargo test --test closed_form --
//! --nocapture`).
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

use std::collections::BTreeMap;

use barrier_io::{DeviceProfile, FsConfig, FsMode, SimDuration, CPU_PER_OP};
use bio_bench::experiments::{run, Figure};

/// How far a value may sit from the number it should read.
const TOLERANCE: f64 = 0.10;

/// The scale and seed count the figures run at (as in `golden_figures`).
const SCALE: u64 = 1;
const SEEDS: u64 = 5;

/// Where the abstract's claims are stated.
const ABSTRACT: &str = "abstract";

/// Whether a row is held to its number or pinned as a known miss.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// Within [`TOLERANCE`] of the number.
    Within,
    /// Outside it; the value the model gives, to [`Claim::precision`].
    ExpectedMiss(f64),
}

/// The ratio form of a row: its value is read from `key`'s cell and this
/// row's cell, in the same column, as the claim states it.
enum Over {
    /// `key`'s cell over this one: an "N×" claim.
    Times(Vec<&'static str>),
    /// How far `key`'s cell is above this one, in percent: a "+N %" claim.
    Gain(Vec<&'static str>),
}

/// One row of the ledger.
struct Claim {
    claim: &'static str,
    source: &'static str,
    selector: &'static str,
    key: Vec<&'static str>,
    over: Option<Over>,
    column: &'static str,
    /// Half a unit of the value's last pinned digit.
    precision: f64,
    /// The closed form, or the number the paper states.
    expected: f64,
    verdict: Verdict,
}

fn us(d: SimDuration) -> f64 {
    d.as_micros_f64()
}

/// Prints every row as a `ledger: ` line and fails on each row whose
/// verdict does not hold. Each figure runs once.
fn check(claims: &[Claim]) {
    let mut figures: BTreeMap<&str, Figure> = BTreeMap::new();
    let mut failures = Vec::new();
    for c in claims {
        let fig = figures
            .entry(c.selector)
            .or_insert_with(|| run(c.selector, SCALE, SEEDS).expect("a registered selector"));
        let cell = |key: &[&str]| {
            fig.value(key, c.column)
                .unwrap_or_else(|| panic!("{} has no cell {key:?} / {}", c.selector, c.column))
        };
        let (selector, key, column) = (c.selector, &c.key, c.column);
        let (value, cells) = match &c.over {
            None => (cell(key), format!("{selector} {key:?} {column}")),
            Some(Over::Times(base)) => (
                cell(key) / cell(base),
                format!("{selector} {key:?} / {base:?} {column}"),
            ),
            Some(Over::Gain(base)) => (
                100.0 * (cell(key) / cell(base) - 1.0),
                format!("{selector} {key:?} / {base:?} {column}"),
            ),
        };
        let off = value / c.expected - 1.0;
        let verdict = match c.verdict {
            Verdict::Within => "within",
            Verdict::ExpectedMiss(_) => "expected-miss",
        };
        let expected = format!(
            "expected {:.2} ({:+.1} %, tolerance {:.0} %)",
            c.expected,
            100.0 * off,
            100.0 * TOLERANCE
        );
        let row = format!(
            "{} | {} | {cells} | model {value:.2} | {expected} | {verdict}",
            c.claim, c.source
        );
        println!("ledger: {row}");
        match c.verdict {
            Verdict::Within if off.abs() > TOLERANCE => {
                failures.push(format!("{row}: outside the tolerance"));
            }
            Verdict::ExpectedMiss(pinned) if (value - pinned).abs() > c.precision => {
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
    let claim = |claim, label, interval: f64, verdict| Claim {
        claim,
        source: "paper Fig 8, as fig08 labels its rows",
        selector: "fig8",
        key: vec![label],
        over: None,
        column: "mean interval (us)",
        precision: 0.5,
        expected: interval,
        verdict,
    };
    check(&[
        claim(
            "BarrierFS commits every tD",
            "BarrierFS (tD)",
            t_d,
            // The link is not kept quite busy: 17 % above the closed form.
            Verdict::ExpectedMiss(134.0),
        ),
        claim(
            "EXT4 without flush commits every tD+tC",
            "EXT4 no flush (tD+tC)",
            t_dc,
            Verdict::Within,
        ),
        claim(
            "EXT4 with a PLP flush commits every tD+tC+te",
            "EXT4 quick flush (tD+tC+te)",
            t_dc + t_eps,
            Verdict::Within,
        ),
        claim(
            "EXT4 with a full flush commits every tD+tC+tF",
            "EXT4 full flush (tD+tC+tF)",
            t_dc + t_f,
            Verdict::Within,
        ),
    ]);
}

/// KIOPS of a one-thread `write()` + `fdatasync()` loop on `dev` under
/// EXT4 when every write is one transfer and one flush: the write's
/// transfer on an idle link, the writer's wake-up, the flush of its one
/// program, and the write and fdatasync calls. One block per write, so
/// thousands of writes per second.
fn xnf_kiops(dev: &DeviceProfile) -> f64 {
    let fs = FsConfig::new(FsMode::Ext4);
    let transfer = us(dev.cmd_overhead) + us(dev.dma_per_block);
    let program = if dev.plp { 0.0 } else { us(dev.page_program) };
    let flush = program + us(dev.flush_overhead);
    let per_write = transfer + us(fs.ctx_switch) + flush + 2.0 * us(CPU_PER_OP);
    1e3 / per_write
}

#[test]
fn fig09_xnf_is_one_transfer_and_one_flush_per_write() {
    let claim = |dev: &DeviceProfile, device, pinned: f64| {
        Claim {
            claim: "an XnF write is one transfer and one flush",
            source: "paper Fig 9 (XnF: transfer-and-flush)",
            selector: "fig9",
            key: vec![device, "XnF"],
            over: None,
            column: "KIOPS",
            precision: 0.005,
            expected: xnf_kiops(dev),
            // Every row misses by 2–3×: the writes land on blocks of the
            // 8,192-block region not allocated yet, so an fdatasync commits
            // the journal (about 1.2 commits and 6 blocks written per call)
            // instead of only flushing.
            verdict: Verdict::ExpectedMiss(pinned),
        }
    };
    check(&[
        claim(&DeviceProfile::ufs(), "UFS", 3.41),
        claim(&DeviceProfile::plain_ssd(), "plain-SSD", 3.87),
        claim(&DeviceProfile::supercap_ssd(), "supercap-SSD", 25.51),
    ]);
}

#[test]
fn the_abstracts_headline_claims() {
    use Verdict::{ExpectedMiss, Within};
    // fig14's BFS-DR over EXT4-DR on `device`, as a gain in percent.
    let barrier_durability = |claim, journal, device, expected, verdict| Claim {
        claim,
        source: ABSTRACT,
        selector: "fig14",
        key: vec![journal, device, "BFS-DR"],
        over: Some(Over::Gain(vec![journal, device, "EXT4-DR"])),
        column: "inserts/s",
        precision: 0.5,
        expected,
        verdict,
    };
    // BFS-OD over EXT4-DR, as a factor.
    let relaxed = |claim, selector, key: Vec<_>, column, expected, pinned| {
        let mut base = key.clone();
        *base.last_mut().expect("a stack column") = "EXT4-DR";
        Claim {
            claim,
            source: ABSTRACT,
            selector,
            key,
            over: Some(Over::Times(base)),
            column,
            precision: 0.005,
            expected,
            verdict: ExpectedMiss(pinned),
        }
    };
    let smartphone = "SQLite +75 % on smartphone storage (BFS-DR over EXT4-DR)";
    let server = "SQLite +270 % on server storage (BFS-DR over EXT4-DR)";
    let sqlite_73x = "SQLite 73x on server storage, relaxing durability (BFS-OD over EXT4-DR)";
    check(&[
        barrier_durability(smartphone, "PERSIST", "UFS", 75.0, ExpectedMiss(251.0)),
        barrier_durability(smartphone, "WAL", "UFS", 75.0, ExpectedMiss(58.0)),
        barrier_durability(server, "PERSIST", "plain-SSD", 270.0, Within),
        barrier_durability(server, "WAL", "plain-SSD", 270.0, ExpectedMiss(45.0)),
        barrier_durability(
            server,
            "PERSIST",
            "supercap-SSD",
            270.0,
            ExpectedMiss(242.0),
        ),
        barrier_durability(server, "WAL", "supercap-SSD", 270.0, ExpectedMiss(75.0)),
        // A stack that never waits on the device runs at a rate no device
        // constant bounds, because a syscall costs the host nothing but
        // `CPU_PER_OP` (ROADMAP item 9): the SQLite rows read high. Why
        // the MySQL row reads low is open.
        relaxed(
            sqlite_73x,
            "fig14",
            vec!["PERSIST", "plain-SSD", "BFS-OD"],
            "inserts/s",
            73.0,
            95.22,
        ),
        relaxed(
            sqlite_73x,
            "fig14",
            vec!["WAL", "plain-SSD", "BFS-OD"],
            "inserts/s",
            73.0,
            102.38,
        ),
        relaxed(
            "MySQL 43x on server storage, relaxing durability (BFS-OD over EXT4-DR)",
            "fig15",
            vec!["plain-SSD", "BFS-OD"],
            "OLTP Tx/s",
            43.0,
            23.10,
        ),
    ]);
}

#[test]
fn fig01_buffered_and_ordered_kiops_follow_the_link_and_xnf() {
    use Verdict::{ExpectedMiss, Within};
    let array = |channels, name: &str| {
        let mut p = DeviceProfile::flash_array(channels);
        p.name = name.into();
        p
    };
    // fig01's rows: the device, and what each column reads.
    let devices = [
        (
            "A:mobile/eMMC",
            DeviceProfile::emmc(),
            ExpectedMiss(5.00),
            1.88,
        ),
        ("B:mobile/UFS", DeviceProfile::ufs(), Within, 3.41),
        ("C:server/SATA", DeviceProfile::plain_ssd(), Within, 3.87),
        ("D:server/NVMe", array(16, "NVMe"), Within, 3.87),
        (
            "E:SATA-supercap",
            DeviceProfile::supercap_ssd(),
            Within,
            25.51,
        ),
        ("F:server/PCIe", array(24, "PCIe"), Within, 3.87),
        (
            "G:flash-array",
            DeviceProfile::flash_array(32),
            Within,
            3.87,
        ),
        ("HDD", DeviceProfile::hdd(), ExpectedMiss(3.85), 0.20),
    ];
    let mut claims = Vec::new();
    for (device, dev, buffered, ordered) in devices {
        // A buffered writer is bound by the link: the page cache writes
        // back in large merged requests, so a block costs its DMA alone.
        claims.push(Claim {
            claim: "buffered random writes run at the link's block rate",
            source: "paper Fig 1 (buffered write())",
            selector: "fig1",
            key: vec![device],
            over: None,
            column: "buffered KIOPS",
            precision: 0.005,
            expected: 1e3 / us(dev.dma_per_block),
            verdict: buffered,
        });
        // An ordered write is fig09's XnF: EXT4 write() + fdatasync().
        // Every row misses as XnF does, for XnF's reason (see above).
        claims.push(Claim {
            claim: "an ordered write is one transfer and one flush",
            source: "paper Fig 1 (ordered write(): write() + fdatasync())",
            selector: "fig1",
            key: vec![device],
            over: None,
            column: "ordered KIOPS",
            precision: 0.005,
            expected: xnf_kiops(&dev),
            verdict: ExpectedMiss(ordered),
        });
    }
    check(&claims);
}

#[test]
fn table1_baseline_fsync_latency_is_the_papers() {
    // `profile.rs` cites the paper's Table 1 for EXT4's full-flush mean
    // fsync latency. Every device misses: plain-SSD by 6×. Item 1(4) of
    // the ROADMAP is the calibration that would close them.
    let claim = |device, paper_ms, pinned| Claim {
        claim: "EXT4 (full flush) mean fsync latency, paper Table 1",
        source: "crates/flash/src/profile.rs:12-14",
        selector: "table1",
        key: vec![device, "EXT4"],
        over: None,
        column: "mean",
        precision: 0.005,
        expected: paper_ms,
        verdict: Verdict::ExpectedMiss(pinned),
    };
    check(&[
        claim("UFS", 1.3, 0.91),
        claim("plain-SSD", 6.0, 0.93),
        claim("supercap-SSD", 0.15, 0.10),
    ]);
}
