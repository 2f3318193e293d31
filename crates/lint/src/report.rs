//! Findings, suppression bookkeeping, and the two output renderers
//! (human table / machine JSON). JSON is hand-written — no serde; the
//! schema is small and stable (CI parses it in the `lint` job).

use crate::allow::AllowEntry;

/// One analyzer hit, attributed to `crate::module::fn` at `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// `determinism` | `totality` | `layering`.
    pub analyzer: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    pub line: u32,
    /// Qualified symbol (`fs::journal::Journal::on_jd_done`); module or
    /// crate granularity when the hit is outside any function.
    pub symbol: String,
    /// Short source-shaped excerpt (`committed.iter()`), used for
    /// allowlist matching.
    pub snippet: String,
    /// Human explanation of the violated invariant.
    pub message: String,
}

/// The outcome of a full run: partitioned findings plus allowlist audit.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by any `lint.toml` entry — these fail the run.
    pub open: Vec<Finding>,
    /// Suppressed findings, paired with the index of the matching entry.
    pub suppressed: Vec<(Finding, usize)>,
    /// The allowlist as loaded (for rendering / unused detection).
    pub allows: Vec<AllowEntry>,
    /// Indices of allowlist entries that matched nothing (stale —
    /// reported so dead suppressions get cleaned up).
    pub unused_allows: Vec<usize>,
    /// Files scanned (observability).
    pub files_scanned: usize,
}

pub const ANALYZERS: [&str; 3] = ["determinism", "totality", "layering"];

impl Report {
    /// Splits `findings` against the allowlist. First matching entry wins.
    pub fn partition(
        findings: Vec<Finding>,
        allows: Vec<AllowEntry>,
        files_scanned: usize,
    ) -> Report {
        let mut open = Vec::new();
        let mut suppressed = Vec::new();
        let mut used = vec![false; allows.len()];
        for f in findings {
            match allows.iter().position(|a| a.matches(&f)) {
                Some(i) => {
                    used[i] = true;
                    suppressed.push((f, i));
                }
                None => open.push(f),
            }
        }
        let unused_allows = (0..allows.len()).filter(|&i| !used[i]).collect();
        Report {
            open,
            suppressed,
            allows,
            unused_allows,
            files_scanned,
        }
    }

    /// Per-analyzer `(open, suppressed)` counts, in [`ANALYZERS`] order.
    pub fn counts(&self) -> Vec<(&'static str, usize, usize)> {
        ANALYZERS
            .iter()
            .map(|&a| {
                (
                    a,
                    self.open.iter().filter(|f| f.analyzer == a).count(),
                    self.suppressed
                        .iter()
                        .filter(|(f, _)| f.analyzer == a)
                        .count(),
                )
            })
            .collect()
    }

    /// Human-readable table; one line per open finding, then a summary.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.open.is_empty() {
            out.push_str("bio-lint: no unsuppressed findings\n");
        } else {
            out.push_str(&format!(
                "bio-lint: {} unsuppressed finding(s)\n\n",
                self.open.len()
            ));
            let wa = self
                .open
                .iter()
                .map(|f| f.analyzer.len())
                .max()
                .unwrap_or(8);
            let wp = self
                .open
                .iter()
                .map(|f| f.path.len() + 1 + digits(f.line))
                .max()
                .unwrap_or(8);
            for f in &self.open {
                out.push_str(&format!(
                    "  {:<wa$}  {:<wp$}  {}\n      {} — {}\n",
                    f.analyzer,
                    format!("{}:{}", f.path, f.line),
                    f.symbol,
                    f.snippet,
                    f.message,
                    wa = wa,
                    wp = wp,
                ));
            }
            out.push('\n');
        }
        out.push_str("  analyzer       open  suppressed\n");
        for (a, open, supp) in self.counts() {
            out.push_str(&format!("  {a:<13} {open:>5}  {supp:>10}\n"));
        }
        out.push_str(&format!(
            "  files scanned: {}; allowlist entries: {} ({} unused)\n",
            self.files_scanned,
            self.allows.len(),
            self.unused_allows.len()
        ));
        for &i in &self.unused_allows {
            let a = &self.allows[i];
            out.push_str(&format!(
                "  warning: unused lint.toml entry #{} ({} @ {})\n",
                i + 1,
                a.analyzer,
                a.path
            ));
        }
        out
    }

    /// Machine output: stable small schema, keys always present.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        push_findings(&mut s, self.open.iter());
        s.push_str("],\n  \"suppressed\": [");
        push_findings(&mut s, self.suppressed.iter().map(|(f, _)| f));
        s.push_str("],\n  \"summary\": {");
        let counts = self.counts();
        for (k, (a, open, supp)) in counts.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{a}\": {{\"open\": {open}, \"suppressed\": {supp}}}"
            ));
        }
        s.push_str("\n  },\n");
        s.push_str(&format!(
            "  \"files_scanned\": {},\n  \"allow_entries\": {},\n  \"unused_allow_entries\": [",
            self.files_scanned,
            self.allows.len()
        ));
        for (k, &i) in self.unused_allows.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            s.push_str(&(i + 1).to_string());
        }
        s.push_str("]\n}\n");
        s
    }
}

fn push_findings<'a>(s: &mut String, it: impl Iterator<Item = &'a Finding>) {
    let mut first = true;
    for f in it {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!(
            "\n    {{\"analyzer\": \"{}\", \"path\": \"{}\", \"line\": {}, \"symbol\": \"{}\", \"snippet\": \"{}\", \"message\": \"{}\"}}",
            f.analyzer,
            esc(&f.path),
            f.line,
            esc(&f.symbol),
            esc(&f.snippet),
            esc(&f.message),
        ));
    }
    if !first {
        s.push_str("\n  ");
    }
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Minimal JSON string escape (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            analyzer: "determinism",
            path: "crates/x/src/a.rs".into(),
            line: 3,
            symbol: "a::f".into(),
            snippet: "m.iter()".into(),
            message: "hash iteration".into(),
        }
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut f = finding();
        f.message = "quote \" and \\ back".into();
        let r = Report::partition(vec![f], vec![], 1);
        let j = r.render_json();
        assert!(j.contains("quote \\\" and \\\\ back"));
        assert!(j.contains("\"determinism\": {\"open\": 1, \"suppressed\": 0}"));
        assert!(j.contains("\"totality\": {\"open\": 0, \"suppressed\": 0}"));
    }

    #[test]
    fn unused_allows_are_reported() {
        let allow = AllowEntry {
            analyzer: "totality".into(),
            path: "nowhere.rs".into(),
            symbol: None,
            snippet: None,
            reason: "r".into(),
            line: 1,
        };
        let r = Report::partition(vec![finding()], vec![allow], 1);
        assert_eq!(r.open.len(), 1);
        assert_eq!(r.unused_allows, vec![0]);
    }
}
