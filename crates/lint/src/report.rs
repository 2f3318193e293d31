//! Findings and the two output renderers (human table / machine JSON).
//! JSON is hand-written — no serde; the schema is small and stable (CI
//! parses it in the `lint` job).

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
    /// Short source-shaped excerpt (`committed.iter()`).
    pub snippet: String,
    /// Human explanation of the violated invariant.
    pub message: String,
}

/// The outcome of a full run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every analyzer hit; any one fails the run.
    pub findings: Vec<Finding>,
    /// Files scanned (observability).
    pub files_scanned: usize,
}

pub const ANALYZERS: [&str; 3] = ["determinism", "totality", "layering"];

impl Report {
    /// Per-analyzer finding counts, in [`ANALYZERS`] order.
    pub fn counts(&self) -> Vec<(&'static str, usize)> {
        ANALYZERS
            .iter()
            .map(|&a| (a, self.findings.iter().filter(|f| f.analyzer == a).count()))
            .collect()
    }

    /// Human-readable table; one line per finding, then a summary.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.findings.is_empty() {
            out.push_str("bio-lint: no findings\n");
        } else {
            out.push_str(&format!("bio-lint: {} finding(s)\n\n", self.findings.len()));
            let wa = self
                .findings
                .iter()
                .map(|f| f.analyzer.len())
                .max()
                .unwrap_or(8);
            let wp = self
                .findings
                .iter()
                .map(|f| f.path.len() + 1 + digits(f.line))
                .max()
                .unwrap_or(8);
            for f in &self.findings {
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
        out.push_str("  analyzer       open\n");
        for (a, open) in self.counts() {
            out.push_str(&format!("  {a:<13} {open:>5}\n"));
        }
        out.push_str(&format!("  files scanned: {}\n", self.files_scanned));
        out
    }

    /// Machine output: stable small schema, keys always present.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        push_findings(&mut s, self.findings.iter());
        s.push_str("],\n  \"summary\": {");
        for (k, (a, open)) in self.counts().iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{a}\": {{\"open\": {open}}}"));
        }
        s.push_str("\n  },\n");
        s.push_str(&format!(
            "  \"files_scanned\": {}\n}}\n",
            self.files_scanned
        ));
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
        let r = Report {
            findings: vec![f],
            files_scanned: 1,
        };
        let j = r.render_json();
        assert!(j.contains("quote \\\" and \\\\ back"));
        assert!(j.contains("\"determinism\": {\"open\": 1}"));
        assert!(j.contains("\"totality\": {\"open\": 0}"));
        assert!(j.ends_with("\"files_scanned\": 1\n}\n"));
    }
}
