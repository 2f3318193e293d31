//! The `lint.toml` allowlist: the *only* way to suppress a finding.
//!
//! There are deliberately no inline `// bio-lint: allow` escapes — every
//! suppression lives in one checked-in, reviewed file, and every entry
//! must carry a non-empty `reason`. The file is parsed with a hand-rolled
//! reader covering the TOML subset the allowlist needs (no `toml` crate;
//! the workspace builds offline):
//!
//! ```toml
//! [[allow]]
//! analyzer = "determinism"          # required: which analyzer to quiet
//! path = "crates/fs/src/index.rs"   # required: repo-relative file
//! symbol = "Index::iter"            # optional: substring of the symbol
//! snippet = "m.iter()"              # optional: substring of the snippet
//! reason = "why this iteration cannot leak hash order into anything observable"
//! ```
//!
//! Comments and blank lines are allowed; anything else (tables, arrays,
//! non-string values, unknown keys) is a hard config error — the binary
//! exits 2 so a malformed allowlist can never silently allow everything.

use crate::report::{Finding, ANALYZERS};

/// One `[[allow]]` entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub analyzer: String,
    pub path: String,
    pub symbol: Option<String>,
    pub snippet: Option<String>,
    pub reason: String,
    /// Line of the `[[allow]]` header (for error messages).
    pub line: u32,
}

impl AllowEntry {
    /// A finding matches when analyzer and path agree exactly and the
    /// optional `symbol`/`snippet` narrowers appear as substrings.
    pub fn matches(&self, f: &Finding) -> bool {
        self.analyzer == f.analyzer
            && self.path == f.path
            && self.symbol.as_deref().is_none_or(|s| f.symbol.contains(s))
            && self
                .snippet
                .as_deref()
                .is_none_or(|s| f.snippet.contains(s))
    }
}

/// Parses the allowlist. `Err` carries a `line N: …` message.
pub fn parse(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut open = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if open {
                validate(entries.last().expect("open entry"), entries.len())?;
            }
            entries.push(AllowEntry {
                analyzer: String::new(),
                path: String::new(),
                symbol: None,
                snippet: None,
                reason: String::new(),
                line: lineno,
            });
            open = true;
            continue;
        }
        let Some((key, value)) = parse_kv(line) else {
            return Err(format!(
                "lint.toml line {lineno}: expected `[[allow]]` or `key = \"value\"`, got `{line}`"
            ));
        };
        if !open {
            return Err(format!(
                "lint.toml line {lineno}: key `{key}` outside any [[allow]] entry"
            ));
        }
        let e = entries.last_mut().expect("open entry");
        match key {
            "analyzer" => e.analyzer = value,
            "path" => e.path = value,
            "symbol" => e.symbol = Some(value),
            "snippet" => e.snippet = Some(value),
            "reason" => e.reason = value,
            other => {
                return Err(format!("lint.toml line {lineno}: unknown key `{other}`"));
            }
        }
    }
    if open {
        validate(entries.last().expect("open entry"), entries.len())?;
    }
    Ok(entries)
}

/// Every entry needs analyzer (a known one), path, and a real reason.
fn validate(e: &AllowEntry, n: usize) -> Result<(), String> {
    if !ANALYZERS.contains(&e.analyzer.as_str()) {
        return Err(format!(
            "lint.toml entry #{n} (line {}): analyzer `{}` is not one of {:?}",
            e.line, e.analyzer, ANALYZERS
        ));
    }
    if e.path.is_empty() {
        return Err(format!(
            "lint.toml entry #{n} (line {}): missing `path`",
            e.line
        ));
    }
    if e.reason.trim().is_empty() {
        return Err(format!(
            "lint.toml entry #{n} (line {}): every suppression must carry a non-empty `reason`",
            e.line
        ));
    }
    Ok(())
}

/// Drops a trailing `# comment`, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// `key = "value"` with basic backslash escapes in the value.
fn parse_kv(line: &str) -> Option<(&str, String)> {
    let (key, rest) = line.split_once('=')?;
    let key = key.trim();
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    let rest = rest.trim();
    let inner = rest.strip_prefix('"')?.strip_suffix('"')?;
    let mut value = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => value.push('\n'),
                Some('t') => value.push('\t'),
                Some(other) => value.push(other),
                None => return None,
            }
        } else if c == '"' {
            return None; // unescaped quote mid-value → malformed
        } else {
            value.push(c);
        }
    }
    Some((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_entries() {
        let text = r#"
# suppressions
[[allow]]
analyzer = "determinism"   # hash iteration
path = "crates/fs/src/index.rs"
symbol = "Index::iter"
snippet = "m.iter()"
reason = "keyed lookups only"
"#;
        let es = parse(text).expect("parses");
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].analyzer, "determinism");
        assert_eq!(es[0].symbol.as_deref(), Some("Index::iter"));
    }

    #[test]
    fn reason_is_mandatory() {
        let text = "[[allow]]\nanalyzer = \"totality\"\npath = \"a.rs\"\n";
        let err = parse(text).expect_err("must fail");
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_keys_and_analyzers_fail() {
        let t1 =
            "[[allow]]\nanalyzer = \"totality\"\npath = \"a.rs\"\nreason = \"r\"\nfoo = \"x\"\n";
        assert!(parse(t1).is_err());
        let t2 = "[[allow]]\nanalyzer = \"nope\"\npath = \"a.rs\"\nreason = \"r\"\n";
        assert!(parse(t2).is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let text =
            "[[allow]]\nanalyzer = \"layering\"\npath = \"a.rs\"\nreason = \"issue #42 tracks this\"\n";
        let es = parse(text).expect("parses");
        assert_eq!(es[0].reason, "issue #42 tracks this");
    }
}
