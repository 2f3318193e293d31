//! Item scanner: structure on top of the flat token stream.
//!
//! Walks a lexed file once and records the items the analyzers care
//! about — functions (with body token ranges and `module::Type::fn`
//! qualification), structs (field names + type text), enums (variant
//! names + payload text) — plus which token ranges are test-only
//! (`#[cfg(test)]` / `#[test]`), so analyzers can skip them.
//!
//! This is deliberately not a parser: it tracks brace nesting and a small
//! amount of item grammar, and treats everything else as opaque tokens.
//! Known approximations (fine for lint purposes, locked by fixtures):
//! items inside function bodies are not scanned, and `#[cfg(not(test))]`
//! is treated like `#[cfg(test)]`.

use crate::lexer::{lex, Tok, Token};

/// A named struct field.
#[derive(Debug, Clone)]
pub struct Field {
    pub name: String,
    /// The field's type, as space-joined token text (`HashMap < Lba , BlockTag >`).
    pub ty: String,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub struct StructItem {
    pub name: String,
    pub line: u32,
    /// Empty for unit and tuple structs.
    pub fields: Vec<Field>,
    pub is_test: bool,
}

#[derive(Debug, Clone)]
pub struct Variant {
    pub name: String,
    /// Space-joined token text of the payload (tuple or braced), empty
    /// for unit variants.
    pub payload: String,
}

#[derive(Debug, Clone)]
pub struct EnumItem {
    pub name: String,
    pub line: u32,
    pub variants: Vec<Variant>,
    pub is_test: bool,
}

#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// `module::Type::name` (no crate prefix; the workspace walker adds it).
    pub qual: String,
    pub line: u32,
    /// Token index range of the body, inclusive of both braces.
    pub body: (usize, usize),
    pub is_test: bool,
    /// Set when the fn lives in an `impl` (or trait) block.
    pub impl_type: Option<String>,
}

/// The scanned file: tokens plus item structure.
#[derive(Debug, Default)]
pub struct FileScan {
    pub toks: Vec<Token>,
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
    pub enums: Vec<EnumItem>,
    /// Token index ranges (inclusive) covered by test-only items.
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileScan {
    /// True when token `idx` falls inside a test-only item.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    /// The innermost non-test function whose body contains token `idx`.
    pub fn fn_at(&self, idx: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| idx >= f.body.0 && idx <= f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }
}

/// Lexes and scans one source file.
pub fn scan(src: &str) -> FileScan {
    let toks = lex(src);
    let mut s = Scanner {
        toks: &toks,
        i: 0,
        out: FileScan::default(),
    };
    let end = toks.len();
    s.items(
        end,
        &Ctx {
            path: Vec::new(),
            impl_type: None,
            in_test: false,
        },
    );
    let mut scan = s.out;
    scan.toks = toks;
    scan
}

/// Item-scope context (module path, enclosing impl, test-ness).
#[derive(Clone)]
struct Ctx {
    path: Vec<String>,
    impl_type: Option<String>,
    in_test: bool,
}

struct Scanner<'a> {
    toks: &'a [Token],
    i: usize,
    out: FileScan,
}

impl<'a> Scanner<'a> {
    fn tok(&self, idx: usize) -> Option<&Tok> {
        self.toks.get(idx).map(|t| &t.tok)
    }

    fn line(&self, idx: usize) -> u32 {
        self.toks.get(idx).map(|t| t.line).unwrap_or(0)
    }

    /// Index just past the token matching the opener at `open` (which
    /// must be `(`, `[` or `{`). Strings/comments are already tokenized,
    /// so counting delimiters is sound.
    fn skip_balanced(&self, open: usize) -> usize {
        let (o, c) = match self.tok(open) {
            Some(Tok::Punct('(')) => ('(', ')'),
            Some(Tok::Punct('[')) => ('[', ']'),
            Some(Tok::Punct('{')) => ('{', '}'),
            _ => return open + 1,
        };
        let mut depth = 0usize;
        let mut j = open;
        while let Some(t) = self.tok(j) {
            if t.is_punct(o) {
                depth += 1;
            } else if t.is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.toks.len()
    }

    /// Skips a `<…>` generics list starting at `start` (a `<`). `->`
    /// inside (e.g. `Fn() -> u8` bounds) must not close the list, so the
    /// `>` of an arrow is ignored.
    fn skip_generics(&self, start: usize) -> usize {
        let mut depth = 0i32;
        let mut j = start;
        while let Some(t) = self.tok(j) {
            match t {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') => {
                    let arrow = j > 0
                        && self
                            .tok(j - 1)
                            .is_some_and(|p| p.is_punct('-') || p.is_punct('='));
                    if !arrow {
                        depth -= 1;
                        if depth == 0 {
                            return j + 1;
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.toks.len()
    }

    /// Skips to just past the next `;` at delimiter depth 0 (for
    /// `const`/`static`/`type`/`use` items whose initializers may contain
    /// balanced groups).
    fn skip_to_semi(&mut self) {
        while let Some(t) = self.tok(self.i) {
            match t {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => {
                    self.i = self.skip_balanced(self.i);
                }
                Tok::Punct(';') => {
                    self.i += 1;
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Consumes the run of outer attributes in front of an item and
    /// returns whether they mark it test-only. Inner attributes (`#![…]`)
    /// are skipped without attaching.
    fn attrs(&mut self) -> bool {
        let mut test = false;
        loop {
            match (self.tok(self.i), self.tok(self.i + 1)) {
                (Some(Tok::Punct('#')), Some(Tok::Punct('['))) => {
                    let end = self.skip_balanced(self.i + 1);
                    let idents: Vec<&str> = self.toks[self.i + 1..end]
                        .iter()
                        .filter_map(|t| t.tok.ident())
                        .collect();
                    test |= match idents.first().copied() {
                        Some("test") => true,
                        Some("cfg") => idents.contains(&"test"),
                        _ => false,
                    };
                    self.i = end;
                }
                (Some(Tok::Punct('#')), Some(Tok::Punct('!'))) => {
                    // #![…]
                    if self.tok(self.i + 2).is_some_and(|t| t.is_punct('[')) {
                        self.i = self.skip_balanced(self.i + 2);
                    } else {
                        self.i += 2;
                    }
                }
                _ => return test,
            }
        }
    }

    /// Scans items until token index `end`.
    fn items(&mut self, end: usize, ctx: &Ctx) {
        while self.i < end {
            let attr_test = self.attrs();
            if self.i >= end {
                return;
            }
            let start = self.i;
            let item_test = ctx.in_test || attr_test;
            match self.tok(self.i).cloned() {
                Some(Tok::Ident(kw)) => match kw.as_str() {
                    // Visibility / qualifier prefixes: consume and loop so
                    // the collected attrs… are lost. To keep attrs, handle
                    // inline: scan past prefixes here.
                    "pub" | "unsafe" | "async" | "default" | "extern" | "const" => {
                        self.prefixed_item(end, ctx, item_test, start);
                    }
                    "mod" => self.mod_item(ctx, item_test, start),
                    "fn" => {
                        self.fn_item(ctx, item_test, start);
                    }
                    "struct" | "union" => self.struct_item(item_test, start),
                    "enum" => self.enum_item(item_test, start),
                    "impl" => self.impl_item(ctx, item_test, start),
                    "trait" => self.trait_item(ctx, item_test, start),
                    "use" | "static" | "type" | "macro_rules" => {
                        self.i += 1;
                        // macro_rules! name { … } has no semicolon; skip
                        // its balanced body instead.
                        if kw == "macro_rules" {
                            while let Some(t) = self.tok(self.i) {
                                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                                    self.i = self.skip_balanced(self.i);
                                    break;
                                }
                                self.i += 1;
                            }
                        } else {
                            self.skip_to_semi();
                        }
                        self.note_test(item_test, ctx, start);
                    }
                    _ => self.i += 1,
                },
                Some(Tok::Punct('{')) => {
                    self.i = self.skip_balanced(self.i);
                }
                _ => self.i += 1,
            }
        }
    }

    /// Handles `pub`/`unsafe`/`const`/… prefixes without losing the item's
    /// attributes: skips the prefixes, then dispatches on the keyword.
    fn prefixed_item(&mut self, end: usize, ctx: &Ctx, item_test: bool, start: usize) {
        loop {
            match self.tok(self.i).cloned() {
                Some(Tok::Ident(w)) => match w.as_str() {
                    "pub" => {
                        self.i += 1;
                        if self.tok(self.i).is_some_and(|t| t.is_punct('(')) {
                            self.i = self.skip_balanced(self.i);
                        }
                    }
                    "unsafe" | "async" | "default" => self.i += 1,
                    "extern" => {
                        self.i += 1;
                        if matches!(self.tok(self.i), Some(Tok::Str)) {
                            self.i += 1;
                        }
                    }
                    "const" => {
                        // `const fn` is a prefix; `const NAME: …;` is an item.
                        if self.tok(self.i + 1).is_some_and(|t| t.is_ident("fn")) {
                            self.i += 1;
                        } else {
                            self.i += 1;
                            self.skip_to_semi();
                            self.note_test(item_test, ctx, start);
                            return;
                        }
                    }
                    "fn" => {
                        self.fn_item(ctx, item_test, start);
                        return;
                    }
                    "struct" | "union" => {
                        self.struct_item(item_test, start);
                        return;
                    }
                    "enum" => {
                        self.enum_item(item_test, start);
                        return;
                    }
                    "mod" => {
                        self.mod_item(ctx, item_test, start);
                        return;
                    }
                    "trait" => {
                        self.trait_item(ctx, item_test, start);
                        return;
                    }
                    "impl" => {
                        self.impl_item(ctx, item_test, start);
                        return;
                    }
                    "use" | "static" | "type" => {
                        self.skip_to_semi();
                        self.note_test(item_test, ctx, start);
                        return;
                    }
                    _ => {
                        self.i += 1;
                        return;
                    }
                },
                _ => return,
            }
            if self.i >= end {
                return;
            }
        }
    }

    /// Records a test range for an item spanning `start..self.i` when the
    /// item itself is the test root (not already inside one).
    fn note_test(&mut self, item_test: bool, ctx: &Ctx, start: usize) {
        if item_test && !ctx.in_test && self.i > start {
            self.out.test_ranges.push((start, self.i - 1));
        }
    }

    fn mod_item(&mut self, ctx: &Ctx, item_test: bool, start: usize) {
        self.i += 1; // mod
        let name = match self.tok(self.i).cloned() {
            Some(Tok::Ident(n)) => {
                self.i += 1;
                n
            }
            _ => String::new(),
        };
        match self.tok(self.i) {
            Some(Tok::Punct('{')) => {
                let body_end = self.skip_balanced(self.i);
                self.i += 1; // into the body
                let mut inner = ctx.clone();
                inner.path.push(name);
                inner.in_test = item_test;
                self.items(body_end - 1, &inner);
                self.i = body_end;
                self.note_test(item_test, ctx, start);
            }
            _ => {
                // `mod name;`
                self.skip_to_semi();
            }
        }
    }

    fn fn_item(&mut self, ctx: &Ctx, item_test: bool, start: usize) {
        self.i += 1; // fn
        let (name, line) = match self.tok(self.i).cloned() {
            Some(Tok::Ident(n)) => {
                let l = self.line(self.i);
                self.i += 1;
                (n, l)
            }
            _ => return,
        };
        // Find the body `{` (or `;` for a bodyless trait method) at
        // paren/bracket depth 0. Signatures cannot contain braces.
        loop {
            match self.tok(self.i) {
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => {
                    self.i = self.skip_balanced(self.i);
                }
                Some(Tok::Punct(';')) => {
                    self.i += 1;
                    return; // declaration only
                }
                Some(Tok::Punct('{')) => break,
                Some(_) => self.i += 1,
                None => return,
            }
        }
        let body_start = self.i;
        let body_end = self.skip_balanced(body_start); // one past `}`
        self.i = body_end;
        let mut qual_parts = ctx.path.clone();
        if let Some(t) = &ctx.impl_type {
            qual_parts.push(t.clone());
        }
        qual_parts.push(name.clone());
        self.out.fns.push(FnItem {
            name,
            qual: qual_parts.join("::"),
            line,
            body: (body_start, body_end.saturating_sub(1)),
            is_test: item_test,
            impl_type: ctx.impl_type.clone(),
        });
        self.note_test(item_test, ctx, start);
    }

    fn struct_item(&mut self, item_test: bool, start: usize) {
        self.i += 1; // struct / union
        let (name, line) = match self.tok(self.i).cloned() {
            Some(Tok::Ident(n)) => {
                let l = self.line(self.i);
                self.i += 1;
                (n, l)
            }
            _ => return,
        };
        if self.tok(self.i).is_some_and(|t| t.is_punct('<')) {
            self.i = self.skip_generics(self.i);
        }
        let mut fields = Vec::new();
        loop {
            match self.tok(self.i) {
                Some(Tok::Punct(';')) => {
                    self.i += 1;
                    break;
                }
                Some(Tok::Punct('(')) => {
                    // Tuple struct: skip payload, then the trailing `;`.
                    self.i = self.skip_balanced(self.i);
                }
                Some(Tok::Punct('{')) => {
                    let body_end = self.skip_balanced(self.i);
                    self.named_fields(self.i + 1, body_end - 1, &mut fields);
                    self.i = body_end;
                    break;
                }
                Some(_) => self.i += 1, // where-clause etc.
                None => break,
            }
        }
        self.out.structs.push(StructItem {
            name,
            line,
            fields,
            is_test: item_test,
        });
        if item_test {
            self.out.test_ranges.push((start, self.i.saturating_sub(1)));
        }
    }

    /// Parses `name: Type` fields between `from` and `to` (exclusive of
    /// the struct's braces).
    fn named_fields(&self, from: usize, to: usize, out: &mut Vec<Field>) {
        let mut j = from;
        while j < to {
            // Leading attributes and visibility.
            while let (Some(a), Some(b)) = (self.tok(j), self.tok(j + 1)) {
                if a.is_punct('#') && b.is_punct('[') {
                    j = self.skip_balanced(j + 1);
                } else if a.is_ident("pub") {
                    j += 1;
                    if self.tok(j).is_some_and(|t| t.is_punct('(')) {
                        j = self.skip_balanced(j);
                    }
                } else {
                    break;
                }
            }
            let (name, line) = match self.tok(j).cloned() {
                Some(Tok::Ident(n)) => (n, self.line(j)),
                _ => break,
            };
            j += 1;
            if !self.tok(j).is_some_and(|t| t.is_punct(':')) {
                break;
            }
            j += 1;
            // Type text runs to the next comma at depth 0.
            let ty_start = j;
            let mut angle = 0i32;
            while j < to {
                match self.tok(j) {
                    Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{')) => {
                        j = self.skip_balanced(j);
                        continue;
                    }
                    Some(Tok::Punct('<')) => angle += 1,
                    Some(Tok::Punct('>')) => {
                        let arrow = j > 0 && self.tok(j - 1).is_some_and(|p| p.is_punct('-'));
                        if !arrow {
                            angle -= 1;
                        }
                    }
                    Some(Tok::Punct(',')) if angle <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            out.push(Field {
                name,
                ty: join_tokens(&self.toks[ty_start..j.min(to)]),
                line,
            });
            j += 1; // past the comma
        }
    }

    fn enum_item(&mut self, item_test: bool, start: usize) {
        self.i += 1; // enum
        let (name, line) = match self.tok(self.i).cloned() {
            Some(Tok::Ident(n)) => {
                let l = self.line(self.i);
                self.i += 1;
                (n, l)
            }
            _ => return,
        };
        if self.tok(self.i).is_some_and(|t| t.is_punct('<')) {
            self.i = self.skip_generics(self.i);
        }
        while let Some(t) = self.tok(self.i) {
            if t.is_punct('{') {
                break;
            }
            self.i += 1;
        }
        let body_end = self.skip_balanced(self.i);
        let mut variants = Vec::new();
        let mut j = self.i + 1;
        while j < body_end - 1 {
            while let (Some(a), Some(b)) = (self.tok(j), self.tok(j + 1)) {
                if a.is_punct('#') && b.is_punct('[') {
                    j = self.skip_balanced(j + 1);
                } else {
                    break;
                }
            }
            let vname = match self.tok(j).cloned() {
                Some(Tok::Ident(n)) => n,
                _ => break,
            };
            j += 1;
            let mut payload = String::new();
            match self.tok(j) {
                Some(Tok::Punct('(')) | Some(Tok::Punct('{')) => {
                    let p_end = self.skip_balanced(j);
                    payload = join_tokens(&self.toks[j + 1..p_end - 1]);
                    j = p_end;
                }
                _ => {}
            }
            // Discriminant (`= expr`) or separator.
            while j < body_end - 1 && !self.tok(j).is_some_and(|t| t.is_punct(',')) {
                match self.tok(j) {
                    Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{')) => {
                        j = self.skip_balanced(j)
                    }
                    _ => j += 1,
                }
            }
            j += 1;
            variants.push(Variant {
                name: vname,
                payload,
            });
        }
        self.i = body_end;
        self.out.enums.push(EnumItem {
            name,
            line,
            variants,
            is_test: item_test,
        });
        if item_test {
            self.out.test_ranges.push((start, self.i.saturating_sub(1)));
        }
    }

    fn impl_item(&mut self, ctx: &Ctx, item_test: bool, start: usize) {
        self.i += 1; // impl
        if self.tok(self.i).is_some_and(|t| t.is_punct('<')) {
            self.i = self.skip_generics(self.i);
        }
        // The implementing type: the last path segment in front of the
        // body, counted from `for` when the impl names a trait.
        let mut ty: Option<String> = None;
        loop {
            match self.tok(self.i).cloned() {
                Some(Tok::Ident(w)) if w == "for" => {
                    ty = None;
                    self.i += 1;
                }
                Some(Tok::Ident(w)) if w == "where" => {
                    while let Some(t) = self.tok(self.i) {
                        if t.is_punct('{') {
                            break;
                        }
                        self.i += 1;
                    }
                }
                Some(Tok::Ident(w)) => {
                    ty = Some(w);
                    self.i += 1;
                }
                Some(Tok::Punct('<')) => self.i = self.skip_generics(self.i),
                Some(Tok::Punct('{')) => break,
                Some(_) => self.i += 1,
                None => return,
            }
        }
        let body_end = self.skip_balanced(self.i);
        self.i += 1;
        let mut inner = ctx.clone();
        inner.impl_type = ty;
        inner.in_test = item_test;
        self.items(body_end - 1, &inner);
        self.i = body_end;
        self.note_test(item_test, ctx, start);
    }

    /// Traits scan like impls (default method bodies are real code); the
    /// trait name stands in as the impl type.
    fn trait_item(&mut self, ctx: &Ctx, item_test: bool, start: usize) {
        self.i += 1; // trait
        let name = match self.tok(self.i).cloned() {
            Some(Tok::Ident(n)) => {
                self.i += 1;
                n
            }
            _ => return,
        };
        while let Some(t) = self.tok(self.i) {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') {
                self.i += 1;
                return; // trait alias
            }
            if t.is_punct('<') {
                self.i = self.skip_generics(self.i);
                continue;
            }
            self.i += 1;
        }
        let body_end = self.skip_balanced(self.i);
        self.i += 1;
        let mut inner = ctx.clone();
        inner.impl_type = Some(name);
        inner.in_test = item_test;
        self.items(body_end - 1, &inner);
        self.i = body_end;
        self.note_test(item_test, ctx, start);
    }
}

/// Space-joins token text (idents and puncts; literals become
/// placeholders). Used for field-type and variant-payload matching.
pub fn join_tokens(toks: &[Token]) -> String {
    let mut s = String::new();
    for t in toks {
        if !s.is_empty() {
            s.push(' ');
        }
        match &t.tok {
            Tok::Ident(i) => s.push_str(i),
            Tok::Lifetime(l) => {
                s.push('\'');
                s.push_str(l);
            }
            Tok::Str => s.push_str("\"\""),
            Tok::Char => s.push_str("' '"),
            Tok::Num => s.push('0'),
            Tok::Punct(c) => s.push(*c),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        use std::collections::HashMap;

        pub struct Table {
            pub base: HashMap<u64, u32>,
            count: usize,
        }

        pub enum Mode {
            Dense(Vec<u8>),
            Map(HashMap<u64, u32>),
            Off,
        }

        impl Table {
            pub fn handle_event(&mut self) -> usize {
                self.count
            }
        }

        impl Clone for Table {
            fn clone(&self) -> Self {
                Table { base: self.base.clone(), count: self.count }
            }
        }

        mod helpers {
            pub fn submit_probe() {}
        }

        #[cfg(test)]
        mod tests {
            #[test]
            fn probe() { let m = std::collections::HashMap::<u8, u8>::new(); drop(m); }
        }
    "#;

    #[test]
    fn structs_fields_and_enums() {
        let s = scan(SRC);
        let t = &s.structs[0];
        assert_eq!(t.name, "Table");
        assert_eq!(t.fields.len(), 2);
        assert_eq!(t.fields[0].name, "base");
        assert!(t.fields[0].ty.contains("HashMap"));
        let m = &s.enums[0];
        assert_eq!(m.name, "Mode");
        let names: Vec<_> = m.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["Dense", "Map", "Off"]);
        assert!(m.variants[1].payload.contains("HashMap"));
        assert!(m.variants[2].payload.is_empty());
    }

    #[test]
    fn fns_get_impl_and_module_quals() {
        let s = scan(SRC);
        let handle = s.fns.iter().find(|f| f.name == "handle_event").expect("fn");
        assert_eq!(handle.qual, "Table::handle_event");
        assert_eq!(handle.impl_type.as_deref(), Some("Table"));
        let clone = s.fns.iter().find(|f| f.name == "clone").expect("fn");
        assert_eq!(clone.impl_type.as_deref(), Some("Table"));
        let probe = s.fns.iter().find(|f| f.name == "submit_probe").expect("fn");
        assert_eq!(probe.qual, "helpers::submit_probe");
    }

    #[test]
    fn test_items_are_ranged() {
        let s = scan(SRC);
        let probe = s.fns.iter().find(|f| f.name == "probe").expect("fn");
        assert!(probe.is_test);
        assert!(s.in_test(probe.body.0));
        let handle = s.fns.iter().find(|f| f.name == "handle_event").expect("fn");
        assert!(!s.in_test(handle.body.0));
    }
}
