//! Determinism analyzer.
//!
//! The whole evaluation rests on bit-exact reproducibility: golden
//! `figures` diffs, serial-vs-parallel grid identity.
//! Anything that injects ambient nondeterminism into the six simulation
//! crates breaks those guarantees silently. This pass forbids, in
//! non-test `src/` code of `sim`/`flash`/`block`/`fs`/`core`/`workloads`:
//!
//! * iterating a `HashMap`/`HashSet` (`iter`, `iter_mut`, `into_iter`,
//!   `keys`, `values`, `values_mut`, `drain`, `into_keys`, `into_values`,
//!   and `for … in &map`) — `RandomState` hashing makes the order differ
//!   per process; keyed lookups (`get`, `contains`, `insert`, `remove`)
//!   stay legal. Naming a hash-order iterator type
//!   (`hash_map::Iter`) is flagged for the same reason.
//! * wall-clock reads: `Instant::now`, `SystemTime::now`.
//! * `std::thread` — all parallelism goes through `ExperimentGrid` in
//!   `bio-bench` (outside this analyzer's scope), which proves
//!   serial/parallel byte-identity.
//! * OS-entropy randomness (`OsRng`, `thread_rng`, `from_entropy`,
//!   `getrandom`) — all randomness flows from the seeded `SimRng`.
//! * environment reads (`var`, `var_os`, `vars`, `vars_os` of
//!   `std::env`) — a run is a function of its `StackConfig`, seed and
//!   workload; the process environment is not an input.
//!
//! Hash-typed *receivers* are found per file: struct fields and enum
//! variant payloads typed `HashMap`/`HashSet`, plus `let` bindings whose
//! declaration mentions either type, plus single-binding patterns of
//! map-payload enum variants (`Table::Map(m) => m.iter()`).

use std::collections::BTreeSet;

use crate::files::{FileKind, SourceFile};
use crate::lexer::Tok;
use crate::report::Finding;

const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_keys",
    "into_values",
];

const HASH_ITER_TYPES: [&str; 8] = [
    "Iter",
    "IterMut",
    "IntoIter",
    "Keys",
    "Values",
    "ValuesMut",
    "Drain",
    "IntoKeys",
];

const ENTROPY_IDENTS: [&str; 4] = ["OsRng", "thread_rng", "from_entropy", "getrandom"];

const ENV_READS: [&str; 4] = ["var", "var_os", "vars", "vars_os"];

fn is_hashy(type_text: &str) -> bool {
    type_text.contains("HashMap") || type_text.contains("HashSet")
}

pub fn run(file: &SourceFile) -> Vec<Finding> {
    if !file.crate_key.deterministic() || file.kind != FileKind::Src {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &file.scan.toks;

    // Hash-typed names declared in this file. Field names are collected
    // file-globally so nested receivers resolve (`self.trans.committed`
    // flags when `TransState.committed` is hash-typed even though the
    // enclosing impl is `Device`); the false-positive direction — two
    // structs sharing a field name with different types — is handled
    // below by letting the enclosing impl's own non-hash field win for
    // `self.x` receivers.
    let mut hash_fields: BTreeSet<&str> = BTreeSet::new();
    for s in file.scan.structs.iter().filter(|s| !s.is_test) {
        for f in s.fields.iter().filter(|f| is_hashy(&f.ty)) {
            hash_fields.insert(&f.name);
        }
    }
    // struct name -> names of its *non*-hash fields (the shadow set).
    let own_plain_field = |ty: Option<&str>, name: &str| -> bool {
        let Some(ty) = ty else { return false };
        file.scan
            .structs
            .iter()
            .find(|s| s.name == ty)
            .is_some_and(|s| s.fields.iter().any(|f| f.name == name && !is_hashy(&f.ty)))
    };
    let mut hash_variants: BTreeSet<&str> = BTreeSet::new();
    for e in file.scan.enums.iter().filter(|e| !e.is_test) {
        for v in e.variants.iter().filter(|v| is_hashy(&v.payload)) {
            hash_variants.insert(&v.name);
        }
    }

    let mut finding = |idx: usize, snippet: String, message: String| {
        out.push(Finding {
            analyzer: "determinism",
            path: file.rel.clone(),
            line: toks[idx].line,
            symbol: file.symbol_at(idx),
            snippet,
            message,
        });
    };

    // ---- whole-file token scans (tests masked) -----------------------
    for i in 0..toks.len() {
        if file.scan.in_test(i) {
            continue;
        }
        let id = match toks[i].tok.ident() {
            Some(id) => id,
            None => continue,
        };
        let path_next = |j: usize| -> Option<&str> {
            // `X :: Y` — returns Y when i is X.
            if toks.get(j)?.tok.is_punct(':') && toks.get(j + 1)?.tok.is_punct(':') {
                toks.get(j + 2)?.tok.ident()
            } else {
                None
            }
        };
        match id {
            "Instant" | "SystemTime" if path_next(i + 1) == Some("now") => {
                finding(
                    i,
                    format!("{id}::now()"),
                    "wall-clock time in a deterministic crate; use SimTime from the event loop"
                        .into(),
                );
            }
            "std" if path_next(i + 1) == Some("thread") => {
                finding(
                    i,
                    "std::thread".into(),
                    "host threads in a deterministic crate; parallelism goes through bio-bench's ExperimentGrid".into(),
                );
            }
            "env" => {
                if let Some(f) = path_next(i + 1).filter(|f| ENV_READS.contains(f)) {
                    finding(
                        i,
                        format!("env::{f}"),
                        "reads the process environment; a run's only inputs are its config, seed and workload"
                            .into(),
                    );
                }
            }
            "hash_map" | "hash_set" => {
                if let Some(t) = path_next(i + 1) {
                    if HASH_ITER_TYPES.contains(&t) {
                        finding(
                            i,
                            format!("{id}::{t}"),
                            "names a hash-order iterator type; iteration order differs per process"
                                .into(),
                        );
                    }
                }
            }
            _ if ENTROPY_IDENTS.contains(&id) => {
                finding(
                    i,
                    id.to_string(),
                    "OS-entropy randomness; all randomness must flow from the seeded SimRng".into(),
                );
            }
            _ => {}
        }
    }

    // ---- per-function receiver scans ---------------------------------
    for f in file.scan.fns.iter().filter(|f| !f.is_test) {
        let (b0, b1) = f.body;
        if file.scan.in_test(b0) {
            continue;
        }
        // `let` bindings whose declaration mentions a hash type.
        let mut locals: BTreeSet<String> = BTreeSet::new();
        let mut i = b0;
        while i <= b1 {
            if toks[i].tok.is_ident("let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.tok.is_ident("mut")) {
                    j += 1;
                }
                if let Some(Tok::Ident(name)) = toks.get(j).map(|t| &t.tok) {
                    // Scan the whole statement for a hash-type mention.
                    let mut k = j;
                    let mut depth = 0i32;
                    let mut hashy = false;
                    while k <= b1 {
                        match &toks[k].tok {
                            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                            Tok::Punct(';') if depth <= 0 => break,
                            Tok::Ident(w) if w == "HashMap" || w == "HashSet" => hashy = true,
                            _ => {}
                        }
                        k += 1;
                    }
                    if hashy {
                        locals.insert(name.clone());
                    }
                }
            } else if let Tok::Ident(v) = &toks[i].tok {
                // Variant pattern `Map(m)` of a hash-payload variant.
                if hash_variants.contains(v.as_str())
                    && toks.get(i + 1).is_some_and(|t| t.tok.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.tok.is_punct(')'))
                {
                    if let Some(Tok::Ident(bound)) = toks.get(i + 2).map(|t| &t.tok) {
                        locals.insert(bound.clone());
                    }
                }
            }
            i += 1;
        }

        let known = |name: &str| hash_fields.contains(name) || locals.contains(name);
        for i in b0..=b1 {
            match &toks[i].tok {
                // `x.iter()` where x is hash-typed.
                Tok::Ident(x) if known(x) => {
                    // `self.x` resolves to the enclosing impl's struct;
                    // its own non-hash field of the same name wins over a
                    // hash-typed homonym elsewhere in the file.
                    let self_receiver = i >= b0 + 2
                        && toks[i - 1].tok.is_punct('.')
                        && toks[i - 2].tok.is_ident("self");
                    if self_receiver && own_plain_field(f.impl_type.as_deref(), x) {
                        continue;
                    }
                    if toks.get(i + 1).is_some_and(|t| t.tok.is_punct('.')) {
                        if let Some(Tok::Ident(m)) = toks.get(i + 2).map(|t| &t.tok) {
                            if ITER_METHODS.contains(&m.as_str())
                                && toks.get(i + 3).is_some_and(|t| t.tok.is_punct('('))
                            {
                                finding(
                                    i,
                                    format!("{x}.{m}()"),
                                    "iterates a HashMap/HashSet; order is per-process random — use BTreeMap/BTreeSet or sort first".into(),
                                );
                            }
                        }
                    }
                }
                // `for … in &map {`.
                Tok::Ident(kw) if kw == "for" => {
                    let mut j = i + 1;
                    let mut guard = 0;
                    while j <= b1 && guard < 64 {
                        if toks[j].tok.is_ident("in") {
                            let mut k = j + 1;
                            while toks
                                .get(k)
                                .is_some_and(|t| t.tok.is_punct('&') || t.tok.is_ident("mut"))
                            {
                                k += 1;
                            }
                            // `for x in &map {` and `for x in &self.map {`.
                            let mut self_receiver = false;
                            if toks.get(k).is_some_and(|t| t.tok.is_ident("self"))
                                && toks.get(k + 1).is_some_and(|t| t.tok.is_punct('.'))
                            {
                                self_receiver = true;
                                k += 2;
                            }
                            if let Some(Tok::Ident(x)) = toks.get(k).map(|t| &t.tok) {
                                if known(x)
                                    && toks.get(k + 1).is_some_and(|t| t.tok.is_punct('{'))
                                    && !(self_receiver
                                        && own_plain_field(f.impl_type.as_deref(), x))
                                {
                                    finding(
                                        k,
                                        format!("for … in &{x}"),
                                        "iterates a HashMap/HashSet; order is per-process random — use BTreeMap/BTreeSet or sort first".into(),
                                    );
                                }
                            }
                            break;
                        }
                        if toks[j].tok.is_punct('{') {
                            break;
                        }
                        j += 1;
                        guard += 1;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::CrateKey;

    fn run_on(src: &str) -> Vec<Finding> {
        run(&SourceFile::new(
            CrateKey::Fs,
            FileKind::Src,
            "crates/fs/src/x.rs",
            src,
        ))
    }

    #[test]
    fn field_iteration_is_flagged_lookups_are_not() {
        let src = r#"
            use std::collections::HashMap;
            struct T { map: HashMap<u64, u32>, n: usize }
            impl T {
                fn bad(&self) -> usize { self.map.iter().count() }
                fn good(&self) -> Option<&u32> { self.map.get(&1) }
            }
        "#;
        let f = run_on(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].snippet, "map.iter()");
        assert_eq!(f[0].symbol, "fs::T::bad");
    }

    #[test]
    fn local_and_for_loop_iteration() {
        let src = r#"
            use std::collections::HashSet;
            fn f() {
                let mut s: HashSet<u64> = HashSet::new();
                s.insert(1);
                for v in &s { drop(v); }
            }
        "#;
        let f = run_on(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].snippet.contains("for"));
    }

    #[test]
    fn for_loop_over_self_field() {
        let src = r#"
            use std::collections::HashSet;
            struct T { hot: HashSet<u64>, cold: Vec<u64> }
            impl T {
                fn bad(&self) -> u64 { let mut n = 0; for h in &self.hot { n += *h; } n }
                fn fine(&self) -> u64 { let mut n = 0; for c in &self.cold { n += *c; } n }
            }
        "#;
        let f = run_on(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].snippet, "for … in &hot");
        assert_eq!(f[0].symbol, "fs::T::bad");
    }

    #[test]
    fn variant_binding_iteration() {
        let src = r#"
            use std::collections::HashMap;
            enum Table { Dense(Vec<u8>), Map(HashMap<u64, u32>) }
            impl Table {
                fn len(&self) -> usize {
                    match self { Table::Dense(v) => v.len(), Table::Map(m) => m.len() }
                }
                fn bad(&self) -> usize {
                    match self { Table::Dense(v) => v.len(), Table::Map(m) => m.keys().count() }
                }
            }
        "#;
        let f = run_on(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].snippet, "m.keys()");
    }

    #[test]
    fn clock_thread_and_entropy() {
        let src = r#"
            fn f() -> u64 {
                let t = std::time::Instant::now();
                std::thread::yield_now();
                let r = thread_rng();
                drop((t, r)); 0
            }
        "#;
        let f = run_on(src);
        let snippets: Vec<_> = f.iter().map(|x| x.snippet.as_str()).collect();
        assert!(snippets.contains(&"Instant::now()"), "{snippets:?}");
        assert!(snippets.contains(&"std::thread"), "{snippets:?}");
        assert!(snippets.contains(&"thread_rng"), "{snippets:?}");
    }

    #[test]
    fn impls_own_vec_field_shadows_a_hash_homonym() {
        // `Metrics.ops` is a HashMap, `RunReport.ops` a Vec — iterating
        // the latter through `self.ops` must not flag, while iterating a
        // nested hash field (`self.inner.ops`) still does.
        let src = r#"
            use std::collections::HashMap;
            struct Metrics { ops: HashMap<u64, u32> }
            struct RunReport { ops: Vec<u32>, inner: Metrics }
            impl RunReport {
                fn fine(&self) -> usize { self.ops.iter().count() }
            }
            impl Metrics {
                fn bad(&self) -> usize { self.ops.iter().count() }
            }
        "#;
        let f = run_on(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].symbol, "fs::Metrics::bad");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                fn helper(m: &HashMap<u64, u32>) { let m2: HashMap<u64,u32> = HashMap::new(); for x in &m2 { drop(x); } drop(m.iter()); }
            }
        "#;
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn out_of_scope_crates_and_kinds() {
        let src = "struct T { m: std::collections::HashMap<u8,u8> } impl T { fn f(&self) { self.m.iter(); } }";
        let bench = run(&SourceFile::new(
            CrateKey::Bench,
            FileKind::Src,
            "crates/bench/src/x.rs",
            src,
        ));
        assert!(bench.is_empty());
        let test_kind = run(&SourceFile::new(
            CrateKey::Fs,
            FileKind::Test,
            "crates/fs/tests/x.rs",
            src,
        ));
        assert!(test_kind.is_empty());
    }
}
