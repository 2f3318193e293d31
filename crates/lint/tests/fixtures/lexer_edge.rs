//! Lexer edge cases: every analyzer trigger below is inert — buried in
//! string literals, raw strings, nested comments, char literals, or raw
//! identifiers. Expected finding count: zero.

/* outer comment
   /* nested comment mentioning self.map.iter() and panic!("x") */
   still inside the outer comment: Instant::now() and env::var("X")
*/

pub struct Decoy {
    text: String,
    r#match: u64, // raw ident — keyword as a field name
}

impl Decoy {
    pub fn handle_decoys(&self) -> usize {
        // Triggers inside cooked strings are not code.
        let a = "self.map.iter() and v[0] and .unwrap() and std::env::var_os(k)";
        // Raw strings with hashes, containing quotes and fake panics.
        let b = r#"panic!("not real") and thread_rng() "quoted""#;
        let c = r##"r#"nested raw"# with hash_map::Iter inside"##;
        // Byte strings and chars; '"' and '\'' must not open a string.
        let d = b"bytes with .expect(\"x\") inside";
        let e = '"';
        let f = '\'';
        let g = '\u{1F600}';
        // Lifetimes must not be mistaken for char literals.
        fn inner<'a>(s: &'a str) -> &'a str {
            s
        }
        // Raw identifier: `r#match` is the field, not the keyword.
        let h = self.r#match;
        // Float/range punctuation: `0..10` must stay a range, and the
        // exponent form must not swallow the method call.
        let i = (0..10).count();
        let j = 1.5e3_f64.to_bits();
        a.len()
            + b.len()
            + c.len()
            + d.len()
            + inner(&self.text).len()
            + (e as usize)
            + (f as usize)
            + (g as usize)
            + (h as usize)
            + i
            + (j as usize)
    }
}
