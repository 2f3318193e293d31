//! Seeded fork-coverage violations. Scanned as `crates/core/src/` text by
//! `fixtures_test.rs` — never compiled into the workspace.

pub struct Snapshot {
    clock: u64,
    queue: Vec<u64>,
    arena: Vec<u8>,
}

impl Snapshot {
    // VIOLATION: `arena` is never mentioned — a fork that silently drops
    // (or would alias) the newest field.
    pub fn fork(&self) -> Snapshot {
        Snapshot {
            clock: self.clock,
            queue: self.queue.clone(),
        }
    }
}

pub struct Ledger {
    entries: Vec<u64>,
    sealed: bool,
}

impl Clone for Ledger {
    // Legal: every field is mentioned.
    fn clone(&self) -> Self {
        Ledger {
            entries: self.entries.clone(),
            sealed: self.sealed,
        }
    }
}

pub struct Wrapper {
    inner: Ledger,
    tag: u64,
}

impl Wrapper {
    // Legal: delegates to `self.clone()` — no field enumeration to audit.
    pub fn fork(&self) -> Box<Wrapper> {
        Box::new(self.clone())
    }
}

pub struct Cursor {
    base: u64,
    committed: u64,
    history: Vec<u64>,
    audit: Vec<u64>,
}

impl Cursor {
    // VIOLATION (twice): the rebuilt cursor mentions neither `history` nor
    // `audit`, the index kept over it — a capture delta that silently
    // drops the newest tracked fields.
    pub fn delta_apply(&mut self, base: u64, committed: u64) {
        *self = Cursor { base, committed };
    }
}

pub struct Point {
    records: Vec<u64>,
    check: Vec<u64>,
}

impl Point {
    // VIOLATION: the captured point never mentions `check` — a check
    // index that stays behind when the records move on.
    pub fn capture(cursor: &Point) -> Point {
        Point {
            records: cursor.records.clone(),
        }
    }
}
