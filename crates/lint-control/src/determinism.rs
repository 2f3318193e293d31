//! Seeded determinism violations.

use std::collections::{HashMap, HashSet};

pub struct Cache {
    pages: HashMap<u64, u32>,
    hot: HashSet<u64>,
    names: Vec<String>,
}

pub enum Table {
    Dense(Vec<u32>),
    Sparse(HashMap<u64, u32>),
}

type Idx = HashMap<u64, u32>;

pub struct Aliased {
    idx: Idx,
}

fn mk_map() -> HashMap<u64, u32> {
    HashMap::new()
}

impl Cache {
    // VIOLATION: hash-field iteration.
    pub fn checksum(&self) -> u64 {
        self.pages.iter().map(|(k, v)| k ^ u64::from(*v)).sum()
    }

    // VIOLATION: `for … in &set`.
    pub fn spill(&self) -> usize {
        let mut n = 0;
        for h in &self.hot {
            n += *h as usize;
        }
        n
    }

    // Legal: keyed lookups and a Vec iteration.
    pub fn fine(&self) -> usize {
        let _ = self.pages.get(&1);
        let _ = self.hot.contains(&2);
        self.names.iter().map(String::len).sum()
    }
}

impl Table {
    // VIOLATION: iterating the hash-payload variant's binding.
    pub fn total(&self) -> u64 {
        match self {
            Table::Dense(v) => v.iter().map(|x| u64::from(*x)).sum(),
            Table::Sparse(m) => m.values().map(|x| u64::from(*x)).sum(),
        }
    }
}

impl Aliased {
    // VIOLATION, visible only to a type-resolving lint: the field's type is
    // an alias.
    pub fn total(&self) -> u64 {
        self.idx.values().map(|x| u64::from(*x)).sum()
    }
}

// VIOLATION, visible only to a type-resolving lint: the map is a call's
// return value.
pub fn returned() -> u64 {
    mk_map().into_values().map(u64::from).sum()
}

// VIOLATION: local HashMap drained in declaration order.
pub fn drain_local() -> usize {
    let mut scratch: HashMap<u64, u64> = HashMap::new();
    scratch.insert(1, 2);
    scratch.drain().count()
}

// VIOLATIONS: wall clock, host threads, hash-order iterator type.
pub fn ambient(it: std::collections::hash_map::Iter<u64, u64>) -> usize {
    let _t = std::time::Instant::now();
    std::thread::yield_now();
    it.count()
}

// VIOLATIONS: the process environment as a hidden input. Arguments are
// explicit inputs and stay legal.
pub fn hidden_switch() -> bool {
    use std::env;
    let listed = env::vars().count() + std::env::vars_os().count();
    let args = env::args().count();
    std::env::var_os("SINGLE_STEP").is_some() || env::var("MODE").is_ok() || listed + args > 0
}
