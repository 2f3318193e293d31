//! Seeded totality violations. The lints are crate-wide: a function's
//! name decides nothing.

pub struct Lane {
    slots: Vec<u64>,
}

impl Lane {
    // VIOLATIONS: unwrap, expect, panic!, unreachable!, direct indexing.
    pub fn handle_completion(&mut self, i: usize) -> u64 {
        let a = self.slots.get(i).unwrap();
        let b = self.slots.get(i).expect("slot present");
        if a != b {
            panic!("slot mismatch");
        }
        match i {
            0 => self.slots[i],
            _ => unreachable!(),
        }
    }

    // VIOLATION: indexing in a submit path.
    pub fn submit(&mut self, i: usize) -> u64 {
        self.slots[i]
    }

    // Legal: total alternatives.
    pub fn on_retry(&mut self, i: usize) -> u64 {
        debug_assert!(i < 1024);
        self.slots.get(i).copied().unwrap_or(0)
    }

    // VIOLATION: the rule is crate-wide, whatever the function is called.
    pub fn rebuild(&mut self, i: usize) -> u64 {
        self.slots[i]
    }

    // Legal itself; the helper it calls is not.
    pub fn handle(&mut self, i: usize) -> u64 {
        self.lookup(i)
    }

    // VIOLATIONS: an unwrap and an index in a helper a handler calls.
    fn lookup(&self, i: usize) -> u64 {
        self.slots[i] + self.slots.first().copied().unwrap()
    }

    // VIOLATIONS: the two placeholders.
    pub fn later(&self) -> u64 {
        todo!()
    }

    pub fn never(&self) -> u64 {
        unimplemented!()
    }
}
