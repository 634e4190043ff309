//! P003 across files: a hot method reaches an allocating method of the
//! same type defined in `rebuild.rs`, which is library code.

pub struct Engine {
    pub blocks: Vec<u64>,
}

impl Engine {
    // lint: hot
    pub fn deliver(&mut self) {
        self.retire_block();
    }
}
