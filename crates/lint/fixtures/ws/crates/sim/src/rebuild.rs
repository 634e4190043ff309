//! Named like a build script but library code: a file is a build script
//! only when it is named exactly `build.rs`.

use crate::round::Engine;

impl Engine {
    pub fn retire_block(&mut self) {
        let done: Vec<u64> = Vec::new();
        self.blocks.extend(done);
    }
}
