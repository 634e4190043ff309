// Brought in by `#[cfg(test)] mod helpers;` in lib.rs, with no inner
// attribute of its own: test code, so nothing in here may fire.
pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}
