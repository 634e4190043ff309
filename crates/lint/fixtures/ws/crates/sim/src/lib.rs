//! Deterministic-crate fixture: D001, P001, P002, L000 and D003 all fire here.
#![forbid(unsafe_code)]

use std::collections::HashMap;

pub fn order(xs: &[u64]) -> Vec<u64> {
    let seen: HashMap<u64, u64> = HashMap::new();
    xs.iter().map(|x| seen[x]).collect()
}

pub fn risky(v: Option<u32>) -> u32 {
    v.unwrap()
}

// lint: allow(P001)
pub fn shaky(v: Option<u32>) -> u32 { v.expect("bare directive suppresses nothing") }

// lint: allow(P001) fixture demonstrates a justified, documented panic
pub fn excused(v: Option<u32>) -> u32 { v.expect("excused") }

pub fn total(handles: Vec<std::thread::JoinHandle<f64>>) -> f64 {
    handles.into_iter().map(|h| h.join().unwrap_or(0.0)).sum()
}

// lint: hot
pub fn hot_path(xs: &[u64], out: &mut Vec<u64>) {
    let mut tmp = Vec::new();
    tmp.extend(xs.iter().copied());
    out.extend(tmp);
}

#[cfg(test)]
mod helpers;
