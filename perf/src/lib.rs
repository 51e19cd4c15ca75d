//! # wheels-perf
//!
//! The performance ledger of the `wheels` workspace: one runner that
//! measures what users wait for, on four workloads, with a traced run
//! that attributes the time to layers. See `README.md` beside this
//! crate for the workloads, the metric catalogue, the trace format and
//! how to compare two sets of runs.
//!
//! The runner drives each layer only through its public API
//! (`Campaign`, `Journal` and `checkpoint::*`, `DatasetView`,
//! `render_report`, and `wheels_serve::{server, query, protocol}`); it
//! adds no code, knob or span inside the program.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod compare;
pub mod host;
pub mod loadgen;
pub mod report;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod workload;

/// FNV-1a 64-bit hash: the report fingerprint the seed pin is kept in.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `len` indices into the query mix, drawn uniformly by SplitMix64 from
/// `seed`: the same seed always sends the same request sequence.
pub(crate) fn mix_order(seed: u64, len: usize) -> Vec<usize> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z % workload::MIX.len() as u64) as usize
        })
        .collect()
}
