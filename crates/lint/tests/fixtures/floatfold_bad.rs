//! f64 reductions rooted in a channel receiver: worker completion order
//! is scheduling-dependent, and float addition is not associative.

use std::sync::mpsc::channel;

pub fn total() -> f64 {
    let (tx, rx) = channel::<f64>();
    drop(tx);
    rx.iter().sum::<f64>()
}

pub fn total_folded() -> f64 {
    let (tx, rx) = channel::<f64>();
    drop(tx);
    rx.iter().fold(0.0, |acc, v| acc + v)
}

// A hash container returned by a call in the middle of the chain: a
// method call, then a path call (both defined in another crate).
pub fn method_total(stats: &Stats) -> f64 {
    stats.bytes_by_frame().values().sum::<f64>()
}

pub fn path_total(stats: &Stats) -> f64 {
    wheels_apps::gaming::bytes_by_frame(stats).values().sum::<f64>()
}

// A loop over a hash container returned by another crate's fn,
// accumulating into a field.
pub struct Runner {
    ds: Dataset,
}

impl Runner {
    pub fn gaming(&mut self, stats: &Stats) {
        for b in bytes_by_second(&stats).values() {
            self.ds.rx_bytes += b;
        }
    }
}
