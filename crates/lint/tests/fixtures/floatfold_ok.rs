//! Clean counterparts: slice-rooted sums are ordered, `max` folds
//! commute, and integer sums are associative at any visit order.

use std::sync::mpsc::channel;

pub fn total(vals: &[f64]) -> f64 {
    vals.iter().sum::<f64>()
}

pub fn peak() -> f64 {
    let (tx, rx) = channel::<f64>();
    drop(tx);
    rx.iter().fold(f64::MIN, f64::max)
}

pub fn count() -> usize {
    let (tx, rx) = channel::<usize>();
    drop(tx);
    rx.iter().sum::<usize>()
}

// An integer counter over the loop a float accumulator may not use.
pub fn seconds(stats: &Stats) -> u64 {
    let mut n = 0;
    for _ in bytes_by_second(&stats).values() {
        n += 1;
    }
    n
}

// A `Vec`-rooted loop visits in index order.
pub struct Runner {
    rx_bytes: f64,
}

impl Runner {
    pub fn add(&mut self, bytes: Vec<f64>) {
        for b in &bytes {
            self.rx_bytes += b;
        }
    }
}
