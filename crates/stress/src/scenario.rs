//! The seeded chaos schedule: where to kill, how to resume.
//!
//! Every choice the harness makes — the journal byte each child dies
//! at, the thread count each child runs with — is drawn from `SimRng`
//! streams derived from `--stress-seed` alone, before any child runs,
//! so a soak replays its whole schedule exactly with the same seed.
//! The kill offsets lie strictly between the end of the journal's
//! identity header and the complete journal's length: every kill
//! leaves a journal, and every journal it leaves is incomplete. The
//! schedule deliberately varies the thread count across cycles: the
//! engine's contract is that it never affects output bytes, so every
//! cycle is also a byte-identity probe across thread counts.

use wheels_sim_core::rng::SimRng;

/// Thread counts the schedule draws from.
const THREADS: [usize; 3] = [1, 2, 4];

/// One cycle's plan: the child dies once its journal reaches
/// `kill_at_byte` bytes, and it runs with `threads` workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyclePlan {
    /// Journal length at which the child is killed (absolute, not a
    /// delta: the journal only grows).
    pub kill_at_byte: u64,
    /// Worker threads for the run this cycle spawns.
    pub threads: usize,
}

/// The whole soak's plan, drawn up front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The kill cycles, with strictly increasing `kill_at_byte`.
    pub cycles: Vec<CyclePlan>,
    /// Worker threads for the final, undisturbed completion run.
    pub final_threads: usize,
}

impl Schedule {
    /// Draw `cycles` kill offsets for a journal whose header ends at
    /// `header_end` and whose complete length is `final_len`. The
    /// open interval between them is cut into `cycles` equal strata,
    /// and cycle `i` draws uniformly from stratum `i`, so the offsets
    /// strictly increase and every cycle journals fresh bytes.
    pub fn new(
        stress_seed: u64,
        cycles: u32,
        header_end: u64,
        final_len: u64,
    ) -> Result<Schedule, String> {
        let n = u64::from(cycles);
        let span = final_len.saturating_sub(header_end + 1);
        if n == 0 || span < n {
            return Err(format!(
                "cannot place {cycles} kills strictly between byte {header_end} and byte {final_len}"
            ));
        }
        let root = SimRng::seed(stress_seed);
        let mut kill = root.split("stress/kill");
        let mut knobs = root.split("stress/knobs");
        let mut threads = || THREADS[knobs.uniform_u64(0, THREADS.len() as u64) as usize];
        let width = span / n;
        let cycles = (0..n)
            .map(|i| {
                let lo = header_end + 1 + width * i;
                let hi = if i + 1 == n { final_len } else { lo + width };
                CyclePlan {
                    kill_at_byte: kill.uniform_u64(lo, hi),
                    threads: threads(),
                }
            })
            .collect();
        Ok(Schedule {
            cycles,
            final_threads: threads(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Quick world's journal at seed 2022: header end, full length.
    const HEADER_END: u64 = 426;
    const FINAL_LEN: u64 = 7_007_437;

    #[test]
    fn schedules_are_reproducible_and_in_range() {
        for cycles in [1, 3, 8] {
            let s = Schedule::new(9, cycles, HEADER_END, FINAL_LEN).expect("room");
            assert_eq!(s.cycles.len(), cycles as usize);
            let mut prev = HEADER_END;
            for p in &s.cycles {
                assert!(p.kill_at_byte > prev, "{s:?}");
                assert!(p.kill_at_byte < FINAL_LEN, "{s:?}");
                assert!(THREADS.contains(&p.threads));
                prev = p.kill_at_byte;
            }
            assert!(THREADS.contains(&s.final_threads));
            assert_eq!(Schedule::new(9, cycles, HEADER_END, FINAL_LEN), Ok(s));
        }
        // As many kills as there are bytes between the two ends: each
        // stratum is one byte wide, so every byte is a kill.
        let tight = Schedule::new(3, 4, 10, 15).expect("four bytes, four kills");
        let bytes: Vec<u64> = tight.cycles.iter().map(|p| p.kill_at_byte).collect();
        assert_eq!(bytes, [11, 12, 13, 14]);
        assert!(
            Schedule::new(3, 5, 10, 15).is_err(),
            "five kills in four bytes"
        );
        assert!(Schedule::new(3, 0, 10, 15).is_err(), "no cycles");
    }

    #[test]
    fn different_seeds_diverge() {
        let plans: Vec<_> = (0..4)
            .map(|s| Schedule::new(s, 3, HEADER_END, FINAL_LEN).expect("room"))
            .collect();
        let first = &plans[0];
        assert!(
            plans
                .iter()
                .any(|p| p.cycles[0].kill_at_byte != first.cycles[0].kill_at_byte),
            "4 seeds all produced {first:?}"
        );
    }
}
