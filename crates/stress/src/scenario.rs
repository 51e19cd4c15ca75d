//! The seeded chaos schedule: where to kill, how to resume.
//!
//! Every choice the harness makes — the journal watermark a child dies
//! at, the thread count it resumes with — is drawn from `SimRng`
//! streams derived from `--stress-seed`, so a failing soak replays
//! exactly with the same seed. The schedule deliberately varies the
//! thread count across cycles: the engine's contract is that it never
//! affects output bytes, so every cycle is also a byte-identity probe
//! across thread counts.

use wheels_sim_core::rng::SimRng;

/// Resume thread counts cycled through by the schedule.
const THREADS: [usize; 3] = [1, 2, 4];

/// One cycle's plan: kill the child once the journal holds
/// `kill_at_frames` intact shard frames; resume with the given threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyclePlan {
    /// Intact shard-frame watermark that triggers the kill (absolute
    /// count, not a delta — the journal only grows).
    pub kill_at_frames: usize,
    /// Worker threads for the run this cycle spawns.
    pub threads: usize,
}

/// The seeded schedule generator.
#[derive(Debug)]
pub struct Schedule {
    kill: SimRng,
    knobs: SimRng,
}

impl Schedule {
    /// Derive the schedule streams from the stress seed.
    pub fn new(stress_seed: u64) -> Schedule {
        let root = SimRng::seed(stress_seed);
        Schedule {
            kill: root.split("stress/kill"),
            knobs: root.split("stress/knobs"),
        }
    }

    /// Plan the next cycle given where the journal stands: `done` intact
    /// shard frames so far out of `jobs` planned. Returns `None` once at
    /// most one shard is left to journal: that last frame is the final
    /// completion run's to append.
    pub fn next_cycle(&mut self, done: usize, jobs: usize) -> Option<CyclePlan> {
        if done + 1 >= jobs {
            return None;
        }
        // Uniform over `done + 1 ..= jobs - 1`: at least one frame more
        // than we have (so the kill observes fresh progress), never all
        // of them, so the final child has frames to append unless the
        // child outruns the SIGKILL (a valid outcome the harness
        // records).
        let kill_at_frames = self.kill.uniform_u64((done + 1) as u64, jobs as u64) as usize;
        Some(CyclePlan {
            kill_at_frames,
            threads: self.threads(),
        })
    }

    /// Draw the worker-thread count for the next child run (each
    /// cycle's, and the final undisturbed completion run's).
    pub fn threads(&mut self) -> usize {
        let t = self.knobs.uniform_u64(0, THREADS.len() as u64) as usize;
        THREADS[t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_reproducible_and_in_range() {
        let mut a = Schedule::new(9);
        let mut b = Schedule::new(9);
        for done in [0usize, 3, 7] {
            let (pa, pb) = (a.next_cycle(done, 9), b.next_cycle(done, 9));
            assert_eq!(pa, pb, "same seed, same plan");
            let p = pa.expect("two or more frames remain");
            assert!(p.kill_at_frames > done && p.kill_at_frames < 9);
            assert!(THREADS.contains(&p.threads));
        }
        // One frame short of the end, the kill would have to land on the
        // last frame; that frame is left to the final run.
        assert_eq!(a.next_cycle(7, 9).map(|p| p.kill_at_frames), Some(8));
        assert_eq!(a.next_cycle(8, 9), None, "last frame is the final run's");
        assert_eq!(a.next_cycle(9, 9), None, "nothing left to interrupt");
    }

    #[test]
    fn different_seeds_diverge() {
        let plans: Vec<_> = (0..4)
            .map(|s| Schedule::new(s).next_cycle(0, 1000))
            .collect();
        let first = plans[0];
        assert!(
            plans.iter().any(|p| *p != first),
            "4 seeds all produced {first:?}"
        );
    }
}
