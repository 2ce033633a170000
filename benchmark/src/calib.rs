//! The speed probe: how fast is this machine running right now?
//!
//! The reference box is a shared VM. For seconds to minutes at a time,
//! code that keeps a core's execution units busy — the engine — runs 1.3
//! to 1.8 times slower on it, while code that waits on memory or on one
//! dependent chain barely slows: as if a neighbour's thread had landed on
//! the other hardware thread of a core of ours. Nothing inside the guest
//! says so (no steal time; CPU time stretches with wall time). A fixed
//! piece of equally throughput-bound work stretches by nearly the same
//! factor (within −8 % to +7 % of the engine's, IQR ÷ median 0.024, in a
//! 17-minute side-by-side series in which the engine itself moved by
//! 32 %), so timing it between slices of a run tells how much of a
//! slice's time is the machine's doing. It lives here, outside the code
//! under test, and never changes with it.

use std::hint::black_box;
use std::time::Instant;

/// Seconds [`seconds`] takes on the reference box when nothing disturbs
/// it: speed 1.
pub const NOMINAL_S: f64 = 0.047;

/// Eight independent integer chains: arithmetic that fills the execution
/// units and touches no memory.
fn chains(rounds: u64) -> u64 {
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..black_box(rounds) {
        for (k, v) in x.iter_mut().enumerate() {
            *v = (*v ^ (*v << 13)).wrapping_add(i ^ k as u64);
            *v ^= *v >> 7;
        }
    }
    x.iter().fold(0, |a, b| a ^ b)
}

/// Seconds `threads` threads take to do the probe's work once each, side
/// by side (the engine keeps every core busy too).
pub fn seconds(threads: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| black_box(chains(14_000_000)));
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Speed of the machine now: 1 is the undisturbed reference box, 0.6 a
/// machine on which the same work takes 1/0.6 times as long.
pub fn speed(threads: usize) -> f64 {
    NOMINAL_S / seconds(threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_real_work_and_reports_a_positive_speed() {
        assert_ne!(chains(10), chains(11));
        let speed = speed(1);
        assert!(speed.is_finite() && speed > 0.0);
    }
}
