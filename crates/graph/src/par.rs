//! The one parallel map every index-build fan-out runs through.
//!
//! [`par_map`] is **deterministic**: `0..n` is split into contiguous
//! chunks whose boundaries depend only on `n`, the grain and the number
//! of worker states (never on scheduling), each chunk is mapped by
//! exactly one scoped worker, and the results come back in index order.
//! As long as `f` is a pure function of the index (worker state is
//! scratch that may be reused but never changes a result), the output
//! is the sequential map's for every thread count — which is what keeps
//! a built index byte-identical across `--build-threads` values.
//!
//! [`workers`] is the one place a thread knob's `0` ("all cores") is
//! resolved.

/// Worker count for a thread knob: `0` means the machine's available
/// parallelism, any other value is taken as given.
pub fn workers(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Maps `f` over `0..n` on at most `states.len()` workers, each owning
/// one entry of `states`, and returns the results in index order.
///
/// A call fans out over `min(states.len(), ceil(n / grain))` workers, so
/// every worker gets at least `grain` items and a small call runs inline
/// on `states[0]`. Worker `w` maps the `w`-th contiguous chunk with
/// `states[w]`. The states belong to the caller and outlive the call, so
/// a pool of scratch workspaces (and whatever they tally) carries across
/// calls.
///
/// # Panics
/// Panics if `states` is empty, and propagates a panic of `f`.
// Audited expect: `join` only fails when a worker panicked, and
// propagating that panic is exactly the intended behavior.
#[allow(clippy::expect_used)]
pub fn par_map<S, R, F>(states: &mut [S], n: usize, grain: usize, f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    assert!(
        !states.is_empty(),
        "par_map needs at least one worker state"
    );
    let k = states.len().min(n.div_ceil(grain.max(1)));
    if k <= 1 {
        let s = &mut states[0];
        return (0..n).map(|i| f(s, i)).collect();
    }
    let chunk = n.div_ceil(k);
    let f = &f;
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .zip((0..n).step_by(chunk))
            .map(|(s, lo)| {
                let hi = n.min(lo + chunk);
                scope.spawn(move || (lo..hi).map(|i| f(s, i)).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("build worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let n = 1000;
        let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9e37)).collect();
        for threads in [1, 2, 3, 8, 0] {
            for grain in [1, 32, 256] {
                let mut states = vec![0u64; workers(threads)];
                let par = par_map(&mut states, n, grain, |acc, i| {
                    *acc += 1; // per-worker scratch must not leak into output
                    (i as u64).wrapping_mul(0x9e37)
                });
                assert_eq!(par, seq, "threads={threads} grain={grain}");
            }
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let mut states = vec![(); 8];
        assert!(par_map(&mut states, 0, 1, |_, i| i).is_empty());
        assert_eq!(par_map(&mut states, 3, 1, |_, i| i), vec![0, 1, 2]);
        assert_eq!(par_map(&mut states, 3, 32, |_, i| i), vec![0, 1, 2]);
    }

    #[test]
    fn worker_state_survives_across_calls() {
        // Each worker counts the items it mapped; the tallies carry over
        // from one call to the next and together cover every item.
        let mut states = vec![0usize; 3];
        par_map(&mut states, 90, 1, |seen, _| *seen += 1);
        assert_eq!(states, vec![30, 30, 30]);
        par_map(&mut states, 4, 32, |seen, _| *seen += 1);
        assert_eq!(
            states,
            vec![34, 30, 30],
            "a small call runs on the first state"
        );
        par_map(&mut states, 7, 1, |seen, _| *seen += 1);
        assert_eq!(states, vec![37, 33, 31]);
    }

    #[test]
    fn workers_maps_zero_to_all_cores() {
        assert!(workers(0) >= 1);
        assert_eq!(workers(1), 1);
        assert_eq!(workers(3), 3);
    }
}
