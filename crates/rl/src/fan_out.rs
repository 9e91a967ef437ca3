//! Ordered fan-out over scoped threads.
//!
//! The LM arm's sampling, rollout scoring and per-rollout PPO losses are
//! independent per item but must come back in item order, so that what
//! the caller folds — batches, rollouts, gradient sums — is the same for
//! any thread count. [`map_in_order`] is the one primitive all three use.

/// Maps `f` over `items` on scoped threads and returns the results in
/// item order.
///
/// The items split into `min(lanes.len(), items.len())` contiguous
/// chunks whose sizes differ by at most one; chunk `i` runs with
/// `lanes[i]` as its private scratch state (a KV cache, say, or `()`).
/// The calling thread takes the first chunk, one scoped thread each the
/// rest. A panic on any thread resurfaces on the caller.
///
/// # Panics
///
/// Panics if `lanes` is empty while `items` is not.
pub fn map_in_order<T, L, U, F>(items: &[T], lanes: &mut [L], f: F) -> Vec<U>
where
    T: Sync,
    L: Send,
    U: Send,
    F: Fn(&mut L, &T) -> U + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    assert!(!lanes.is_empty(), "fan-out needs at least one lane");
    let chunks = lanes.len().min(items.len());
    let (base, extra) = (items.len() / chunks, items.len() % chunks);
    let run = |lane: &mut L, chunk: &[T]| chunk.iter().map(|item| f(lane, item)).collect();
    std::thread::scope(|scope| {
        let run = &run;
        let mut rest = items;
        let mut parts = Vec::with_capacity(chunks);
        for i in 0..chunks {
            let (chunk, tail) = rest.split_at(base + usize::from(i < extra));
            parts.push(chunk);
            rest = tail;
        }
        let (first_lane, other_lanes) = lanes.split_first_mut().expect("non-empty lanes");
        let helpers: Vec<_> = parts[1..]
            .iter()
            .zip(other_lanes)
            .map(|(&chunk, lane)| scope.spawn(move || run(lane, chunk)))
            .collect();
        let mut out: Vec<U> = run(first_lane, parts[0]);
        for helper in helpers {
            let part: Vec<U> =
                helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            out.extend(part);
        }
        out
    })
}

/// Threads the fan-outs use: one per available core.
pub fn available_lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order_for_any_lane_count() {
        let items: Vec<u32> = (0..23).collect();
        let expected: Vec<u32> = items.iter().map(|x| x * x).collect();
        for lanes in [1, 2, 3, 8, 64] {
            let mut scratch = vec![0usize; lanes];
            let out = map_in_order(&items, &mut scratch, |seen, x| {
                *seen += 1;
                x * x
            });
            assert_eq!(out, expected, "{lanes} lanes");
            // Contiguous, balanced chunks: every used lane took ⌊n/l⌋ or
            // ⌈n/l⌉ items, and lanes past the item count stayed idle.
            let used = lanes.min(items.len());
            let (lo, hi) = (items.len() / used, items.len().div_ceil(used));
            assert!(scratch[..used].iter().all(|&n| n == lo || n == hi), "{scratch:?}");
            assert!(scratch[used..].iter().all(|&n| n == 0));
        }
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let out: Vec<u8> = map_in_order(&[] as &[u8], &mut [] as &mut [()], |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "lane failed")]
    fn helper_panics_resurface_on_the_caller() {
        let items = [0u8, 1, 2, 3];
        map_in_order(&items, &mut [(), ()], |_, &x| {
            assert!(x < 2, "lane failed");
            x
        });
    }
}
