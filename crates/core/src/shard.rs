//! Sharded execution engine for per-client work.
//!
//! The paper's architecture adapts shared media *per client* (§5: each
//! receiver runs its own inference engine + transformer pipeline), so
//! the client is the natural unit of parallelism. This module
//! partitions a session's clients into contiguous index ranges
//! ("shards"), hands each shard to a scoped worker thread that owns
//! its slice of client state exclusively, and reassembles the results
//! in client order.
//!
//! Determinism: every observable output is merged back in client-index
//! order — exactly the order the serial loop produces — and each
//! client's state is only ever touched by the one worker that owns its
//! shard. Cross-client convergence (locks, LWW registers, the state
//! repository) is already order-insensitive by construction: replicas
//! arbitrate on the `(lamport, client)` total order via
//! [`crate::concurrency::happened_before`]. Together these guarantee
//! that any worker count yields bit-identical results to `workers: 1`.

use crate::concurrency::happened_before;
use std::cmp::Ordering;

/// Apply `f` to every `(item, input)` pair, sharding the work across
/// `workers` scoped threads, and return the outputs in item order.
///
/// Items are split into contiguous chunks; each worker mutates only its
/// own chunk, so no locks are needed. `workers <= 1` (or a single item)
/// runs serially on the caller's thread — the two paths produce
/// identical results, the parallel one merely overlaps wall-clock time.
///
/// Panics if `items` and `inputs` have different lengths; propagates
/// panics from worker threads.
pub fn map_shards<T, I, O, F>(
    items: &mut [T],
    inputs: impl IntoIterator<Item = I, IntoIter: ExactSizeIterator>,
    workers: usize,
    f: F,
) -> Vec<O>
where
    T: Send,
    I: Send,
    O: Send,
    F: Fn(usize, &mut T, I) -> O + Sync,
{
    let mut inputs = inputs.into_iter();
    assert_eq!(
        items.len(),
        inputs.len(),
        "one input per sharded item required"
    );
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return items
            .iter_mut()
            .zip(inputs)
            .enumerate()
            .map(|(i, (item, input))| f(i, item, input))
            .collect();
    }
    let chunk = n.div_ceil(workers);
    // Split the inputs into per-shard vectors up front so each worker
    // takes ownership of its slice of inputs.
    let input_chunks: Vec<Vec<I>> = (0..n.div_ceil(chunk))
        .map(|_| inputs.by_ref().take(chunk).collect())
        .collect();
    let mut shard_outputs: Vec<Vec<O>> = Vec::with_capacity(input_chunks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .zip(input_chunks)
            .enumerate()
            .map(|(w, (item_chunk, input_chunk))| {
                let f = &f;
                let base = w * chunk;
                scope.spawn(move || {
                    item_chunk
                        .iter_mut()
                        .zip(input_chunk)
                        .enumerate()
                        .map(|(i, (item, input))| f(base + i, item, input))
                        .collect::<Vec<O>>()
                })
            })
            .collect();
        shard_outputs = handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
    });
    shard_outputs.into_iter().flatten().collect()
}

/// Merge event records produced independently by several shards into
/// the session-wide `(lamport, client)` total order — the same order
/// [`crate::concurrency::happened_before`] induces and every replica's
/// lock manager arbitrates on. The result is independent of how the
/// records were distributed across shards.
pub fn merge_causal<T>(mut tagged: Vec<(u64, String, T)>) -> Vec<(u64, String, T)> {
    tagged.sort_by(|a, b| {
        if happened_before((a.0, &a.1), (b.0, &b.1)) {
            Ordering::Less
        } else if happened_before((b.0, &b.1), (a.0, &a.1)) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    });
    tagged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_shards_matches_serial_for_any_worker_count() {
        let inputs: Vec<u64> = (0..37).collect();
        let mut serial_items: Vec<u64> = (0..37).collect();
        let expected = map_shards(&mut serial_items, inputs.clone(), 1, |i, item, input| {
            *item += input;
            (i as u64) * 1000 + *item
        });
        for workers in [2, 3, 4, 8, 64] {
            let mut items: Vec<u64> = (0..37).collect();
            let got = map_shards(&mut items, inputs.clone(), workers, |i, item, input| {
                *item += input;
                (i as u64) * 1000 + *item
            });
            assert_eq!(got, expected, "workers = {workers}");
            assert_eq!(items, serial_items, "workers = {workers}");
        }
    }

    #[test]
    fn map_shards_handles_empty_and_single() {
        let mut empty: Vec<u8> = Vec::new();
        let out = map_shards(&mut empty, Vec::<u8>::new(), 4, |_, _, _| 0u8);
        assert!(out.is_empty());
        let mut one = vec![5u8];
        let out = map_shards(&mut one, vec![2u8], 4, |_, item, input| *item + input);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn map_shards_indices_are_global() {
        let mut items = vec![(); 10];
        let idx = map_shards(&mut items, vec![(); 10], 3, |i, _, _| i);
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn merge_causal_is_partition_independent() {
        let mk = |l: u64, c: &str| (l, c.to_string(), format!("{l}-{c}"));
        let a = vec![mk(3, "carol"), mk(1, "bob")];
        let b = vec![mk(1, "alice"), mk(2, "bob"), mk(3, "alice")];
        let mut one: Vec<_> = a.iter().cloned().chain(b.iter().cloned()).collect();
        let mut two: Vec<_> = b.into_iter().chain(a).collect();
        one = merge_causal(one);
        two = merge_causal(two);
        assert_eq!(one, two);
        let order: Vec<(u64, &str)> = one.iter().map(|(l, c, _)| (*l, c.as_str())).collect();
        assert_eq!(
            order,
            vec![
                (1, "alice"),
                (1, "bob"),
                (2, "bob"),
                (3, "alice"),
                (3, "carol")
            ]
        );
    }
}
