//! Minimal fork-join helpers over `std::thread::scope`.
//!
//! The executor's hot loops (full scans, frontier expansion, join builds)
//! are embarrassingly parallel over slices. A work-stealing pool is
//! overkill for that shape — contiguous chunking keeps every worker's
//! output in input order, which is what lets parallel execution return
//! identically-ordered results to sequential execution. (The build
//! environment has no crates.io access, so this replaces `rayon` for the
//! handful of patterns the executor needs.)
//!
//! [`try_map_chunks`] is the only function here that splits and spawns;
//! [`map_chunks`] and [`filter`] go through it. One worker (or a small
//! input) means one chunk on the calling thread, so every executor
//! operator has a single body at any `parallelism`. [`concat()`] and
//! [`append`] are what a chunk body builds its output with.

/// Splits `items` into at most `threads` contiguous chunks, maps each chunk
/// on its own scoped thread, and returns the chunk results in input order
/// — or the first `Err` in *chunk order* (deterministic regardless of
/// which worker tripped first in wall-clock time). `f` receives
/// `(chunk_index, chunk)`.
///
/// With `threads <= 1`, or when the input is too small to be worth forking
/// for, there is one chunk and it is mapped on the calling thread: the
/// sequential execution is this function with one chunk, not a second
/// body at the call site. All workers are always joined before returning
/// — a budget checkpoint erroring inside one chunk never leaks a scoped
/// thread; siblings see the shared cancel token and bail at their next
/// checkpoint.
pub fn try_map_chunks<T, R, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &[T]) -> Result<R, E> + Sync,
{
    // Forking has a fixed cost (~10µs/thread); tiny inputs stay sequential.
    const MIN_ITEMS_PER_THREAD: usize = 64;
    let threads = threads.min(items.len() / MIN_ITEMS_PER_THREAD).max(1);
    if threads <= 1 {
        return if items.is_empty() {
            Ok(Vec::new())
        } else {
            Ok(vec![f(0, items)?])
        };
    }
    let chunk_len = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(i, chunk)| scope.spawn(move || f(i, chunk)))
            .collect();
        // Collect every result first so all workers join even when an
        // early chunk failed, then surface the first error in order.
        let results: Vec<Result<R, E>> = handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect();
        results.into_iter().collect()
    })
}

/// [`try_map_chunks`] for a map that cannot fail.
pub fn map_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    match try_map_chunks(items, threads, |i, chunk| {
        Ok::<R, std::convert::Infallible>(f(i, chunk))
    }) {
        Ok(chunks) => chunks,
        Err(never) => match never {},
    }
}

/// Joins per-chunk outputs in chunk order. The first chunk's buffer is
/// the output, so one chunk costs no copy.
pub fn concat<T>(chunks: impl IntoIterator<Item = Vec<T>>) -> Vec<T> {
    let mut chunks = chunks.into_iter();
    let mut out = chunks.next().unwrap_or_default();
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Appends `more` to a chunk's output buffer. A full buffer moves to a
/// fresh block of at least twice the size; it is not `realloc`ed. glibc
/// grows a block inside the malloc arena the block came from, and its
/// per-thread cache hands the query thread small blocks the *ingest
/// workers'* arena once made. After a large teardown elsewhere in the
/// process that arena's free lists take milliseconds to walk, once per
/// query for as long as the same block keeps coming back. A fresh block
/// is never grown, so it never enters that arena's allocator.
pub fn append<T: Copy>(out: &mut Vec<T>, more: &[T]) {
    let needed = out.len() + more.len();
    if needed > out.capacity() {
        let mut grown = Vec::with_capacity(needed.max(2 * out.capacity()));
        grown.extend_from_slice(out);
        *out = grown;
    }
    out.extend_from_slice(more);
}

/// Order-preserving parallel filter: keeps the items `keep` accepts, in
/// input order, evaluating `keep` across `threads` workers.
pub fn filter<T, F>(items: Vec<T>, threads: usize, keep: F) -> Vec<T>
where
    T: Send + Sync + Copy,
    F: Fn(&T) -> bool + Sync,
{
    concat(map_chunks(&items, threads, |_, chunk| {
        let mut kept: Vec<T> = Vec::with_capacity(chunk.len());
        kept.extend(chunk.iter().copied().filter(|v| keep(v)));
        kept
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_chunks_preserves_order() {
        let items: Vec<usize> = (0..10_000).collect();
        for threads in [1, 2, 3, 8] {
            let chunks = map_chunks(&items, threads, |_, c| c.to_vec());
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, items, "threads={threads}");
        }
    }

    #[test]
    fn map_chunks_small_input_stays_sequential() {
        let used = AtomicUsize::new(0);
        let out = map_chunks(&[1, 2, 3], 8, |i, c| {
            used.fetch_add(1, Ordering::SeqCst);
            (i, c.len())
        });
        assert_eq!(out, vec![(0, 3)]);
        assert_eq!(used.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn map_chunks_empty_input() {
        let out: Vec<usize> = map_chunks(&[] as &[u8], 4, |_, c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn append_keeps_order_and_grows_geometrically() {
        let mut out: Vec<u32> = Vec::with_capacity(2);
        let mut expect = Vec::new();
        let mut moves = 0;
        for i in 0..200u32 {
            let more: Vec<u32> = (0..i % 5).map(|j| i * 10 + j).collect();
            let before = out.capacity();
            append(&mut out, &more);
            moves += usize::from(out.capacity() != before);
            expect.extend(more);
        }
        assert_eq!(out, expect);
        assert!(moves <= 9, "400 items from capacity 2: {moves} moves");
        append(&mut out, &[]);
        assert_eq!(out, expect);
    }

    #[test]
    fn filter_matches_sequential_for_all_thread_counts() {
        let items: Vec<u64> = (0..5_000).collect();
        let expect: Vec<u64> = items.iter().copied().filter(|v| v % 7 == 0).collect();
        for threads in [1, 2, 4, 16] {
            assert_eq!(filter(items.clone(), threads, |v| v % 7 == 0), expect);
        }
    }

    #[test]
    fn try_map_chunks_propagates_first_error_in_chunk_order() {
        let items: Vec<usize> = (0..10_000).collect();
        for threads in [1, 2, 4, 8] {
            // Chunks past the first fail with their chunk index; the
            // error surfaced must be the lowest failing index even if a
            // later worker finishes first.
            let out = try_map_chunks(
                &items,
                threads,
                |i, c| {
                    if i >= 1 {
                        Err(i)
                    } else {
                        Ok(c.len())
                    }
                },
            );
            if threads == 1 {
                assert!(out.is_ok(), "single chunk never reaches index 1");
            } else {
                assert_eq!(out, Err(1), "threads={threads}");
            }
        }
    }

    #[test]
    fn try_map_chunks_ok_matches_map_chunks() {
        let items: Vec<usize> = (0..5_000).collect();
        for threads in [1, 2, 4] {
            let ok: Result<Vec<Vec<usize>>, ()> =
                try_map_chunks(&items, threads, |_, c| Ok(c.to_vec()));
            let flat: Vec<usize> = ok.expect("no errors").into_iter().flatten().collect();
            assert_eq!(flat, items, "threads={threads}");
        }
    }

    #[test]
    fn try_map_chunks_joins_all_workers_on_error() {
        let completed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1_000).collect();
        let out = try_map_chunks(&items, 4, |i, _| {
            completed.fetch_add(1, Ordering::SeqCst);
            if i == 0 {
                Err("boom")
            } else {
                Ok(())
            }
        });
        assert_eq!(out, Err("boom"));
        // Every spawned worker ran to completion and was joined.
        assert_eq!(completed.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn workers_actually_fork() {
        let ids = std::sync::Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..1_000).collect();
        let lens = map_chunks(&items, 4, |_, c| {
            ids.lock().unwrap().insert(std::thread::current().id());
            c.len()
        });
        assert!(ids.lock().unwrap().len() > 1, "expected multiple workers");
        // The infallible use joins every worker too: four chunks came
        // back, in order, covering the input.
        assert_eq!(lens, vec![250; 4]);
    }
}
