//! Scoped-thread fan-out over replicated networks.
//!
//! The sensitivity measurement, Hutchinson probing, and random search all
//! reduce to the same shape: a list of independent work items, each needing
//! a network it can perturb freely. [`replica_map`] hands the items out
//! to worker threads in item order from a shared counter (a worker takes
//! the next item as soon as it is free), runs the first worker on the
//! caller's network and hands every other worker its own clone of it, and
//! merges the per-item results back in item order. Because each item's
//! computation depends only on the item and on shared read-only state —
//! workers restore their replica to the original weights between items —
//! the output is bitwise identical regardless of thread count.
//!
//! The first worker runs on the caller's network rather than a clone
//! because a clone also copies the activations every layer caches from
//! its last forward pass: a network just evaluated on a large batch would
//! hand each replica a copy of them.
//!
//! [`replica_map_checked`] is the fault-tolerant core: a per-item panic is
//! caught, the replica is restored from the weight snapshot, the other
//! items still run, and the failure is surfaced as a typed
//! [`MeasureError`] — after every completed result has been streamed
//! through the caller's `sink` (which the sensitivity layer uses to
//! journal probes as they finish). A failed item is not rerun: items are
//! deterministic, so a rerun could only fail again. Nothing outside the
//! per-item guard panics; if something did, `std::thread::scope` would
//! re-raise it in the caller.

use crate::errors::MeasureError;
use clado_nn::Network;
use clado_telemetry::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolves a requested worker count: `0` means "all available cores".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Per-item outcome streamed out of the workers: the result, or the
/// panic message.
type ItemResult<R> = (usize, Result<R, String>);

/// Maps `f` over `items` on up to `threads` worker threads: the first
/// runs on `network` itself, every other on a private clone of it.
/// Results are returned in item order. `network`'s weights end as they
/// started; its forward caches and gradients do not.
///
/// `f` must leave the replica's weights exactly as it found them (restore
/// from a shared snapshot, not by subtracting deltas), so that an item's
/// result does not depend on which items ran before it on the same
/// replica. Under that contract the result is independent of `threads`.
///
/// A panic inside `f` is caught per item and recorded; the replica is
/// restored to the original weights. Failed items do not stop the sweep —
/// the remaining items still run (and still reach `sink`), so a journaling
/// caller salvages every completed probe before the error is returned.
///
/// `sink` observes each completed `(item, result)` from the calling
/// thread, in arrival order (item order when `threads <= 1`). A sink
/// error stops further sink calls and takes precedence over worker
/// failures in the returned error.
///
/// # Errors
///
/// - The first `sink` error, if any.
/// - [`MeasureError::WorkerPanic`] for the lowest-indexed item that
///   panicked.
pub fn replica_map_checked<T, R, F, S>(
    network: &mut Network,
    threads: usize,
    items: &[T],
    f: F,
    mut sink: S,
) -> Result<Vec<R>, MeasureError>
where
    T: Sync,
    R: Send,
    F: Fn(&mut Network, &T) -> R + Sync,
    S: FnMut(usize, &R) -> Result<(), MeasureError>,
{
    let pristine = network.snapshot_weights();
    let run_item = |replica: &mut Network, i: usize| -> Result<R, String> {
        catch_unwind(AssertUnwindSafe(|| f(&mut *replica, &items[i]))).map_err(|payload| {
            // The closure died mid-probe; its replica may hold a
            // half-applied perturbation, so rebuild pristine weights
            // before the next item.
            replica.restore_weights(&pristine);
            panic_message(&*payload)
        })
    };

    let workers = threads.clamp(1, items.len().max(1));
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut sink_error: Option<MeasureError> = None;
    let mut apply = |i: usize,
                     outcome: Result<R, String>,
                     results: &mut Vec<Option<R>>,
                     sink_error: &mut Option<MeasureError>,
                     failures: &mut Vec<(usize, String)>| {
        match outcome {
            Ok(r) => {
                if sink_error.is_none() {
                    if let Err(e) = sink(i, &r) {
                        *sink_error = Some(e);
                    }
                }
                results[i] = Some(r);
            }
            Err(message) => failures.push((i, message)),
        }
    };

    if workers <= 1 {
        for i in 0..items.len() {
            let outcome = run_item(network, i);
            apply(i, outcome, &mut results, &mut sink_error, &mut failures);
        }
    } else {
        let mut clones: Vec<Network> = (1..workers).map(|_| network.clone()).collect();
        let replicas = std::iter::once(network).chain(clones.iter_mut());
        let (tx, rx) = mpsc::channel::<ItemResult<R>>();
        // Items go out in order to whichever worker is free, so a worker
        // held up by an expensive item does not also own every
        // `workers`-th item after it. `Relaxed` suffices: the counter
        // publishes no data.
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for replica in replicas {
                let (run_item, next) = (&run_item, &next);
                let tx = tx.clone();
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        return;
                    }
                    // The receiver outlives every worker.
                    let _ = tx.send((i, run_item(&mut *replica, i)));
                });
            }
            drop(tx);
            // Stream results as they arrive so the sink (journal) sees
            // completed probes even if a later worker fails.
            for (i, outcome) in rx {
                apply(i, outcome, &mut results, &mut sink_error, &mut failures);
            }
        });
    }

    if let Some(e) = sink_error {
        return Err(e);
    }
    if let Some((item, message)) = failures.into_iter().min_by_key(|&(i, _)| i) {
        return Err(MeasureError::WorkerPanic { item, message });
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every item ran and none failed"))
        .collect())
}

/// Infallible wrapper over [`replica_map_checked`]: no sink,
/// panics on failure. Kept for callers (Hutchinson probing, random
/// search) whose probes cannot legitimately fail.
///
/// # Panics
///
/// Propagates panics from `f` from the calling thread, prefixed with the
/// index of the item whose closure panicked (so a failing probe can be
/// reproduced directly). When several workers panic, the lowest item
/// index is reported.
pub(crate) fn replica_map<T, R, F>(
    network: &mut Network,
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut Network, &T) -> R + Sync,
{
    match replica_map_checked(network, threads, items, f, |_, _| Ok(())) {
        Ok(results) => results,
        Err(MeasureError::WorkerPanic { item, message, .. }) => {
            panic!("measurement worker panicked on item {item}: {message}")
        }
        Err(e) => panic!("measurement fan-out failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_nn::{Linear, Network, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> Network {
        let mut rng = StdRng::seed_from_u64(7);
        Network::new(Sequential::new().push("fc", Linear::new(4, 2, &mut rng)), 2)
    }

    #[test]
    fn zero_threads_resolves_to_at_least_one() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn results_preserve_item_order_across_thread_counts() {
        let mut net = tiny();
        let items: Vec<usize> = (0..17).collect();
        let serial = replica_map(&mut net, 1, &items, |_, &i| i * i);
        for threads in [2, 3, 8, 32] {
            let parallel = replica_map(&mut net, threads, &items, |_, &i| i * i);
            assert_eq!(parallel, serial, "{threads} threads");
        }
    }

    #[test]
    fn a_busy_worker_does_not_hold_back_later_items() {
        // Item 0 waits for every other item to finish. With a static
        // `i % workers` split its worker would own items 2, 4, … and the
        // wait could only end at the deadline; with items handed out to
        // whichever worker is free, the other worker runs them all.
        let mut net = tiny();
        let items: Vec<usize> = (0..9).collect();
        let done = AtomicUsize::new(0);
        let waits = replica_map(&mut net, 2, &items, |_, &i| {
            if i > 0 {
                done.fetch_add(1, Ordering::SeqCst);
                return true;
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while done.load(Ordering::SeqCst) < items.len() - 1 {
                if std::time::Instant::now() > deadline {
                    return false;
                }
                std::thread::yield_now();
            }
            true
        });
        assert!(waits[0], "item 0 timed out: later items queued behind it");
    }

    #[test]
    fn workers_own_independent_replicas() {
        let mut net = tiny();
        let items: Vec<usize> = (0..8).collect();
        // Each item perturbs its replica and reports the weight it read
        // back; with per-item restore the reads are identical everywhere.
        let originals = net.snapshot_weights();
        let reads = replica_map(&mut net, 4, &items, |replica, _| {
            let delta = clado_tensor::Tensor::full(originals[0].shape(), 1.0);
            replica.perturb_weight(0, &delta);
            let seen = replica.weight(0).data()[0];
            replica.set_weight(0, &originals[0]);
            seen
        });
        let expect = originals[0].data()[0] + 1.0;
        for (i, &r) in reads.iter().enumerate() {
            assert_eq!(r, expect, "item {i} saw a dirty replica");
        }
    }

    #[test]
    fn worker_panics_are_tagged_with_the_item_index() {
        let mut net = tiny();
        let items: Vec<usize> = (0..9).collect();
        for threads in [1, 3] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                replica_map(&mut net, threads, &items, |_, &i| {
                    assert_ne!(i, 5, "bad probe");
                    i
                })
            }));
            let msg = panic_message(&*caught.expect_err("item 5 must panic"));
            assert!(msg.contains("item 5"), "{threads} threads: {msg}");
            assert!(msg.contains("bad probe"), "{threads} threads: {msg}");
        }
    }

    #[test]
    fn empty_items_yield_empty_results() {
        let mut net = tiny();
        let items: Vec<usize> = Vec::new();
        let out = replica_map(&mut net, 4, &items, |_, &i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn exhausted_retries_surface_the_lowest_failing_item() {
        let mut net = tiny();
        let items: Vec<usize> = (0..9).collect();
        for threads in [1, 4] {
            let err = replica_map_checked(
                &mut net,
                threads,
                &items,
                |_, &i| {
                    assert!(i != 3 && i != 6, "permanent failure");
                    i
                },
                |_, _| Ok(()),
            )
            .expect_err("items 3 and 6 always panic");
            match err {
                MeasureError::WorkerPanic { item, message } => {
                    assert_eq!(item, 3, "{threads} threads");
                    assert!(message.contains("permanent failure"), "{message}");
                }
                other => panic!("{threads} threads: unexpected error {other}"),
            }
        }
    }

    #[test]
    fn sink_sees_completed_items_even_when_some_fail() {
        let mut net = tiny();
        let items: Vec<usize> = (0..8).collect();
        let mut seen: Vec<usize> = Vec::new();
        let err = replica_map_checked(
            &mut net,
            1,
            &items,
            |_, &i| {
                assert_ne!(i, 2, "bad item");
                i
            },
            |i, _| {
                seen.push(i);
                Ok(())
            },
        )
        .expect_err("item 2 fails");
        assert!(matches!(err, MeasureError::WorkerPanic { item: 2, .. }));
        // Every good item — including those after the failure — reached
        // the sink, so a journaling caller loses nothing.
        assert_eq!(seen, vec![0, 1, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn panicking_item_leaves_replica_pristine_for_later_items() {
        let mut net = tiny();
        let originals = net.snapshot_weights();
        let items: Vec<usize> = (0..4).collect();
        let mut reads: Vec<(usize, f32)> = Vec::new();
        let err = replica_map_checked(
            &mut net,
            1,
            &items,
            |replica, &i| {
                // Dirty the replica; item 1 dies before restoring it, so
                // the engine must restore before item 2 runs.
                let delta = clado_tensor::Tensor::full(originals[0].shape(), 3.0);
                replica.perturb_weight(0, &delta);
                let seen = replica.weight(0).data()[0];
                assert_ne!(i, 1, "probe died on a dirty replica");
                replica.set_weight(0, &originals[0]);
                seen
            },
            |i, &seen| {
                reads.push((i, seen));
                Ok(())
            },
        )
        .expect_err("item 1 panics");
        assert!(matches!(err, MeasureError::WorkerPanic { item: 1, .. }));
        let expect = originals[0].data()[0] + 3.0;
        assert_eq!(reads.len(), 3, "items 0, 2 and 3 completed");
        for (i, r) in reads {
            assert_eq!(r, expect, "item {i} saw a dirty replica");
        }
    }

    #[test]
    fn sink_errors_take_precedence_and_stop_sink_calls() {
        let mut net = tiny();
        let items: Vec<usize> = (0..5).collect();
        let mut calls = 0usize;
        let err = replica_map_checked(
            &mut net,
            1,
            &items,
            |_, &i| i,
            |i, _| {
                calls += 1;
                if i >= 1 {
                    Err(MeasureError::NonFiniteBaseLoss { loss: f64::NAN })
                } else {
                    Ok(())
                }
            },
        )
        .expect_err("sink fails on the second item");
        assert!(matches!(err, MeasureError::NonFiniteBaseLoss { .. }));
        assert_eq!(calls, 2, "sink is not called after its first error");
    }
}
