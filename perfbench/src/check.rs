//! Output checks: every served tally against a local reference run,
//! computed outside the timed window.

use crate::loadgen::Reply;
use engine::Counts;
use service::Response;
use std::collections::HashMap;
use std::hash::Hash;

/// One reference tally per distinct key, computed on `threads` threads.
pub fn references<K, F>(
    keys: impl IntoIterator<Item = K>,
    threads: usize,
    compute: F,
) -> HashMap<K, Counts>
where
    K: Hash + Eq + Clone + Send + Sync,
    F: Fn(&K) -> Counts + Sync,
{
    let mut distinct: Vec<K> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for key in keys {
        if seen.insert(key.clone()) {
            distinct.push(key);
        }
    }
    let threads = threads.max(1);
    let compute = &compute;
    let distinct = &distinct;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    distinct
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|k| (k.clone(), compute(k)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// The tallies of an `ok` reply line; `None` for any other reply.
pub fn ok_tallies(bytes: &[u8]) -> Option<Counts> {
    match Response::from_line(std::str::from_utf8(bytes).ok()?) {
        Ok(Response::Ok { tallies, .. }) => Some(tallies),
        _ => None,
    }
}

/// Requests that failed: replies that are not `ok` or whose tallies
/// differ from the reference run for their key, plus requests sent but
/// never answered. References are computed only for `ok` replies.
pub fn failures<K, FK, FC>(
    replies: &[Reply],
    sent: u64,
    threads: usize,
    key_of: FK,
    compute: FC,
) -> u64
where
    K: Hash + Eq + Clone + Send + Sync,
    FK: Fn(&Reply) -> K,
    FC: Fn(&K) -> Counts + Sync,
{
    let parsed: Vec<(K, Option<Counts>)> = replies
        .iter()
        .map(|r| (key_of(r), ok_tallies(&r.bytes)))
        .collect();
    let answered = parsed
        .iter()
        .filter(|(_, t)| t.is_some())
        .map(|(k, _)| k.clone());
    let refs = references(answered, threads, compute);
    let wrong = parsed
        .iter()
        .filter(|(k, t)| t.is_none() || t.as_ref() != refs.get(k))
        .count() as u64;
    wrong + sent.saturating_sub(replies.len() as u64)
}
