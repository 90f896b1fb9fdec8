//! Layer replays for the traced run: the scheduler and the telemetry
//! store's ingest path, each driven alone through its public calls with
//! the inputs a campaign produced, so their cost can be separated from
//! the campaign step that contains them.

use crate::stats::Fnv;
use archer2_repro::sched::BatchScheduler;
use archer2_repro::sim::{SimDuration, SimTime};
use archer2_repro::tsdb::{SeriesId, SeriesMeta, TsdbStore};
use archer2_repro::workload::{AppModel, Job, JobId, JobTrace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Totals of scheduler replays.
#[derive(Default)]
pub struct Sched {
    /// Duration of every `schedule` call, nanoseconds.
    pub schedule_ns: Vec<u64>,
    /// Time inside `submit`, `complete` and `schedule`, nanoseconds.
    pub busy_ns: u64,
    pending_sum: u64,
    pub starts: u64,
    /// Replayed starts at the instant the campaign started the job.
    pub matched: u64,
}

impl Sched {
    pub fn pending_mean(&self) -> f64 {
        self.pending_sum as f64 / self.schedule_ns.len().max(1) as f64
    }

    pub fn start_match_frac(&self) -> f64 {
        self.matched as f64 / self.starts.max(1) as f64
    }
}

/// Replay a campaign's job trace through a fresh [`BatchScheduler`] of
/// `nodes` nodes, in the order a campaign makes its calls: at each instant,
/// `complete` the jobs whose traced runtime has elapsed since their
/// replayed start, `submit` the jobs submitted then, and run one
/// `schedule` pass. The trace does not keep requested walltimes, so the
/// replay requests exactly the runtime; how far that moves the backfill
/// decisions shows in the share of matched starts.
pub fn sched(trace: &JobTrace, nodes: u32, into: &mut Sched) {
    let entries = trace.entries();
    let by_id: HashMap<JobId, usize> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| (e.job, i))
        .collect();
    // (time, kind, entry): completions (0) before submissions (1) at one
    // instant, submissions in job order.
    let mut events: BinaryHeap<Reverse<(SimTime, u8, JobId, usize)>> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| Reverse((e.submitted, 1, e.job, i)))
        .collect();
    let mut scheduler = BatchScheduler::new(nodes);
    while let Some(&Reverse((now, ..))) = events.peek() {
        while events.peek().is_some_and(|Reverse(ev)| ev.0 == now) {
            let Reverse((_, kind, id, i)) = events.pop().expect("just peeked");
            let e = &entries[i];
            let busy = if kind == 1 {
                let runtime = e.runtime().max(SimDuration::from_secs(1));
                let job = Job::new(
                    id,
                    AppModel::generic(e.area),
                    e.nodes,
                    runtime,
                    runtime,
                    e.submitted,
                );
                let t = Instant::now();
                scheduler.submit(job);
                t.elapsed()
            } else {
                let t = Instant::now();
                scheduler.complete(id, now);
                t.elapsed()
            };
            into.busy_ns += busy.as_nanos() as u64;
        }
        let t = Instant::now();
        let placements = scheduler.schedule(now);
        let ns = t.elapsed().as_nanos() as u64;
        into.busy_ns += ns;
        into.schedule_ns.push(ns);
        into.pending_sum += scheduler.pending_count() as u64;
        for p in placements {
            let j = by_id[&p.job_id];
            into.starts += 1;
            into.matched += u64::from(entries[j].started == now);
            events.push(Reverse((
                now + entries[j].runtime().max(SimDuration::from_secs(1)),
                0,
                p.job_id,
                j,
            )));
        }
    }
}

/// Totals of an ingest replay.
#[derive(Default)]
pub struct Ingest {
    /// Duration of every per-node `append_tick` call, nanoseconds.
    pub tick_ns: Vec<u64>,
    /// Time inside every append call, nanoseconds.
    pub busy_ns: u64,
    pub samples: u64,
}

/// Digest of every sample stored before `upto` (exclusive), series in
/// name order: equal digests mean the same series with the same samples,
/// bit for bit, whatever the chunk layout or compaction state.
pub fn digest(store: &TsdbStore, upto: i64) -> u64 {
    let mut catalog = store.series_catalog();
    catalog.sort_by(|a, b| a.1.name.cmp(&b.1.name));
    let mut h = Fnv::default();
    for (id, meta, _) in catalog {
        h.bytes(meta.name.as_bytes());
        let samples = store
            .with_series(id, |s| s.scan(i64::MIN, upto))
            .expect("catalogued series");
        h.u64(samples.len() as u64);
        for (ts, v) in samples {
            h.u64(ts as u64);
            h.u64(v.to_bits());
        }
    }
    h.0
}

/// Replay every sample of `src` into a fresh store through the calls a
/// campaign makes when it samples: per tick, `try_append_batch` with one
/// sample for the facility and for each cabinet, and one `append_tick`
/// for all nodes. Works a day at a time so the source is never copied
/// whole. Returns the totals and whether the copy digests equal.
pub fn ingest(src: &TsdbStore) -> (Ingest, bool) {
    let catalog = src.series_catalog();
    let dst = TsdbStore::default();
    // Register in id order so every series lands on the same shard.
    for (id, meta, _) in &catalog {
        let got = dst.register(SeriesMeta {
            name: meta.name.clone(),
            unit: meta.unit.clone(),
            interval_hint: meta.interval_hint,
        });
        assert_eq!(got, *id, "fresh store assigns ids in registration order");
    }
    let mut singles: Vec<SeriesId> = Vec::new();
    let mut nodes: Vec<SeriesId> = Vec::new();
    for (id, meta, _) in &catalog {
        if meta.name.starts_with("node.") {
            nodes.push(*id);
        } else {
            singles.push(*id);
        }
    }
    let facility = src
        .lookup("facility")
        .expect("every campaign records the facility series");
    let (lo, hi) = src
        .with_series(facility, |s| (s.first_ts(), s.last_ts()))
        .expect("the facility series is registered");
    let (lo, hi) = (lo.unwrap_or(0), hi.map_or(0, |t| t + 1));
    let mut out = Ingest::default();
    let mut tick: Vec<(SeriesId, f64)> = Vec::with_capacity(nodes.len());
    const DAY: i64 = 86_400;
    let mut day = lo;
    while day < hi {
        let end = (day + DAY).min(hi);
        let scan = |id: SeriesId| {
            src.with_series(id, |s| s.scan(day, end))
                .expect("catalogued series")
        };
        let ticks: Vec<i64> = scan(facility).into_iter().map(|(ts, _)| ts).collect();
        let single_samples: Vec<Vec<(i64, f64)>> = singles.iter().map(|&id| scan(id)).collect();
        let node_samples: Vec<Vec<(i64, f64)>> = nodes.iter().map(|&id| scan(id)).collect();
        let mut cursor = vec![0usize; singles.len()];
        let mut node_cursor = vec![0usize; nodes.len()];
        for &ts in &ticks {
            for (k, (&id, samples)) in singles.iter().zip(&single_samples).enumerate() {
                if let Some(&sample) = samples.get(cursor[k]).filter(|s| s.0 == ts) {
                    cursor[k] += 1;
                    let t = Instant::now();
                    let ok = dst.try_append_batch(id, &[sample]).is_ok();
                    out.busy_ns += t.elapsed().as_nanos() as u64;
                    out.samples += u64::from(ok);
                }
            }
            tick.clear();
            for (k, (&id, samples)) in nodes.iter().zip(&node_samples).enumerate() {
                if let Some(&(_, v)) = samples.get(node_cursor[k]).filter(|s| s.0 == ts) {
                    node_cursor[k] += 1;
                    tick.push((id, v));
                }
            }
            if !tick.is_empty() {
                let t = Instant::now();
                let rejected = dst.append_tick(ts, &tick);
                let ns = t.elapsed().as_nanos() as u64;
                out.busy_ns += ns;
                out.tick_ns.push(ns);
                out.samples += tick.len() as u64 - rejected;
            }
        }
        day = end;
    }
    let same = digest(&dst, i64::MAX) == digest(src, i64::MAX);
    (out, same)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archer2_repro::workload::{OperatingPoint, ResearchArea, TraceEntry};

    fn entry(job: u64, nodes: u32, submitted: u64, started: u64, ended: u64) -> TraceEntry {
        TraceEntry {
            job: JobId(job),
            app: "generic".into(),
            area: ResearchArea::Other,
            nodes,
            submitted: SimTime::from_unix(submitted),
            started: SimTime::from_unix(started),
            ended: SimTime::from_unix(ended),
            op: OperatingPoint::ORIGINAL,
            node_power_w: 400.0,
        }
    }

    #[test]
    fn sched_replay_reproduces_a_fcfs_trace() {
        // Four nodes: jobs 1 and 2 fill them, job 3 waits for job 1.
        let mut trace = JobTrace::new();
        trace.push(entry(1, 2, 0, 0, 100));
        trace.push(entry(2, 2, 0, 0, 150));
        trace.push(entry(3, 2, 10, 100, 300));
        let mut out = Sched::default();
        sched(&trace, 4, &mut out);
        assert_eq!(out.starts, 3);
        assert_eq!(out.start_match_frac(), 1.0);
        // One pass per instant: 0 (two submissions), 10, 100, 150, 300.
        assert_eq!(out.schedule_ns.len(), 5);
        assert!(out.busy_ns >= out.schedule_ns.iter().sum::<u64>());
    }

    #[test]
    fn ingest_replay_copies_a_store_bit_for_bit() {
        let src = TsdbStore::default();
        let meta = |name: &str| SeriesMeta {
            name: name.into(),
            unit: "kW".into(),
            interval_hint: 900,
        };
        let f = src.register(meta("facility"));
        let c = src.register(meta("cabinet.0"));
        let nodes: Vec<SeriesId> = (0..3)
            .map(|n| src.register(meta(&format!("node.{n}"))))
            .collect();
        let lo = 1_654_041_600; // a midnight
        for k in 0..200i64 {
            let ts = lo + k * 900;
            src.append(f, ts, 3_000.0 + k as f64 * 0.1);
            src.append(c, ts, 140.0 - k as f64 * 0.01);
            let tick: Vec<(SeriesId, f64)> =
                nodes.iter().map(|&id| (id, 0.4 + id.0 as f64)).collect();
            assert_eq!(src.append_tick(ts, &tick), 0);
        }
        let (out, same) = ingest(&src);
        assert!(same, "the replayed store must digest equal to its source");
        assert_eq!(out.samples, 200 * 5);
        assert_eq!(out.tick_ns.len(), 200);
        assert_ne!(digest(&src, lo + 100 * 900), digest(&src, i64::MAX));
    }
}
