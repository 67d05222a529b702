//! The fixed inputs of the benchmark: the four workloads, the queries,
//! and the end-to-end metric table `BENCHMARK.json` repeats.

/// The Table 4 queries, verbatim from the paper. Copied rather than
/// imported from `idm-bench`, so a clean-up there cannot change what
/// this benchmark measures.
pub const QUERIES: [&str; 8] = [
    r#""database""#,
    r#""database tuning""#,
    r#"[size > 420000 and lastmodified < @12.06.2005]"#,
    r#"//papers//*Vision/*["Franklin"]"#,
    r#"//VLDB200?//?onclusion*/*["systems"]"#,
    r#"union( //VLDB2005//*["documents"], //VLDB2006//*["documents"])"#,
    r#"join( //VLDB2006//*[class="texref"] as A, //VLDB2006//*[class="environment"]//figure* as B, A.name=B.tuple.label)"#,
    r#"join ( //*[class="emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )"#,
];

/// Query classes of the end-to-end latency metrics, as 0-based indexes
/// into [`QUERIES`]: keyword (Q1, Q2), attribute (Q3), path (Q4–Q6),
/// join (Q7, Q8).
pub const QUERY_CLASSES: [(&str, &[usize]); 4] = [
    ("keyword_p50_us", &[0, 1]),
    ("attr_p50_us", &[2]),
    ("path_p50_us", &[3, 4, 5]),
    ("join_p50_us", &[6, 7]),
];

/// Shapes the standing subscriptions cycle through (those of
/// `idm-bench`'s `livequery` bin): a relate expansion, a keyword leaf,
/// a phrase and a predicate scan.
pub const STANDING: [&str; 4] = [
    r#"//papers//*["Franklin"]"#,
    r#""database""#,
    r#""database tuning""#,
    r#"[size > 420000]"#,
];

/// Standing subscriptions held during the sync loop.
pub const SUBSCRIPTIONS: usize = 32;

/// The pool the `.cached()` query after each change is drawn from.
pub const CACHED_POOL: [&str; 16] = [
    QUERIES[0],
    QUERIES[1],
    QUERIES[2],
    QUERIES[3],
    QUERIES[4],
    QUERIES[5],
    QUERIES[6],
    QUERIES[7],
    STANDING[0],
    STANDING[3],
    r#""dataspace""#,
    r#""systems""#,
    r#"//papers//*.tex"#,
    r#"//PIM//Introduction["Mike Franklin"]"#,
    r#"//OLAP//*[class="figure" and "Indexing Time"]"#,
    r#"//VLDB2006//*["documents"]"#,
];

/// How a workload's ingest drives the write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// `index_all_bulk`: batched store insert, parallel segment builds,
    /// grouped WAL syncs.
    Bulk,
    /// `index_all`: one record at a time, indexed inline.
    Sequential,
}

/// One workload: a configuration of the dataspaces a run builds. A run
/// builds a *main* dataspace at `scale` in set-up and measures the Q1–Q8
/// cycles and the sync loop on it; beside it, round after round, it takes
/// a small *side* dataspace at `side_scale` through ingest → persist →
/// drop → reopen. Both are built the same way (ingest mode, latency
/// model, durability, checkpoint position). Every workload reports
/// every end-to-end metric; what differs is which layers do the work.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Scale factor of the main dataspace (1.0 ≈ the paper's dataset).
    pub scale: f64,
    /// Scale factor of the side dataspace: small, so that one ingest and
    /// one reopen fit into a calm spell of the host (see `README.md`).
    pub side_scale: f64,
    pub ingest: IngestMode,
    /// Figure 5's source latency models (`LatencyModel::remote_2005(1.0)`
    /// sleeping, `DiskLatency::ide_2005(0.25)`).
    pub source_latency: bool,
    /// Durable before ingest, so ingest and every change are logged;
    /// otherwise the dataspace lives in memory and is made durable only
    /// when it is persisted before the drop.
    pub durable_from_start: bool,
    /// Checkpoint right after ingest, so the reopen replays the sync
    /// loop's WAL tail; otherwise persist just before the drop and
    /// reopen cleanly.
    pub checkpoint_after_ingest: bool,
}

/// Set-ups of the main dataspace in one run. Each is followed by rounds
/// for an equal share of the run, so `setup_s` too is sampled over the
/// whole of it, and whatever the program accumulates with the changes
/// applied to a dataspace starts afresh.
pub const SETUPS: usize = 3;
/// Fewest rounds after a set-up even when `--seconds` is used up.
pub const MIN_ROUNDS: usize = 2;
/// Q1–Q8 cycles of one round's query batch. A batch is one sample of
/// each query metric: the median over its cycles.
pub const QUERY_BATCH: usize = 5;
/// Reopens timed in each side repetition. Nothing is checkpointed in
/// between, so each does the same recovery.
pub const REOPENS_PER_REP: usize = 2;
/// Sync iterations of one round, and of a side repetition (whose reopen
/// replays them where the workload checkpoints after ingest). A window
/// holds every step of a file's life (create, rewrite, rewrite, remove)
/// four times and every query of the cached pool once, so all windows
/// hold the same mix of work and leave the dataspace as ingested. A
/// window is one sample of each sync metric: the mean per iteration.
pub const SYNC_WINDOW: usize = 16;
/// Unmeasured Q1–Q8 cycles and sync iterations that end a set-up.
pub const WARM_CYCLES: usize = 5;
pub const WARM_SYNC: usize = SYNC_WINDOW;
/// Sizes of the traced pass (one repetition).
pub const TRACE_CYCLES: usize = 100;
pub const TRACE_SYNC: usize = 512;
/// Untraced cycles / iterations run beside the traced ones, for the
/// overhead ratio and the untraced per-query percentiles.
pub const TRACE_BASE_CYCLES: usize = 100;
pub const TRACE_BASE_SYNC: usize = 128;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_durable",
        why: "bulk ingest into a durable (WAL-logged) dataspace, checkpoint, clean reopen: WAL group commit, batched store insert, segment build/merge, snapshot and recovery do the work",
        scale: 0.25,
        side_scale: 0.02,
        ingest: IngestMode::Bulk,
        source_latency: false,
        durable_from_start: true,
        checkpoint_after_ingest: false,
    },
    Workload {
        name: "ingest_remote",
        why: "record-at-a-time ingest from slow sources into memory (Figure 5 latency models): source access and the XML/LaTeX converters dominate, the WAL is bypassed until the final persist",
        scale: 0.15,
        side_scale: 0.04,
        ingest: IngestMode::Sequential,
        source_latency: true,
        durable_from_start: false,
        checkpoint_after_ingest: false,
    },
    Workload {
        name: "query_exec",
        why: "Q1-Q8 cycles on a long-lived processor over the largest in-memory dataspace: parse, plan, physical operators and index probes do the work, nothing is logged",
        scale: 0.4,
        side_scale: 0.02,
        ingest: IngestMode::Bulk,
        source_latency: false,
        durable_from_start: false,
        checkpoint_after_ingest: false,
    },
    Workload {
        name: "sync_live",
        why: "single-file changes beside 32 live queries and cached queries on a durable dataspace, then a WAL-tail reopen: per-record commit, incremental reindex, delta and cache maintenance share one loop",
        scale: 0.25,
        side_scale: 0.02,
        ingest: IngestMode::Bulk,
        source_latency: false,
        durable_from_start: true,
        checkpoint_after_ingest: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        lower_is_better: true,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        lower_is_better: false,
        bound,
    }
}

/// The end-to-end metrics, in reporting order. Three of the issue's
/// sixteen are not here. `failed_ops_ratio` is carried by the result
/// line's `failed` / `attempted`: a metric that is always 0 cannot be
/// compared by ratio. `checkpoint_s` is the per-layer
/// `system.checkpoint_s`: a snapshot write is bound by the sandbox disk,
/// whose speed swings several-fold between runs (spreads of 20–120 % were
/// measured). `slowest_query_p95_ms` is the per-layer
/// `query.slowest_p95_ms`: two runs of the same code differed by 23–42 %
/// on three of the four workloads, beyond the largest bound allowed.
pub const END_TO_END: [MetricSpec; 13] = [
    lower("setup_s", "s", 0.25),
    lower("peak_rss_mb", "MB", 0.05),
    higher("ingest_views_per_s", "1/s", 0.25),
    lower("reopen_s", "s", 0.25),
    lower("disk_bytes_per_input_byte", "ratio", 0.02),
    higher("query_per_s", "1/s", 0.25),
    lower("keyword_p50_us", "us", 0.25),
    lower("attr_p50_us", "us", 0.25),
    lower("path_p50_us", "us", 0.25),
    lower("join_p50_us", "us", 0.25),
    lower("sync_apply_p50_us", "us", 0.25),
    lower("live_delta_p50_us", "us", 0.25),
    lower("cached_query_p50_us", "us", 0.25),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_phases_are_whole_windows() {
        // Whole windows are whole file lives too (create / rewrite /
        // rewrite / remove), so every phase leaves the dataspace as
        // ingested and the planted Q1-Q8 counts hold at the reopen.
        assert_eq!(SYNC_WINDOW % 4, 0);
        assert_eq!(SYNC_WINDOW, CACHED_POOL.len());
        for phase in [WARM_SYNC, TRACE_BASE_SYNC, TRACE_SYNC] {
            assert_eq!(phase % SYNC_WINDOW, 0);
        }
    }
}
