//! `imemex-shell` — an interactive iQL shell over a synthetic personal
//! dataspace.
//!
//! ```sh
//! cargo run --release --bin imemex-shell            # loads sf 0.05
//! cargo run --release --bin imemex-shell -- 0.25    # bigger dataspace
//! ```
//!
//! Then type iQL at the prompt, e.g.
//! `//PIM//Introduction[class="latex_section" and "Mike Franklin"]`, or
//! one of the `:commands` (`:help` lists them). Reads from stdin, so it
//! also works non-interactively: `echo '"database"' | imemex-shell`.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;

use imemex::core::durability::Scrubber;
use imemex::dataset::{generate, DatasetConfig};
use imemex::query::{ExpansionStrategy, QueryBudget, QueryRequest};
use imemex::system::{
    FsPlugin, GovernorConfig, HealthMonitor, ImapPlugin, LiveQuery, Pdsms, RssPlugin,
};
use imemex::vfs::NodeId;

struct Shell {
    /// The dataspace, whose one long-lived processor keeps its table of
    /// standing results warm across commands.
    system: Pdsms,
    /// The session budget every query runs under (`\budget`).
    budget: QueryBudget,
    /// Standing queries registered with `\subscribe`, polled by `\live`.
    subscriptions: Vec<(String, LiveQuery)>,
    /// Scrub/audit orchestrator behind `\health` (cursor and audit
    /// memo persist across commands, like a background thread's would).
    monitor: HealthMonitor,
}

impl Shell {
    fn load(scale: f64) -> Self {
        println!("generating synthetic personal dataspace at scale {scale} …");
        let dataset = generate(DatasetConfig::at_scale(scale));
        let mut system = Pdsms::new();
        system.register_source(Arc::new(FsPlugin::new(
            Arc::clone(&dataset.fs),
            NodeId::ROOT,
        )));
        system.register_source(Arc::new(ImapPlugin::new(Arc::clone(&dataset.imap))));
        system.register_source(Arc::new(RssPlugin::new(
            Arc::clone(&dataset.feeds),
            dataset.feed_urls.clone(),
        )));
        let report = system
            .index_all_bulk(&imemex::system::BulkIngestOptions::default())
            .expect("ingestion");
        let t = &report.throughput;
        println!(
            "indexed {} resource views from {} sources in {:.2}s ({:.0} views/s, {} index segments)",
            t.views,
            report.stats.len(),
            t.elapsed.as_secs_f64(),
            t.views_per_sec(),
            t.segments
        );
        if t.wal_records > 0 {
            println!(
                "wal: {} records in {} write groups, {} fsyncs ({} saved vs one-per-record)",
                t.wal_records, t.wal_batches, t.fsyncs, t.fsyncs_saved
            );
        }
        Shell {
            system,
            budget: QueryBudget::none(),
            subscriptions: Vec::new(),
            monitor: HealthMonitor::new(),
        }
    }

    fn describe(&self, vid: imemex::Vid) -> String {
        let store = self.system.store();
        let name = store
            .name(vid)
            .ok()
            .flatten()
            .unwrap_or_else(|| "<unnamed>".into());
        let class = store
            .class_name(vid)
            .ok()
            .flatten()
            .unwrap_or_else(|| "-".into());
        format!("{vid}  {name}  [{class}]")
    }

    fn run_query(&self, iql: &str) {
        // `Pdsms::run` goes through the admission gate when `\governor`
        // enabled it, so overload behavior is observable interactively.
        let start = Instant::now();
        let request = QueryRequest::new(iql).cached().budget(self.budget);
        match self.system.run(&request) {
            Ok(response) => {
                let result = response.result;
                let elapsed = start.elapsed();
                println!(
                    "{} result(s) in {:.3} ms  ({})",
                    result.rows.len(),
                    elapsed.as_secs_f64() * 1e3,
                    if result.stats.result_cache_hits > 0 {
                        "result cache hit".to_owned()
                    } else {
                        format!(
                            "expanded {} nodes, examined {} candidates",
                            result.stats.nodes_expanded, result.stats.candidates_examined
                        )
                    }
                );
                if result.stats.partial {
                    let c = result.stats.consumed;
                    println!(
                        "  PARTIAL result — budget exhausted ({}); consumed rows={} nodes={} bytes={} checkpoints={}",
                        result
                            .stats
                            .exhausted
                            .map(|k| k.to_string())
                            .unwrap_or_else(|| "?".into()),
                        c.rows,
                        c.nodes,
                        c.bytes,
                        c.checkpoints
                    );
                }
                for vid in result.rows.views().iter().take(10) {
                    println!("  {}", self.describe(*vid));
                }
                if result.rows.len() > 10 {
                    println!("  … {} more", result.rows.len() - 10);
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }

    /// `\budget`: sets the per-query resource budget for this session.
    fn set_budget_cmd(&mut self, arg: &str) {
        let arg = arg.trim();
        if arg == "off" {
            self.budget = QueryBudget::none();
        } else {
            let parse_u64 = |v: &str| v.parse::<u64>().ok();
            for token in arg.split_whitespace() {
                match token.split_once('=') {
                    Some(("deadline", v)) => {
                        self.budget.deadline = parse_u64(v).map(std::time::Duration::from_millis);
                    }
                    Some(("rows", v)) => self.budget.max_rows = parse_u64(v),
                    Some(("nodes", v)) => self.budget.max_nodes = parse_u64(v),
                    Some(("bytes", v)) => self.budget.max_bytes = parse_u64(v),
                    None if token == "partial" => self.budget.partial = true,
                    None if token == "strict" => self.budget.partial = false,
                    _ => {
                        println!("unknown budget token '{token}' — \\budget [deadline=<ms>] [rows=<n>] [nodes=<n>] [bytes=<n>] [partial|strict|off]");
                        return;
                    }
                }
            }
        }
        println!("budget: {}", self.describe_budget());
    }

    fn describe_budget(&self) -> String {
        if !self.budget.is_limited() {
            return "unlimited".into();
        }
        let mut parts = Vec::new();
        if let Some(d) = self.budget.deadline {
            parts.push(format!("deadline {}ms", d.as_millis()));
        }
        if let Some(n) = self.budget.max_rows {
            parts.push(format!("rows {n}"));
        }
        if let Some(n) = self.budget.max_nodes {
            parts.push(format!("nodes {n}"));
        }
        if let Some(n) = self.budget.max_bytes {
            parts.push(format!("bytes {n}"));
        }
        parts.push(
            if self.budget.partial {
                "partial (degrade to subset)"
            } else {
                "strict (error on exhaustion)"
            }
            .into(),
        );
        parts.join(", ")
    }

    /// `\governor`: enables admission control over shell queries.
    fn governor_cmd(&mut self, arg: &str) {
        let fields: Vec<&str> = arg.split_whitespace().collect();
        let mut config = GovernorConfig::default();
        if let Some(v) = fields.first().and_then(|v| v.parse().ok()) {
            config.max_concurrent = v;
        }
        if let Some(v) = fields.get(1).and_then(|v| v.parse().ok()) {
            config.max_queued = v;
        }
        if let Some(v) = fields.get(2).and_then(|v| v.parse().ok()) {
            config.queue_deadline = std::time::Duration::from_millis(v);
        }
        self.system.enable_governor(config);
        println!(
            "governor: {} concurrent, {} queued, {}ms queue deadline",
            config.max_concurrent,
            config.max_queued,
            config.queue_deadline.as_millis()
        );
    }

    fn run_ranked(&self, iql: &str) {
        let request = QueryRequest::new(iql).ranked().budget(self.budget);
        match self
            .system
            .run(&request)
            .map(|r| r.ranked.unwrap_or_default())
        {
            Ok(ranked) => {
                println!("{} result(s), ranked:", ranked.len());
                for r in ranked.iter().take(10) {
                    println!("  {:>7.3}  {}", r.score, self.describe(r.vid));
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }

    /// `\subscribe <iql>`: registers a standing query; `\live` polls it.
    fn subscribe_cmd(&mut self, iql: &str) {
        if iql.is_empty() {
            println!("usage: \\subscribe <iql>");
            return;
        }
        match self
            .system
            .subscribe(&QueryRequest::new(iql).budget(self.budget).subscribe())
        {
            Ok(live) => {
                println!(
                    "subscription #{}: {} initial result(s); \\live shows changes",
                    self.subscriptions.len() + 1,
                    live.initial().rows.len()
                );
                self.subscriptions.push((iql.to_owned(), live));
            }
            Err(e) => println!("error: {e}"),
        }
    }

    /// `\live`: brings every standing query up to the store's changes
    /// and prints the deltas that arrived.
    fn poll_live(&mut self) {
        if self.subscriptions.is_empty() {
            println!("no subscriptions — \\subscribe <iql> registers one");
            return;
        }
        let changes = self.system.pump_subscriptions();
        let mut quiet = 0;
        for (n, (iql, live)) in self.subscriptions.iter().enumerate() {
            let deltas = live.poll();
            if deltas.is_empty() {
                quiet += 1;
                continue;
            }
            for delta in deltas {
                println!(
                    "subscription #{} {iql}: +{} -{} ({} total)",
                    n + 1,
                    delta.added.len(),
                    delta.removed.len(),
                    delta.total
                );
                for vid in delta.added.views().iter().take(5) {
                    println!("  + {}", self.describe(*vid));
                }
                for vid in delta.removed.views().iter().take(5) {
                    println!("  - {}", self.describe(*vid));
                }
            }
        }
        println!("{changes} store change(s) applied; {quiet} subscription(s) unchanged");
    }

    fn run_update(&self, statement: &str) {
        match self.system.processor().execute_update(statement) {
            Ok(outcome) => println!(
                "matched {} view(s), applied {}",
                outcome.matched, outcome.applied
            ),
            Err(e) => println!("error: {e}"),
        }
    }

    /// `\open <dir>`: opens an existing durable dataspace (recovery; the
    /// printed report ends with how the indexes came back — loaded,
    /// caught up from the WAL tail, or rebuilt), or makes the current
    /// in-memory dataspace durable in a fresh directory.
    fn open_dataspace(&mut self, path: &str) {
        if path.is_empty() {
            println!("usage: \\open <directory>");
            return;
        }
        let dir = std::path::Path::new(path);
        if has_dataspace(dir) {
            match Pdsms::open(dir) {
                Ok((mut system, report)) => {
                    println!("{report}");
                    system.set_expansion(self.system.expansion());
                    self.system = system;
                    self.monitor = HealthMonitor::new();
                }
                Err(e) => println!("error: {e}"),
            }
        } else {
            match self.system.make_durable(dir) {
                Ok(stats) => println!(
                    "dataspace now durable in {} (snapshot {}: {} views, {} bytes)",
                    dir.display(),
                    stats.seq,
                    stats.views,
                    stats.bytes
                ),
                Err(e) => println!("error: {e}"),
            }
        }
    }

    /// `\checkpoint`: folds the WAL into a fresh snapshot.
    fn checkpoint(&self) {
        match self.system.checkpoint() {
            Ok(stats) => println!(
                "checkpoint {}: {} views, {} bytes, lsn {}",
                stats.seq, stats.views, stats.bytes, stats.lsn
            ),
            Err(e) => println!("error: {e}"),
        }
    }

    /// `\health`: one budgeted scrub/audit round plus cumulative totals.
    fn health(&mut self) {
        match self.monitor.round(&self.system) {
            Ok(report) => {
                println!("{report}");
                let totals = self.monitor.stats();
                println!(
                    "totals: {} round(s), {} bytes verified, {} finding(s), {} quarantined, \
                     {} repair checkpoint(s), {} view(s) audited, {} index repair(s)",
                    totals.rounds,
                    totals.bytes_verified,
                    totals.findings,
                    totals.quarantined,
                    totals.repair_checkpoints,
                    totals.views_audited,
                    totals.index_repaired
                );
            }
            Err(e) => println!("error: {e}"),
        }
    }

    /// `\scrub`: one full (unbudgeted) integrity pass over every
    /// durable artifact, with quarantine-and-repair on damage.
    fn scrub(&self) {
        if !self.system.is_durable() {
            println!("dataspace is in-memory — \\open <dir> makes it durable first");
            return;
        }
        match self.system.scrub_round(&mut Scrubber::new(None)) {
            Ok(report) => println!("{report}"),
            Err(e) => println!("error: {e}"),
        }
    }

    fn stats(&self) {
        let sizes = self.system.indexes().sizes();
        let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
        println!("views in store:   {}", self.system.store().len());
        println!("catalog rows:     {}", self.system.indexes().catalog.len());
        println!(
            "index sizes (MB): name {:.2}, tuple {:.2}, content {:.2}, group {:.2}, catalog {:.2}",
            mb(sizes.name),
            mb(sizes.tuple),
            mb(sizes.content),
            mb(sizes.group),
            mb(sizes.catalog)
        );
        println!("expansion:        {:?}", self.system.expansion());
        let results = self.system.processor().result_cache().counters();
        println!(
            "result cache:     {} hit(s), {} miss(es), {} maintained, {} invalidation(s)",
            results.hits, results.misses, results.maintained, results.invalidations
        );
        let live = self.system.live_stats();
        println!(
            "live queries:     {} handle(s), {} delta(s) pushed, {} change(s) applied \
             (once per distinct plan), {} failed maintenance pass(es), {} resync(s), {} dropped",
            live.active,
            live.deltas_pushed,
            live.records_applied,
            live.maintain_failures,
            live.resyncs,
            live.dropped
        );
        println!("budget:           {}", self.describe_budget());
        match self.system.governor_stats() {
            Some(g) => println!(
                "governor:         {} admitted, {} completed, {} shed (queue full), {} deadline-exceeded (expired while queued), {} running, {} queued",
                g.admitted, g.completed, g.shed, g.deadline_exceeded, g.running, g.queued
            ),
            None => println!("governor:         off (\\governor enables admission control)"),
        }
        let guards = self.system.rvm().guard_states();
        if !guards.is_empty() {
            let states: Vec<String> = guards
                .iter()
                .map(|(name, state)| format!("{name} {state:?}"))
                .collect();
            println!("source breakers:  {}", states.join(", "));
        }
    }
}

const HELP: &str = "\
commands:
  <iql>                 run an iQL query (e.g. \"database tuning\" or
                        //PIM//Introduction[class=\"latex_section\"])
  :rank <iql>           run a query with relevance ranking
  :update <stmt>        update/delete, e.g. :update //a.txt set name = \"b.txt\"
  :estimate <iql>       cardinality-estimated plan (cost optimizer view)
  :explain <iql>        show the rule-based execution plan
  :strategy <s>         forward | backward | bidirectional
  :save <path>          persist the index bundle to a file
  \\open <dir>           open a durable dataspace (prints the recovery
                        report: indexes loaded / caught up / rebuilt), or
                        make this one durable in a new dir
  \\checkpoint           fold the write-ahead log into a fresh snapshot
  \\scrub                full integrity pass over snapshots, WAL and the
                        index artifact; damage is quarantined + repaired
  \\health               one budgeted scrub/audit round + running totals
  \\budget [k=v …]       per-query resource budget: deadline=<ms> rows=<n>
                        nodes=<n> bytes=<n> partial|strict|off
  \\governor [c q ms]    enable admission control (max concurrent, max
                        queued, queue deadline ms; defaults 4 16 100)
  \\subscribe <iql>      register a standing query, kept current as
                        the dataspace changes; it shares
                        one standing result with the cached answer and
                        with any other subscription of the same plan
  \\live                 apply pending changes and print each standing
                        query's deltas
  :stats                store, index, standing-result, budget and governor
                        statistics
  :help                 this text
  :quit                 exit
(\\ and : are interchangeable command prefixes)";

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let mut shell = Shell::load(scale);
    println!("iMeMex iQL shell — :help for commands");

    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    loop {
        if interactive {
            print!("iql> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !interactive {
            println!("iql> {line}");
        }
        if let Some(rest) = line.strip_prefix(':').or_else(|| line.strip_prefix('\\')) {
            let (command, arg) = rest.split_once(' ').unwrap_or((rest, ""));
            match command {
                "quit" | "q" | "exit" => break,
                "help" | "h" => println!("{HELP}"),
                "stats" => shell.stats(),
                "save" => {
                    let path = std::path::Path::new(arg.trim());
                    match imemex::index::persist::save_with_epoch(shell.system.indexes(), path, 0) {
                        Ok(()) => println!(
                            "saved {} bytes to {}",
                            std::fs::metadata(path).map(|m| m.len()).unwrap_or(0),
                            path.display()
                        ),
                        Err(e) => println!("error: {e}"),
                    }
                }
                "open" => shell.open_dataspace(arg.trim()),
                "checkpoint" => shell.checkpoint(),
                "health" => shell.health(),
                "scrub" => shell.scrub(),
                "budget" => shell.set_budget_cmd(arg),
                "governor" => shell.governor_cmd(arg),
                "subscribe" => shell.subscribe_cmd(arg.trim()),
                "live" => shell.poll_live(),
                "rank" => shell.run_ranked(arg.trim()),
                "update" => shell.run_update(arg.trim()),
                "estimate" => {
                    match imemex::query::explain_with_estimates(
                        shell.system.processor(),
                        arg.trim(),
                    ) {
                        Ok(plan) => print!("{plan}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                "explain" => match shell.system.explain(arg.trim()) {
                    Ok(plan) => print!("{plan}"),
                    Err(e) => println!("error: {e}"),
                },
                "strategy" => {
                    let strategy = match arg.trim() {
                        "forward" => ExpansionStrategy::Forward,
                        "backward" => ExpansionStrategy::Backward,
                        "bidirectional" => ExpansionStrategy::Bidirectional,
                        other => {
                            println!("unknown strategy '{other}'");
                            continue;
                        }
                    };
                    shell.system.set_expansion(strategy);
                    println!("expansion strategy: {strategy:?}");
                }
                other => println!("unknown command ':{other}' — :help lists commands"),
            }
        } else {
            shell.run_query(line);
        }
    }
}

/// Whether `dir` already holds a durable dataspace (any snapshot or WAL
/// segment file).
fn has_dataspace(dir: &std::path::Path) -> bool {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().any(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.ends_with(".idmsnap") || name.ends_with(".idmlog")
            })
        })
        .unwrap_or(false)
}

/// Minimal TTY check without a dependency: honor an env override, else
/// assume non-interactive when stdin is redirected (heuristic via the
/// TERM/CI environment is avoided; piping works either way).
fn atty_stdin() -> bool {
    // Safe portable heuristic: if IMEMEX_FORCE_PROMPT is set, prompt;
    // otherwise prompt only when stderr looks like a terminal is absent.
    std::env::var("IMEMEX_FORCE_PROMPT").is_ok()
}
