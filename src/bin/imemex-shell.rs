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

use std::io::{BufRead, IsTerminal, Write};
use std::sync::Arc;
use std::time::Instant;

use imemex::core::durability::Scrubber;
use imemex::dataset::{generate, DatasetConfig};
use imemex::query::{QueryBudget, QueryRequest};
use imemex::system::{FsPlugin, HealthMonitor, ImapPlugin, LiveQuery, Pdsms, RssPlugin};
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
        match parse_budget(self.budget, arg) {
            Ok(budget) => {
                self.budget = budget;
                println!("budget: {}", self.describe_budget());
            }
            Err(token) => println!("bad budget token '{token}' — {BUDGET_USAGE}"),
        }
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
                Ok((system, report)) => {
                    println!("{report}");
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
  \\subscribe <iql>      register a standing query, kept current as
                        the dataspace changes; it shares
                        one standing result with the cached answer and
                        with any other subscription of the same plan
  \\live                 apply pending changes and print each standing
                        query's deltas
  :stats                store, index, standing-result and budget statistics
  :help                 this text
  :quit                 exit
(\\ and : are interchangeable command prefixes)";

const USAGE: &str = "usage: imemex-shell [<scale factor: a positive number>]   (default 0.05)";

const BUDGET_USAGE: &str =
    "\\budget [deadline=<ms>] [rows=<n>] [nodes=<n>] [bytes=<n>] [partial|strict|off]";

/// The scale factor from the shell's arguments (without the program
/// name): none gives 0.05, one finite positive number gives itself,
/// anything else `None`.
fn parse_scale(args: &[String]) -> Option<f64> {
    match args {
        [] => Some(0.05),
        [value] => value
            .parse::<f64>()
            .ok()
            .filter(|sf| sf.is_finite() && *sf > 0.0),
        _ => None,
    }
}

/// `current` with the `\budget` argument applied: `off` clears every
/// limit, each `key=value` token sets one, `partial` / `strict` pick
/// the mode. The first token that does not parse is the error, and
/// nothing of the argument is applied then.
fn parse_budget(current: QueryBudget, arg: &str) -> Result<QueryBudget, &str> {
    let arg = arg.trim();
    if arg == "off" {
        return Ok(QueryBudget::none());
    }
    let mut budget = current;
    for token in arg.split_whitespace() {
        let limit = |v: &str| v.parse::<u64>().map(Some).map_err(|_| token);
        match token.split_once('=') {
            Some(("deadline", v)) => {
                budget.deadline = limit(v)?.map(std::time::Duration::from_millis);
            }
            Some(("rows", v)) => budget.max_rows = limit(v)?,
            Some(("nodes", v)) => budget.max_nodes = limit(v)?,
            Some(("bytes", v)) => budget.max_bytes = limit(v)?,
            None if token == "partial" => budget.partial = true,
            None if token == "strict" => budget.partial = false,
            _ => return Err(token),
        }
    }
    Ok(budget)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(scale) = parse_scale(&args) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let mut shell = Shell::load(scale);
    println!("iMeMex iQL shell — :help for commands");

    let stdin = std::io::stdin();
    // At a terminal the shell prompts; piped, it echoes each line after
    // the prompt, so the output reads as a transcript.
    let interactive = stdin.is_terminal();
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn session_budget() -> QueryBudget {
        QueryBudget {
            deadline: Some(Duration::from_millis(50)),
            max_nodes: Some(7),
            ..QueryBudget::default()
        }
    }

    #[test]
    fn a_bad_budget_token_leaves_the_budget_unchanged() {
        for arg in ["deadline=abc", "rows=", "deadline=100 bogus", "deadline=5O"] {
            assert!(parse_budget(session_budget(), arg).is_err(), "{arg}");
        }
        assert_eq!(
            parse_budget(session_budget(), "deadline=100 bogus"),
            Err("bogus")
        );
    }

    #[test]
    fn budget_tokens_set_their_limits() {
        let budget = parse_budget(QueryBudget::none(), "deadline=100 rows=5 partial").unwrap();
        assert_eq!(budget.deadline, Some(Duration::from_millis(100)));
        assert_eq!(budget.max_rows, Some(5));
        assert!(budget.partial);
        // Limits the argument does not name are kept.
        let budget = parse_budget(session_budget(), "rows=5").unwrap();
        assert_eq!(budget.max_nodes, Some(7));
        assert_eq!(
            parse_budget(session_budget(), "").unwrap(),
            session_budget()
        );
    }

    #[test]
    fn budget_off_resets_every_limit() {
        let budget = parse_budget(session_budget(), " off ").unwrap();
        assert_eq!(budget, QueryBudget::none());
        assert!(!budget.is_limited());
    }

    #[test]
    fn scale_is_a_finite_positive_number() {
        let scale =
            |args: &[&str]| parse_scale(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        for bad in ["abc", "0,5", "0", "-1", "NaN", "inf"] {
            assert_eq!(scale(&[bad]), None, "{bad}");
        }
        assert_eq!(scale(&["0.02"]), Some(0.02));
        assert_eq!(scale(&[]), Some(0.05));
        assert_eq!(scale(&["0.02", "0.5"]), None);
    }
}
