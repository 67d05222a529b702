//! Networks of iMeMex instances (Section 8: "we are planning to extend
//! our system to enable networks of P2P instances" — this module is
//! that extension, in-process).
//!
//! A [`Federation`] is a set of named peers, each a complete [`Pdsms`]
//! over its own dataspace. Queries fan out to every peer (iDM's single
//! model means the *same* iQL runs everywhere) and results come back
//! per-peer or merged; ranked federation merges by score, which is what
//! a multi-device personal dataspace UI would show.

use std::time::Instant;

use idm_core::prelude::*;
use idm_query::{Plan, QueryBudget, QueryRequest, RankedResult};

use crate::Pdsms;

/// A result row tagged with the peer that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedRow {
    /// The peer name.
    pub peer: String,
    /// The view id *within that peer's store*.
    pub vid: Vid,
    /// Relevance score (0 for unranked queries).
    pub score: f64,
}

/// A federated query outcome: the merged rows of every peer that
/// answered, plus the errors of the peers that did not — partial
/// results instead of an all-or-nothing federation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FederatedResult {
    /// Rows from the answering peers.
    pub rows: Vec<FederatedRow>,
    /// `(peer name, error)` for every peer whose execution failed.
    pub errors: Vec<(String, IdmError)>,
}

impl FederatedResult {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows came back.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether every peer answered.
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty()
    }
}

/// A federation of iMeMex instances.
#[derive(Default)]
pub struct Federation {
    peers: Vec<(String, Pdsms)>,
}

impl Federation {
    /// An empty federation.
    pub fn new() -> Self {
        Federation::default()
    }

    /// Adds a peer. Names must be unique.
    pub fn add_peer(&mut self, name: impl Into<String>, system: Pdsms) -> Result<()> {
        let name = name.into();
        if self.peers.iter().any(|(n, _)| *n == name) {
            return Err(IdmError::Parse {
                detail: format!("federation: peer '{name}' already registered"),
            });
        }
        self.peers.push((name, system));
        Ok(())
    }

    /// The registered peer names.
    pub fn peer_names(&self) -> Vec<&str> {
        self.peers.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The system of one peer.
    pub fn peer(&self, name: &str) -> Option<&Pdsms> {
        self.peers.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Plans the query once, at the coordinator (the first peer): iDM's
    /// single model means the same plan runs on every peer, so the
    /// planning work — and the planner's validation — is not repeated
    /// per peer. Plan-time errors (syntax, ambiguous join bindings),
    /// which would fail identically everywhere, surface here.
    fn coordinate(&self, iql: &str) -> Result<Option<Plan>> {
        // Validate the syntax once, even with no peers to plan on.
        idm_query::parse(iql)?;
        self.peers
            .first()
            .map(|(_, coordinator)| coordinator.processor().plan_iql(iql))
            .transpose()
    }

    /// Runs a [`QueryRequest`] on every peer; rows are tagged with
    /// their peer. This is the single federated entry point.
    ///
    /// The plan is built once at the coordinator and executed per peer.
    /// Peers that fail to execute it (a class unknown to that peer's
    /// registry, a substrate down) contribute their error to
    /// [`FederatedResult::errors`] rather than failing the federation —
    /// availability over completeness, as in any P2P setting, but with
    /// the partiality visible to the caller.
    ///
    /// A request budget governs the *federation*: each peer runs with
    /// whatever remains of the wall-clock deadline when its turn comes,
    /// so one slow peer exhausts its own slice, lands in the error list
    /// as `ResourceExhausted`, and cannot stall the coordinator. A
    /// ranked request scores each peer's rows from the one shared plan
    /// and merges globally by score.
    pub fn run(&self, request: &QueryRequest) -> Result<FederatedResult> {
        let started = Instant::now();
        let mut result = FederatedResult::default();
        let Some(plan) = self.coordinate(request.iql())? else {
            return Ok(result);
        };
        let budget = request.requested_budget().unwrap_or(QueryBudget::none());
        for (name, system) in &self.peers {
            let mut peer_budget = budget;
            if let Some(total) = budget.deadline {
                // The remaining slice of the federation deadline; an
                // already-exhausted deadline still runs the peer (its
                // first checkpoint trips), keeping the error structured.
                peer_budget.deadline = Some(total.saturating_sub(started.elapsed()));
            }
            // Straight onto the peer's processor: the coordinator's
            // plan, the peer's slice of the budget, no admission gate.
            let processor = system.processor();
            match processor.execute_plan_with(&plan, peer_budget) {
                Ok(answer) => match request.wants_ranked() {
                    Some(weights) => {
                        for RankedResult { vid, score } in
                            processor.rank_rows(&plan, &answer.rows, weights)
                        {
                            result.rows.push(FederatedRow {
                                peer: name.clone(),
                                vid,
                                score,
                            });
                        }
                    }
                    None => {
                        for vid in answer.rows.views() {
                            result.rows.push(FederatedRow {
                                peer: name.clone(),
                                vid,
                                score: 0.0,
                            });
                        }
                    }
                },
                Err(err) => result.errors.push((name.clone(), err)),
            }
        }
        if request.wants_ranked().is_some() {
            result.rows.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.peer.cmp(&b.peer))
                    .then(a.vid.cmp(&b.vid))
            });
        }
        Ok(result)
    }

    /// Per-peer result counts for a query (the P2P dashboard number).
    pub fn count_by_peer(&self, iql: &str) -> Result<Vec<(String, usize)>> {
        let Some(plan) = self.coordinate(iql)? else {
            return Ok(Vec::new());
        };
        let mut out = Vec::with_capacity(self.peers.len());
        for (name, system) in &self.peers {
            let count = system
                .processor()
                .execute_plan(&plan)
                .map(|r| r.rows.len())
                .unwrap_or(0);
            out.push((name.clone(), count));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FsPlugin;
    use idm_vfs::{NodeId, VirtualFs};
    use std::sync::Arc;

    fn t() -> Timestamp {
        Timestamp::from_ymd(2006, 9, 12).unwrap()
    }

    fn peer_with(doc_name: &str, body: &str) -> Pdsms {
        let fs = Arc::new(VirtualFs::new(t()));
        let dir = fs.mkdir_p("/notes", t()).unwrap();
        fs.create_file(dir, doc_name, body.to_owned(), t()).unwrap();
        let mut system = Pdsms::new();
        system.register_source(Arc::new(FsPlugin::new(fs, NodeId::ROOT)));
        system.index_all().unwrap();
        system
    }

    fn federation() -> Federation {
        let mut fed = Federation::new();
        fed.add_peer("laptop", peer_with("a.txt", "database tuning notes"))
            .unwrap();
        fed.add_peer("desktop", peer_with("b.txt", "database lectures"))
            .unwrap();
        fed.add_peer("server", peer_with("c.txt", "totally unrelated"))
            .unwrap();
        fed
    }

    #[test]
    fn queries_fan_out_and_tag_peers() {
        let fed = federation();
        let result = fed.run(&QueryRequest::new(r#""database""#)).unwrap();
        assert!(result.is_complete());
        let rows = result.rows;
        let mut peers: Vec<&str> = rows.iter().map(|r| r.peer.as_str()).collect();
        peers.sort();
        peers.dedup();
        assert_eq!(peers, vec!["desktop", "laptop"]);

        let counts = fed.count_by_peer(r#""database""#).unwrap();
        assert_eq!(
            counts,
            vec![
                ("laptop".to_owned(), 1),
                ("desktop".to_owned(), 1),
                ("server".to_owned(), 0)
            ]
        );
    }

    #[test]
    fn ranked_federation_merges_globally() {
        let mut fed = Federation::new();
        fed.add_peer("light", peer_with("x.txt", "database once"))
            .unwrap();
        fed.add_peer(
            "heavy",
            peer_with("y.txt", "database database database database"),
        )
        .unwrap();
        let result = fed
            .run(&QueryRequest::new(r#""database""#).ranked())
            .unwrap();
        assert!(result.is_complete());
        let rows = result.rows;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].peer, "heavy", "higher TF ranks first globally");
        assert!(rows[0].score > rows[1].score);
    }

    #[test]
    fn failing_peer_yields_partial_results_with_error() {
        let fed = federation();
        // A union over join results parses but fails at evaluation, so
        // every peer errors individually — yet the federation still
        // answers (zero rows, one error per peer) instead of failing as
        // a whole.
        let result = fed
            .run(&QueryRequest::new(
                r#"union("database", join(//notes as a, //notes as b, a.name = b.name))"#,
            ))
            .unwrap();
        assert!(result.is_empty());
        assert!(!result.is_complete());
        assert_eq!(result.errors.len(), 3, "{:?}", result.errors);
        let mut peers: Vec<&str> = result.errors.iter().map(|(p, _)| p.as_str()).collect();
        peers.sort();
        assert_eq!(peers, vec!["desktop", "laptop", "server"]);
    }

    #[test]
    fn duplicate_peer_names_rejected() {
        let mut fed = Federation::new();
        fed.add_peer("a", Pdsms::new()).unwrap();
        assert!(fed.add_peer("a", Pdsms::new()).is_err());
        assert_eq!(fed.peer_names(), vec!["a"]);
        assert!(fed.peer("a").is_some());
        assert!(fed.peer("b").is_none());
    }

    #[test]
    fn parse_errors_fail_fast() {
        let fed = federation();
        assert!(fed.run(&QueryRequest::new("[size >")).is_err());
        assert!(fed.count_by_peer("[size >").is_err());
    }

    #[test]
    fn plan_time_errors_fail_fast_like_parse_errors() {
        // An ambiguous join binding is rejected by the coordinator's
        // planner before any peer runs — it would fail identically on
        // every peer.
        let fed = federation();
        let err = fed
            .run(&QueryRequest::new(
                r#"join(//notes as a, //notes as b, a.name = a.name)"#,
            ))
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn exhausted_deadline_yields_partial_federation_not_a_stall() {
        use std::time::Duration;
        let fed = federation();
        // A zero deadline trips at every peer's first checkpoint: the
        // federation still answers — structured errors per peer, no
        // open-ended wait, no panic.
        let started = std::time::Instant::now();
        let result = fed
            .run(
                &QueryRequest::new(r#""database""#)
                    .budget(QueryBudget::with_deadline(Duration::ZERO)),
            )
            .unwrap();
        assert!(started.elapsed() < Duration::from_millis(200));
        assert!(result.is_empty());
        assert_eq!(result.errors.len(), 3);
        for (_, err) in &result.errors {
            assert_eq!(
                err.budget_kind(),
                Some(idm_core::error::BudgetKind::WallClock),
                "{err}"
            );
        }
        // A generous deadline changes nothing about the rows.
        let governed = fed
            .run(
                &QueryRequest::new(r#""database""#)
                    .budget(QueryBudget::with_deadline(Duration::from_secs(60))),
            )
            .unwrap();
        let free = fed.run(&QueryRequest::new(r#""database""#)).unwrap();
        assert_eq!(governed.rows, free.rows);
        assert!(governed.is_complete());
    }

    #[test]
    fn empty_federation_returns_empty() {
        let fed = Federation::new();
        let result = fed.run(&QueryRequest::new(r#""anything""#)).unwrap();
        assert!(result.is_empty());
        assert!(result.is_complete());
    }
}
