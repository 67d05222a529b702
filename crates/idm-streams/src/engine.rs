//! Push-based stream operators (Section 4.4.2).
//!
//! Operators register with a [`PushEngine`] attached to a [`ViewStore`].
//! Every change the store commits on any resource view — a new email
//! message, a new tuple on a data stream — reaches the engine as the
//! store's [`ChangeRecord`] (its change feed, in commit order) and is
//! passed to every registered operator, which processes it immediately,
//! like the data-driven operators of specialized data stream management
//! systems.
//!
//! Dispatch is explicit ([`PushEngine::pump`]), so tests and benchmarks
//! are deterministic and no thread of the engine's own is ever started.

use std::sync::Arc;

use crossbeam::channel::Receiver;
use idm_core::prelude::*;
use parking_lot::Mutex;

/// A push operator: receives change records the moment they are pumped.
pub trait PushOperator: Send + Sync {
    /// Processes one committed change; an operator matches the record
    /// variants it wants and ignores the rest. `store` gives access to
    /// the changed view's components.
    fn on_record(&self, store: &ViewStore, record: &ChangeRecord);
}

/// The push engine: fans the store's change records out to registered
/// operators.
pub struct PushEngine {
    store: Arc<ViewStore>,
    rx: Receiver<ChangeRecord>,
    operators: Mutex<Vec<Arc<dyn PushOperator>>>,
}

impl PushEngine {
    /// Attaches an engine to a store. Only changes after attachment flow.
    pub fn attach(store: Arc<ViewStore>) -> Self {
        let rx = store.subscribe_records();
        PushEngine {
            store,
            rx,
            operators: Mutex::new(Vec::new()),
        }
    }

    /// Registers an operator.
    pub fn register(&self, operator: Arc<dyn PushOperator>) {
        self.operators.lock().push(operator);
    }

    /// Dispatches all pending records; returns how many were processed.
    pub fn pump(&self) -> usize {
        let mut count = 0;
        while let Ok(record) = self.rx.try_recv() {
            let operators = self.operators.lock().clone();
            for op in operators {
                op.on_record(&self.store, &record);
            }
            count += 1;
        }
        count
    }
}

/// A ready-made operator: collects the vids of views whose content
/// contains a phrase when they are inserted or their content is
/// replaced (a standing keyword filter — the information-filter use
/// case the paper cites).
pub struct KeywordFilter {
    phrase: String,
    matches: Mutex<Vec<Vid>>,
}

impl KeywordFilter {
    /// A filter for `phrase` (case-insensitive substring).
    pub fn new(phrase: impl Into<String>) -> Self {
        KeywordFilter {
            phrase: phrase.into().to_lowercase(),
            matches: Mutex::new(Vec::new()),
        }
    }

    /// Vids matched so far.
    pub fn matches(&self) -> Vec<Vid> {
        self.matches.lock().clone()
    }
}

impl PushOperator for KeywordFilter {
    fn on_record(&self, store: &ViewStore, record: &ChangeRecord) {
        if !matches!(
            record,
            ChangeRecord::Insert { .. } | ChangeRecord::SetContent { .. }
        ) {
            return;
        }
        let vid = Vid::from_raw(record.vid());
        let Ok(content) = store.content(vid) else {
            return;
        };
        if content.is_empty() || !content.is_finite() {
            return;
        }
        if let Ok(text) = content.text_lossy() {
            if text.to_lowercase().contains(&self.phrase) {
                self.matches.lock().push(vid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts every record, or only `SetName` records.
    struct Counter {
        only_names: bool,
        seen: AtomicUsize,
    }

    impl PushOperator for Counter {
        fn on_record(&self, _store: &ViewStore, record: &ChangeRecord) {
            if !self.only_names || matches!(record, ChangeRecord::SetName { .. }) {
                self.seen.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn events_reach_interested_operators_only() {
        let store = Arc::new(ViewStore::new());
        let engine = PushEngine::attach(Arc::clone(&store));
        let all = Arc::new(Counter {
            only_names: false,
            seen: AtomicUsize::new(0),
        });
        let only_names = Arc::new(Counter {
            only_names: true,
            seen: AtomicUsize::new(0),
        });
        engine.register(Arc::clone(&all) as Arc<dyn PushOperator>);
        engine.register(Arc::clone(&only_names) as Arc<dyn PushOperator>);

        let vid = store.build("a").insert();
        store.set_name(vid, Some("b".into())).unwrap();
        store.set_content(vid, Content::text("x")).unwrap();

        assert_eq!(engine.pump(), 3);
        assert_eq!(all.seen.load(Ordering::SeqCst), 3);
        assert_eq!(only_names.seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn keyword_filter_matches_immediately() {
        let store = Arc::new(ViewStore::new());
        let engine = PushEngine::attach(Arc::clone(&store));
        let filter = Arc::new(KeywordFilter::new("Mike Franklin"));
        engine.register(Arc::clone(&filter) as Arc<dyn PushOperator>);

        let hit = store
            .build("intro")
            .text("... with Mike Franklin ...")
            .insert();
        let _miss = store.build("other").text("nothing relevant").insert();
        engine.pump();
        assert_eq!(filter.matches(), vec![hit]);

        // A content update can turn a miss into a hit.
        store
            .set_content(_miss, Content::text("now mike franklin appears"))
            .unwrap();
        engine.pump();
        assert_eq!(filter.matches().len(), 2);
    }
}
