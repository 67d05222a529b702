//! ActiveXML as an iDM use-case (Section 4.3.1).
//!
//! ActiveXML enriches XML documents with calls to web services; when a
//! service is called, its result is inserted into the document. iDM
//! models this with a specialization `axml` of class `xmlelem` whose
//! group is `(∅, ⟨V_sc [, V_scresult]⟩)`: a service-call view and — only
//! after the service has been called — an optional result view.
//!
//! This module provides the service registry and the lazy call mechanics.
//! The service result is stored as raw XML in the result view's content
//! component; converting it into an XML subgraph is the job of the
//! Content2iDM converters in `idm-xml` (layering: the core model does not
//! parse formats).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::class::builtin::names;
use crate::content::Content;
use crate::error::{IdmError, Result};
use crate::group::Group;
use crate::store::{Vid, ViewStore};

/// A (simulated) web service invocable from an ActiveXML document.
pub trait WebService: Send + Sync {
    /// Executes the service and returns its XML result.
    fn call(&self, args: &str) -> Result<String>;
}

impl<F> WebService for F
where
    F: Fn(&str) -> Result<String> + Send + Sync,
{
    fn call(&self, args: &str) -> Result<String> {
        self(args)
    }
}

/// Registry of invocable services, keyed by endpoint name
/// (e.g. `web.server.com/GetDepartments`).
#[derive(Default)]
pub struct ServiceRegistry {
    services: RwLock<HashMap<String, Arc<dyn WebService>>>,
}

impl ServiceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ServiceRegistry::default()
    }

    /// Registers (or replaces) a service.
    pub fn register(&self, endpoint: impl Into<String>, service: Arc<dyn WebService>) {
        self.services.write().insert(endpoint.into(), service);
    }

    /// Invokes an endpoint.
    pub fn invoke(&self, endpoint: &str, args: &str) -> Result<String> {
        let service =
            self.services.read().get(endpoint).cloned().ok_or_else(|| {
                IdmError::provider(format!("no service registered at '{endpoint}'"))
            })?;
        service.call(args)
    }
}

/// A parsed service-call expression `endpoint(args)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceCall {
    /// The endpoint, e.g. `web.server.com/GetDepartments`.
    pub endpoint: String,
    /// The raw argument string (may be empty).
    pub args: String,
}

impl ServiceCall {
    /// Parses `web.server.com/GetDepartments()`-style call expressions.
    pub fn parse(expr: &str) -> Result<Self> {
        let expr = expr.trim();
        let open = expr.find('(').ok_or_else(|| IdmError::Parse {
            detail: format!("service call '{expr}' misses '('"),
        })?;
        if !expr.ends_with(')') {
            return Err(IdmError::Parse {
                detail: format!("service call '{expr}' misses ')'"),
            });
        }
        let endpoint = expr[..open].trim();
        if endpoint.is_empty() {
            return Err(IdmError::Parse {
                detail: "empty service endpoint".into(),
            });
        }
        Ok(ServiceCall {
            endpoint: endpoint.to_owned(),
            args: expr[open + 1..expr.len() - 1].trim().to_owned(),
        })
    }
}

/// Builds an AXML element view: class `axml`, named `name`, whose group
/// sequence holds a single `sc` view containing the call expression.
pub fn build_axml_element(store: &ViewStore, name: &str, call_expr: &str) -> Result<Vid> {
    // Validate the expression eagerly so malformed documents fail fast.
    ServiceCall::parse(call_expr)?;
    let sc_class = store.classes().require(names::SERVICE_CALL)?;
    let axml_class = store.classes().require(names::AXML)?;
    let sc = store
        .build("sc")
        .content(Content::text(call_expr))
        .class(sc_class)
        .insert();
    Ok(store
        .build(name)
        .group(Group::of_seq(vec![sc]))
        .class(axml_class)
        .insert())
}

/// Whether the AXML element already carries a materialized service result.
pub fn has_result(store: &ViewStore, axml: Vid) -> Result<bool> {
    let scresult = store.classes().require(names::SERVICE_RESULT)?;
    for member in store.group(axml)?.finite_members() {
        if let Some(class) = store.class(member)? {
            if store.classes().is_subclass(class, scresult) {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Executes the element's service call (if not already executed) and
/// inserts the result view `V_scresult` into the element's group sequence,
/// exactly as ActiveXML inserts the call result into the document.
///
/// Returns the result view. Idempotent: a second call returns the
/// existing result without re-invoking the service.
pub fn materialize_result(store: &ViewStore, registry: &ServiceRegistry, axml: Vid) -> Result<Vid> {
    let sc_class = store.classes().require(names::SERVICE_CALL)?;
    let scresult_class = store.classes().require(names::SERVICE_RESULT)?;

    let members = store.group(axml)?.finite_members();
    let mut sc_view = None;
    for member in &members {
        match store.class(*member)? {
            Some(c) if store.classes().is_subclass(c, scresult_class) => return Ok(*member),
            Some(c) if store.classes().is_subclass(c, sc_class) && sc_view.is_none() => {
                sc_view = Some(*member);
            }
            _ => {}
        }
    }
    let sc_view = sc_view
        .ok_or_else(|| IdmError::provider(format!("view {axml} has no service-call child")))?;

    let expr = store.content(sc_view)?.text_lossy()?;
    let call = ServiceCall::parse(&expr)?;
    let xml = registry.invoke(&call.endpoint, &call.args)?;

    let result = store
        .build("scresult")
        .content(Content::text(xml))
        .class(scresult_class)
        .insert();
    store.add_group_member(axml, result, true)?;
    Ok(result)
}

/// Re-executes the element's service call and **replaces** the result
/// view's content with the fresh response — the building block of
/// ActiveXML's pub/sub mode (Section 4.3.1 notes the pub/sub features
/// "can also be instantiated in iDM"): a subscription is a periodic
/// refresh, and the `SetContent` record it commits on the store's change
/// feed ([`ViewStore::subscribe_records`]) notifies downstream push
/// operators that the intensional data changed.
///
/// Returns the result view and whether its content actually changed.
pub fn refresh_result(
    store: &ViewStore,
    registry: &ServiceRegistry,
    axml: Vid,
) -> Result<(Vid, bool)> {
    let result = materialize_result(store, registry, axml)?;

    // Find the call expression again and re-invoke.
    let sc_class = store.classes().require(names::SERVICE_CALL)?;
    let mut expr = None;
    for member in store.group(axml)?.finite_members() {
        if let Some(class) = store.class(member)? {
            if store.classes().is_subclass(class, sc_class) {
                expr = Some(store.content(member)?.text_lossy()?);
                break;
            }
        }
    }
    let expr =
        expr.ok_or_else(|| IdmError::provider(format!("view {axml} has no service-call child")))?;
    let call = ServiceCall::parse(&expr)?;
    let fresh = registry.invoke(&call.endpoint, &call.args)?;

    let old = store.content(result)?.text_lossy()?;
    let changed = old != fresh;
    if changed {
        store.set_content(result, Content::text(fresh))?;
    }
    Ok((result, changed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::record::ChangeRecord;

    fn departments_service() -> Arc<dyn WebService> {
        Arc::new(|_args: &str| {
            Ok("<deplist><entry><name>Accounting</name></entry></deplist>".to_owned())
        })
    }

    #[test]
    fn parse_service_call() {
        let call = ServiceCall::parse("web.server.com/GetDepartments()").unwrap();
        assert_eq!(call.endpoint, "web.server.com/GetDepartments");
        assert_eq!(call.args, "");
        let call = ServiceCall::parse("svc/Echo( hello )").unwrap();
        assert_eq!(call.args, "hello");
        assert!(ServiceCall::parse("no-parens").is_err());
        assert!(ServiceCall::parse("(x)").is_err());
        assert!(ServiceCall::parse("svc(x").is_err());
    }

    #[test]
    fn paper_example_dep_element() {
        // The <dep> document from Section 4.3.1.
        let store = ViewStore::new();
        let registry = ServiceRegistry::new();
        registry.register("web.server.com/GetDepartments", departments_service());

        let dep = build_axml_element(&store, "dep", "web.server.com/GetDepartments()").unwrap();
        assert!(!has_result(&store, dep).unwrap());
        assert_eq!(store.group(dep).unwrap().finite_members().len(), 1);

        let result = materialize_result(&store, &registry, dep).unwrap();
        assert!(has_result(&store, dep).unwrap());
        let members = store.group(dep).unwrap();
        let data = members.finite().unwrap();
        assert_eq!(data.seq().len(), 2, "⟨V_sc, V_scresult⟩");
        assert_eq!(data.seq()[1], result);
        assert!(store
            .content(result)
            .unwrap()
            .text_lossy()
            .unwrap()
            .contains("Accounting"));
    }

    #[test]
    fn materialize_is_idempotent() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let store = ViewStore::new();
        let registry = ServiceRegistry::new();
        registry.register(
            "svc/Count",
            Arc::new(|_: &str| {
                CALLS.fetch_add(1, Ordering::SeqCst);
                Ok("<n/>".to_owned())
            }),
        );
        let elem = build_axml_element(&store, "e", "svc/Count()").unwrap();
        let r1 = materialize_result(&store, &registry, elem).unwrap();
        let r2 = materialize_result(&store, &registry, elem).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(CALLS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn refresh_detects_changes_and_notifies_subscribers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let store = ViewStore::new();
        let registry = ServiceRegistry::new();
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        registry.register(
            "svc/Departments",
            Arc::new(|_: &str| {
                let n = CALLS.fetch_add(1, Ordering::SeqCst);
                Ok(if n < 2 {
                    "<deplist><entry>Accounting</entry></deplist>".to_owned()
                } else {
                    "<deplist><entry>Accounting</entry><entry>Research</entry></deplist>".to_owned()
                })
            }),
        );

        let dep = build_axml_element(&store, "dep", "svc/Departments()").unwrap();
        let records = store.subscribe_records();
        let (result, changed) = refresh_result(&store, &registry, dep).unwrap();
        assert!(!changed, "first refresh after materialization: same data");

        // The remote data changes; the next refresh picks it up and the
        // store publishes a content-change record (the pub/sub notification).
        let (result2, changed) = refresh_result(&store, &registry, dep).unwrap();
        assert_eq!(result, result2);
        assert!(changed);
        assert!(store
            .content(result)
            .unwrap()
            .text_lossy()
            .unwrap()
            .contains("Research"));
        let records: Vec<ChangeRecord> = records.try_iter().collect();
        assert!(records.iter().any(|r| matches!(r,
            ChangeRecord::SetContent { vid, .. } if *vid == result.as_u64())));
    }

    #[test]
    fn unknown_endpoint_errors() {
        let store = ViewStore::new();
        let registry = ServiceRegistry::new();
        let elem = build_axml_element(&store, "e", "svc/Missing()").unwrap();
        assert!(materialize_result(&store, &registry, elem).is_err());
    }
}
