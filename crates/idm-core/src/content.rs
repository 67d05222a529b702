//! The content component `χ` of a resource view (Def. 1).
//!
//! `χ` is a (finite or infinite) sequence of symbols from an alphabet `Σ_c`.
//! We represent symbols as bytes; textual content is UTF-8. Three paradigms
//! from Section 4 of the paper are supported:
//!
//! - **extensional**: bytes held inline ([`Content::Inline`]),
//! - **intensional**: computed on first access by a [`ContentProvider`]
//!   ([`Content::Lazy`]) — e.g. the result of a query or a remote call,
//! - **infinite**: an unbounded symbol source ([`Content::Infinite`]) such
//!   as a media stream, exposed as a pull cursor that never ends.

use std::fmt;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::error::{IdmError, Result};

/// Computes a finite content component on demand (intensional content).
pub trait ContentProvider: Send + Sync {
    /// Produces the content bytes. Called at most once per view; the result
    /// is cached by the [`Content`] handle.
    fn compute(&self) -> Result<Bytes>;

    /// Optional size hint in bytes, available without computing the content
    /// (e.g. a file size from metadata). Used by indexing statistics.
    fn size_hint(&self) -> Option<u64> {
        None
    }
}

impl<F> ContentProvider for F
where
    F: Fn() -> Result<Bytes> + Send + Sync,
{
    fn compute(&self) -> Result<Bytes> {
        self()
    }
}

/// A source of an infinite symbol sequence (e.g. a media stream).
pub trait SymbolSource: Send + Sync {
    /// Returns the next chunk of symbols. An infinite source never returns
    /// an empty chunk of its own accord; callers decide when to stop pulling.
    fn next_chunk(&self) -> Result<Bytes>;
}

/// The force-once cell of intensional content and groups. The value
/// lives in a `OnceLock`, so readers ([`ForceOnce::get`]) never wait:
/// while a force runs they see nothing, exactly as before it started.
/// Forcing is serialized by a mutex held across the computation, so
/// concurrent forcers compute once, and a failed computation leaves the
/// cell empty for the next force.
pub(crate) struct ForceOnce<T> {
    value: OnceLock<T>,
    forcing: Mutex<()>,
}

impl<T> ForceOnce<T> {
    pub(crate) fn new() -> Self {
        ForceOnce {
            value: OnceLock::new(),
            forcing: Mutex::new(()),
        }
    }

    /// The value, if a force has finished.
    pub(crate) fn get(&self) -> Option<&T> {
        self.value.get()
    }

    /// The value, computing it first if no force has finished.
    pub(crate) fn force(&self, compute: impl FnOnce() -> Result<T>) -> Result<&T> {
        if let Some(value) = self.value.get() {
            return Ok(value);
        }
        let _forcing = self.forcing.lock();
        if let Some(value) = self.value.get() {
            return Ok(value);
        }
        let value = compute()?;
        Ok(self.value.get_or_init(|| value))
    }
}

/// The content component handle.
#[derive(Clone, Default)]
pub enum Content {
    /// The empty content `⟨⟩`.
    #[default]
    Empty,
    /// Extensional finite content held inline.
    Inline(Bytes),
    /// Intensional finite content, computed (then cached) on first access.
    Lazy(Arc<LazyContent>),
    /// Infinite content delivered chunk-wise by a symbol source.
    Infinite(Arc<dyn SymbolSource>),
}

/// Lazily computed finite content with caching.
pub struct LazyContent {
    provider: Arc<dyn ContentProvider>,
    cell: ForceOnce<Bytes>,
}

impl LazyContent {
    /// Wraps a provider.
    pub fn new(provider: Arc<dyn ContentProvider>) -> Self {
        LazyContent {
            provider,
            cell: ForceOnce::new(),
        }
    }

    /// Computes (or returns the cached) bytes.
    pub fn get(&self) -> Result<Bytes> {
        self.cell.force(|| self.provider.compute()).cloned()
    }

    /// Whether the content has been materialized yet.
    pub fn is_materialized(&self) -> bool {
        self.cell.get().is_some()
    }

    /// The cached bytes, if already materialized — never computes, and
    /// never waits for a computation in progress. Durability snapshots
    /// use this to persist what exists without forcing intensional work.
    pub fn peek(&self) -> Option<Bytes> {
        self.cell.get().cloned()
    }

    fn size_hint(&self) -> Option<u64> {
        match self.cell.get() {
            Some(bytes) => Some(bytes.len() as u64),
            None => self.provider.size_hint(),
        }
    }
}

impl Content {
    /// Creates finite extensional content from anything byte-like.
    pub fn inline(bytes: impl Into<Bytes>) -> Self {
        let bytes = bytes.into();
        if bytes.is_empty() {
            Content::Empty
        } else {
            Content::Inline(bytes)
        }
    }

    /// Creates finite extensional content from text.
    pub fn text(text: impl Into<String>) -> Self {
        Content::inline(Bytes::from(text.into()))
    }

    /// Creates intensional content computed on first access.
    pub fn lazy(provider: Arc<dyn ContentProvider>) -> Self {
        Content::Lazy(Arc::new(LazyContent::new(provider)))
    }

    /// Creates infinite content from a symbol source.
    pub fn infinite(source: Arc<dyn SymbolSource>) -> Self {
        Content::Infinite(source)
    }

    /// Whether the component is empty (`⟨⟩`).
    ///
    /// Lazy content is considered non-empty without forcing it: an
    /// intensional component *has* content, we just have not computed it.
    pub fn is_empty(&self) -> bool {
        matches!(self, Content::Empty)
    }

    /// Whether the component is finite.
    pub fn is_finite(&self) -> bool {
        !matches!(self, Content::Infinite(_))
    }

    /// Whether accessing the bytes requires computation (intensional).
    pub fn is_intensional(&self) -> bool {
        matches!(self, Content::Lazy(_))
    }

    /// Materializes finite content as bytes.
    ///
    /// Returns an error for infinite content: callers that can handle
    /// streams should use [`Content::reader`] instead.
    pub fn bytes(&self) -> Result<Bytes> {
        match self {
            Content::Empty => Ok(Bytes::new()),
            Content::Inline(bytes) => Ok(bytes.clone()),
            Content::Lazy(lazy) => lazy.get(),
            Content::Infinite(_) => Err(IdmError::InfiniteComponent {
                detail: "cannot materialize infinite content; use a reader".into(),
            }),
        }
    }

    /// Materializes finite content as UTF-8 text (lossily).
    pub fn text_lossy(&self) -> Result<String> {
        Ok(String::from_utf8_lossy(&self.bytes()?).into_owned())
    }

    /// A pull cursor over the symbol sequence; works for finite and
    /// infinite content alike.
    pub fn reader(&self) -> ContentReader {
        match self {
            Content::Empty => ContentReader::Finite {
                bytes: Bytes::new(),
                pos: 0,
            },
            Content::Inline(bytes) => ContentReader::Finite {
                bytes: bytes.clone(),
                pos: 0,
            },
            Content::Lazy(lazy) => match lazy.get() {
                Ok(bytes) => ContentReader::Finite { bytes, pos: 0 },
                Err(e) => ContentReader::Failed(Some(e)),
            },
            Content::Infinite(source) => ContentReader::Infinite {
                source: Arc::clone(source),
            },
        }
    }

    /// Size in bytes if known without forcing intensional content.
    pub fn size_hint(&self) -> Option<u64> {
        match self {
            Content::Empty => Some(0),
            Content::Inline(bytes) => Some(bytes.len() as u64),
            Content::Lazy(lazy) => lazy.size_hint(),
            Content::Infinite(_) => None,
        }
    }
}

impl fmt::Debug for Content {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Content::Empty => f.write_str("Content::Empty"),
            Content::Inline(bytes) => write!(f, "Content::Inline({} bytes)", bytes.len()),
            Content::Lazy(lazy) => {
                write!(f, "Content::Lazy(materialized: {})", lazy.is_materialized())
            }
            Content::Infinite(_) => f.write_str("Content::Infinite"),
        }
    }
}

/// A pull cursor over a content component's symbol sequence.
pub enum ContentReader {
    /// Cursor over finite bytes.
    Finite {
        /// The materialized bytes.
        bytes: Bytes,
        /// Read position.
        pos: usize,
    },
    /// Cursor over an infinite source.
    Infinite {
        /// The backing source.
        source: Arc<dyn SymbolSource>,
    },
    /// Lazy computation failed; the error is delivered on first read.
    Failed(Option<IdmError>),
}

impl ContentReader {
    /// Pulls the next chunk; `Ok(None)` signals the end of finite content.
    /// Infinite readers never return `Ok(None)`.
    pub fn next_chunk(&mut self) -> Result<Option<Bytes>> {
        match self {
            ContentReader::Finite { bytes, pos } => {
                if *pos >= bytes.len() {
                    return Ok(None);
                }
                // Deliver in bounded chunks so callers can process media-
                // sized content incrementally.
                const CHUNK: usize = 64 * 1024;
                let end = (*pos + CHUNK).min(bytes.len());
                let chunk = bytes.slice(*pos..end);
                *pos = end;
                Ok(Some(chunk))
            }
            ContentReader::Infinite { source } => source.next_chunk().map(Some),
            ContentReader::Failed(err) => Err(err
                .take()
                .unwrap_or(IdmError::provider("content computation failed"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_content() {
        let c = Content::Empty;
        assert!(c.is_empty());
        assert!(c.is_finite());
        assert_eq!(c.bytes().unwrap().len(), 0);
        assert_eq!(c.size_hint(), Some(0));
    }

    #[test]
    fn inline_collapses_empty() {
        assert!(Content::text("").is_empty());
        assert!(!Content::text("x").is_empty());
    }

    #[test]
    fn lazy_content_computes_once() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let provider = Arc::new(|| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            Ok(Bytes::from_static(b"intensional"))
        });
        let c = Content::lazy(provider);
        assert!(c.is_intensional());
        assert!(!c.is_empty());
        assert_eq!(c.text_lossy().unwrap(), "intensional");
        assert_eq!(c.text_lossy().unwrap(), "intensional");
        assert_eq!(CALLS.load(Ordering::SeqCst), 1, "provider called once");
        assert_eq!(c.size_hint(), Some(11));
    }

    #[test]
    fn infinite_content_refuses_materialization() {
        struct Ones;
        impl SymbolSource for Ones {
            fn next_chunk(&self) -> Result<Bytes> {
                Ok(Bytes::from_static(b"1"))
            }
        }
        let c = Content::infinite(Arc::new(Ones));
        assert!(!c.is_finite());
        assert!(c.bytes().is_err());
        let mut reader = c.reader();
        for _ in 0..5 {
            assert_eq!(
                reader.next_chunk().unwrap().unwrap(),
                Bytes::from_static(b"1")
            );
        }
    }

    #[test]
    fn reader_chunks_cover_finite_content() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let c = Content::inline(data.clone());
        let mut reader = c.reader();
        let mut out = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            out.extend_from_slice(&chunk);
        }
        assert_eq!(out, data);
    }

    #[test]
    fn failed_lazy_reader_reports_error() {
        let provider = Arc::new(|| Err(IdmError::provider("remote host down")));
        let c = Content::lazy(provider);
        assert!(c.bytes().is_err());
        let mut reader = c.reader();
        assert!(reader.next_chunk().is_err());
    }
}
