//! # idm-email — email for the iMeMex dataspace
//!
//! The paper's evaluation indexes 6,335 messages from a remote IMAP
//! server, and Section 4.4.1 develops email as the canonical *infinite*
//! group component (Option 1: model the INBOX **state**; Option 2: model
//! the message **stream**). This crate builds the whole substrate from
//! scratch:
//!
//! - [`base64`] — a from-scratch Base64 codec (MIME transfer encoding),
//! - [`message`] — an RFC-822-style header + MIME multipart parser and
//!   serializer (subject/from/to/date headers, text bodies, attachments),
//! - [`imap`] — a simulated IMAP server: a mailbox tree, per-operation
//!   **latency model** standing in for the network round-trips that
//!   dominate the paper's email indexing time (Figure 5), and
//!   notifications,
//! - [`convert`] — Email2iDM: mailboxes become `mailfolder` views,
//!   messages `emailmessage` views, attachments `attachment` (file)
//!   views — plus both INBOX modeling options, including the Option 2
//!   infinite message stream.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod base64;
pub mod convert;
pub mod imap;
pub mod message;

pub use imap::{ImapServer, LatencyModel, MailboxId, Uid};
pub use message::{Attachment, EmailMessage};
