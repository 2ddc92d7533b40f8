#![warn(missing_docs)]
//! Identifier primitives reverse-engineered from Dissenter and Gab (§2.2, §3.1).
//!
//! The paper discovered that Dissenter's three entity identifiers — the
//! *author-id*, *commenturl-id*, and *comment-id* — are 12-byte values whose
//! first four bytes are a big-endian Unix timestamp recording when the entity
//! was created (e.g. an account created 2019-02-28T16:23:53Z has an author-id
//! beginning `5c780b19`). Gab user IDs, in contrast, are a monotone integer
//! counter starting at 1, with occasional re-use of unallocated lower values.
//!
//! This crate implements both identifier families plus the timestamps and
//! calendar helpers that deterministic world generation runs on.

pub mod clock;
pub mod gabid;
pub mod hex;
pub mod oid;

pub use clock::{Timestamp, DISSENTER_LAUNCH, STUDY_END};
pub use gabid::{GabId, GabIdAllocator};
pub use oid::{EntityKind, ObjectId, ObjectIdGen, ParseObjectIdError};
