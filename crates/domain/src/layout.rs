//! Memory layouts for vector fields — re-exported from `neon-set`.
//!
//! [`MemLayout`] moved down to the Set layer when layout became a
//! *policy*: `neon_core::recommend_layout` picks a layout per field at
//! allocation time. The field views in [`crate::view`] are its one
//! consumer on the kernel data path. This module stays so
//! `neon_domain::layout::MemLayout` keeps resolving.

pub use neon_set::layout::MemLayout;
