//! The NanoMap benchmark: maps fixed job lists through `NanoMap::map`,
//! checks every result, and reports end-to-end metrics or, from a
//! traced run, per-layer metrics. See `README.md` beside this crate.

pub mod bench;
pub mod host;
pub mod replay;
pub mod stats;
pub mod workload;

/// Counts allocations so the traced run can attribute bytes to the
/// layer calls it replays; untracked, it costs one relaxed load per
/// heap call.
#[global_allocator]
static ALLOC: nanomap_observe::CountingAllocator = nanomap_observe::CountingAllocator::system();
