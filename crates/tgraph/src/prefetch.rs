//! Best-effort software prefetch hints.
//!
//! The walk kernel's dominant cost on large graphs is the dependent random
//! load into each step's neighbor segment (the paper's §VI stall
//! analysis). The walk kernel's ring hides that latency by issuing
//! prefetches for segments it will touch a few iterations ahead; this
//! module provides the single primitive it needs.
//!
//! Unlike the f32 kernels in `crates/simd`, no runtime dispatch table is
//! required here: the prefetch instruction is part of the *baseline* ISA
//! on both supported 64-bit targets (`PREFETCHT0` is SSE, guaranteed on
//! x86-64; `PRFM` is base A64), so a compile-time `cfg` selects the
//! instruction once and other targets compile to a no-op. Prefetches are
//! pure hints: they never fault, even on dangling or null addresses, which
//! is why [`prefetch_read`] is safe to call on any pointer.

/// Hints the CPU to pull the cache line containing `p` into L1 for a
/// future read. A no-op on targets without a baseline prefetch
/// instruction. Never faults, regardless of where `p` points.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is architecturally defined to ignore faults; it
    // performs no architectural memory access, so any pointer value is
    // acceptable.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM is a hint instruction; it cannot fault or write memory.
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags, readonly))
    };
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_pure_hint() {
        // Valid, dangling, and null pointers must all be accepted without
        // faulting — the accessor contract the walk engine relies on when
        // prefetching ahead of bounds checks.
        let data = [1u64, 2, 3];
        prefetch_read(data.as_ptr());
        // `wrapping_add`: an out-of-bounds `add` would itself be undefined
        // behavior, before any prefetch.
        prefetch_read(data.as_ptr().wrapping_add(1000));
        prefetch_read(std::ptr::null::<u64>());
    }
}
