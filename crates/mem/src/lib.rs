//! VMSAv8 memory system for the Camouflage simulator.
//!
//! Models the parts of the ARMv8 Virtual Memory System Architecture the
//! paper's design depends on:
//!
//! * the **split address space** selected by VA bit 55 (`TTBR0` user half,
//!   `TTBR1` kernel half) and the canonical sign-extension rules —
//!   reproducing Tables 1 and 2 of the paper ([`layout`]);
//! * **top-byte-ignore** (TBI), enabled for user addresses and disabled for
//!   kernel addresses in a standard Linux configuration, which is what
//!   limits kernel PACs to 15 bits (§5.4, Appendix A);
//! * **stage-1 translation** with the architectural quirk that every mapping
//!   is implicitly *readable* at EL1 — the reason kernel execute-only memory
//!   is impossible without a hypervisor (Appendix A.2);
//! * **stage-2 translation** owned by the hypervisor, whose independent read
//!   permission bit is what makes kernel XOM real ([`Stage2Table`]).
//!
//! # Example
//!
//! ```
//! use camo_mem::{AccessType, El, Memory, S1Attr, S2Attr};
//!
//! let mut mem = Memory::new();
//! let table = mem.new_table();
//! let frame = mem.alloc_frame();
//! // Kernel text page, executable at EL1.
//! mem.map(table, 0xffff_0000_0000_0000, frame, S1Attr::kernel_text());
//! // The hypervisor strips the read permission: execute-only memory.
//! mem.protect_stage2(frame, S2Attr::execute_only());
//!
//! let ctx = mem.kernel_ctx(table);
//! assert!(mem.read_u64(&ctx, 0xffff_0000_0000_0000).is_err());
//! assert!(mem.fetch(&ctx, 0xffff_0000_0000_0000).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layout;
mod mmu;
mod phys;
mod stage1;
mod stage2;

pub use layout::{PointerLayout, VaClass, KERNEL_BASE, PAGE_SIZE, VA_BITS};
pub use mmu::{AccessType, El, MemFault, Memory, TableId, TransMemo, TranslationCtx};
pub use phys::{Frame, PageMut, PhysMem};
pub use stage1::{S1Attr, Stage1Table};
pub use stage2::{S2Attr, Stage2Locked, Stage2Table};
