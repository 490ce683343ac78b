//! `minijvm` — a simulated Java virtual machine substrate for the Jinn
//! reproduction.
//!
//! The paper's Jinn tool interposes on the boundary between a production
//! JVM and native C code. This crate supplies the JVM side of that
//! boundary as a deterministic, dependency-free simulation with exactly
//! the entities the paper's eleven state machines observe:
//!
//! * a class registry with a real descriptor-grammar parser
//!   ([`descriptor`]), hierarchy-aware member resolution and assignability;
//! * an object heap with a **moving** (copying) collector ([`heap`]), so
//!   dangling references are genuinely dangling;
//! * per-thread local-reference frames with slot recycling ([`thread`]),
//!   global/weak-global handle tables;
//! * pending exceptions, monitors, pinned-or-copied buffers ([`pins`]),
//!   critical sections, and modified-UTF-8 strings ([`mutf8`]).
//!
//! The JNI function semantics, and everything about *checking*, live one
//! layer up in `minijni`; this crate is mechanism only.
//!
//! # Example
//!
//! ```
//! use minijvm::{Jvm, Slot};
//! use minijvm::class::MemberFlags;
//!
//! let mut jvm = Jvm::new();
//! let thread = jvm.main_thread();
//! let class = jvm
//!     .registry_mut()
//!     .define("demo/Greeter")
//!     .field("greeting", "Ljava/lang/String;", MemberFlags::public())
//!     .build()?;
//! let obj = jvm.alloc_object(class);
//! let hello = jvm.alloc_string("hello");
//! let fid = jvm.registry().resolve_field(class, "greeting", "Ljava/lang/String;", false)?;
//! jvm.set_instance_field(obj, fid, Slot::Ref(Some(hello)));
//!
//! // Handles survive a moving collection; raw addresses do not.
//! let handle = jvm.new_local(thread, obj);
//! jvm.gc();
//! let obj = jvm.resolve(thread, handle)?.expect("non-null");
//! assert!(jvm.get_instance_field(obj, fid).as_oop().is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class;
pub mod descriptor;
mod error;
mod handles;
pub mod heap;
pub mod mutf8;
pub mod pins;
pub mod thread;
mod value;
mod vm;

pub use class::{ClassId, ClassRegistry, FieldSlot, MemberFlags, MethodBody, Visibility};
pub use descriptor::{FieldType, MethodSig, PrimType, ReturnType};
pub use error::{DeathKind, JvmDeath, JvmError};
pub use handles::HandleSlab;
pub use heap::{Body, GcStats, Heap, PrimArray, Slot};
pub use pins::{PinData, PinError, PinId, PinKind};
pub use thread::{EnvToken, RefFault, ThreadState, DEFAULT_LOCAL_CAPACITY};
pub use value::{FieldId, JRef, JValue, MethodId, ObjectId, Oop, RefKind, ThreadId};
pub use vm::{Jvm, MonitorError, TerminationReport};
