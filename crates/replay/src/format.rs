//! The `.jtrace` wire format: varint-encoded records with an inline
//! string intern table.
//!
//! A trace is `MAGIC` (`JTRC`) + a little-endian `u16` format version,
//! followed by records. Each record is a one-byte tag and a
//! tag-determined payload built from three primitives:
//!
//! * **varint** — LEB128, 7 bits per byte, low bits first;
//! * **zigzag** — signed values mapped through `(n << 1) ^ (n >> 63)`
//!   then varint-encoded;
//! * **interned string** — a varint intern-table id. Ids are assigned
//!   densely in first-use order; the defining `Intern` record is emitted
//!   inline *before* the record that first references it, so a streaming
//!   reader needs no lookahead.
//!
//! The format is deliberately **timestamp-free**: recording the same
//! deterministic run twice produces byte-identical traces, which is what
//! makes the determinism property test and the CI drift check possible.
//! The final `End` record carries the record count and an FNV-1a
//! checksum of every preceding byte.
//!
//! Versioning rule: any change to record layouts or tag numbering bumps
//! [`FORMAT_VERSION`]; readers reject versions they don't know (there is
//! no in-band negotiation — a trace is an artifact, not a protocol).

use std::collections::HashMap;
use std::fmt;

use minijni::JniArg;
use minijvm::{
    FieldId, JRef, JValue, MemberFlags, MethodId, PinId, PrimArray, RefKind, ThreadId, Visibility,
};

/// File magic: the first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"JTRC";

/// Current format version. Bump on any wire-layout change.
pub const FORMAT_VERSION: u16 = 1;

/// Record tags.
pub(crate) mod tag {
    pub const INTERN: u8 = 0x01;
    pub const META: u8 = 0x02;
    pub const DEF_CLASS: u8 = 0x03;
    pub const SPAWN_THREAD: u8 = 0x04;
    pub const SEED_REF: u8 = 0x05;
    pub const JNI_ENTER: u8 = 0x06;
    pub const JNI_EXIT: u8 = 0x07;
    pub const NATIVE_ENTER: u8 = 0x08;
    pub const NATIVE_EXIT: u8 = 0x09;
    pub const MANAGED_ENTER: u8 = 0x0A;
    pub const MANAGED_EXIT: u8 = 0x0B;
    pub const GC_POINT: u8 = 0x0C;
    pub const VENDOR_UB: u8 = 0x0D;
    pub const OBS_EVENT: u8 = 0x0E;
    pub const PY_CALL: u8 = 0x0F;
    pub const END: u8 = 0xFF;
}

/// FNV-1a offset basis — the hash of the empty byte string.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_with(FNV_OFFSET, bytes)
}

/// Resumes a 64-bit FNV-1a from a previously computed running hash.
/// `fnv1a_with(fnv1a(a), b) == fnv1a(a ++ b)` — the identity that lets a
/// streaming reader checksum a trace it never holds in one allocation.
pub fn fnv1a_with(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The byte stream ended mid-record (no `End` record seen).
    Truncated,
    /// The first four bytes are not `JTRC`.
    BadMagic,
    /// The trace was written by a format version this reader rejects.
    UnsupportedVersion(u16),
    /// A structurally invalid payload (bad tag, dangling intern id…).
    Corrupt(String),
    /// The `End` record's checksum does not match the bytes.
    ChecksumMismatch {
        /// Checksum stored in the trace.
        expected: u64,
        /// Checksum computed from the bytes.
        actual: u64,
    },
    /// The `End` record's count does not match the records decoded.
    RecordCountMismatch {
        /// Count stored in the trace.
        expected: u64,
        /// Records actually decoded.
        actual: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Truncated => f.write_str("trace truncated (no End record)"),
            TraceError::BadMagic => f.write_str("not a .jtrace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (reader speaks {FORMAT_VERSION})"
                )
            }
            TraceError::Corrupt(why) => write!(f, "corrupt trace: {why}"),
            TraceError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
                )
            }
            TraceError::RecordCountMismatch { expected, actual } => {
                write!(
                    f,
                    "record count mismatch: stored {expected}, decoded {actual}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------------------
// Decoded records
// ---------------------------------------------------------------------------

/// How a boundary call finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallStatus {
    /// Returned normally.
    Ok,
    /// Finished with a Java exception pending / propagating.
    Exception,
    /// The simulated process died.
    Death,
    /// A checker threw (never present in record-mode traces).
    Detected,
}

impl CallStatus {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            CallStatus::Ok => 0,
            CallStatus::Exception => 1,
            CallStatus::Death => 2,
            CallStatus::Detected => 3,
        }
    }

    pub(crate) fn from_u8(b: u8) -> Result<CallStatus, TraceError> {
        Ok(match b {
            0 => CallStatus::Ok,
            1 => CallStatus::Exception,
            2 => CallStatus::Death,
            3 => CallStatus::Detected,
            other => return Err(TraceError::Corrupt(format!("bad call status {other}"))),
        })
    }
}

/// What kind of body a recorded method has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyKind {
    /// A native (C) body — replayed from recorded frames.
    Native,
    /// A managed (Java) body — replayed from recorded outcomes.
    Managed,
    /// No body.
    Abstract,
}

/// A recorded method declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRec {
    /// Method name.
    pub name: String,
    /// JVM descriptor, e.g. `(Ljava/lang/String;)V`.
    pub desc: String,
    /// Modifier flags.
    pub flags: MemberFlags,
    /// Body kind.
    pub kind: BodyKind,
}

/// A recorded field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldRec {
    /// Field name.
    pub name: String,
    /// JVM descriptor.
    pub desc: String,
    /// Modifier flags (`is_final` matters: pitfall 9).
    pub flags: MemberFlags,
}

/// A recorded class definition, in definition order past the core-class
/// baseline. Replaying definitions in this order reproduces every
/// `ClassId`/`MethodId`/`FieldId` of the original run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRec {
    /// Slashed class name.
    pub name: String,
    /// Superclass name (`None` only for array classes, whose hierarchy
    /// is implicit).
    pub superclass: Option<String>,
    /// Whether this is an interface.
    pub is_interface: bool,
    /// Fields in slot order.
    pub fields: Vec<FieldRec>,
    /// Methods in table order.
    pub methods: Vec<MethodRec>,
}

/// What a seed object is, classified at record time.
#[derive(Debug, Clone, PartialEq)]
pub enum SeedKind {
    /// A plain instance of the named class.
    Object(String),
    /// A `java/lang/String` with the given text.
    Text(String),
    /// The `java/lang/Class` mirror of the named class.
    Mirror(String),
}

/// A pre-allocated argument object (the harness's `first_args`), to be
/// re-allocated at replay in recorded order so heap/handle ids line up.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedRec {
    /// Owning thread of the local reference.
    pub thread: u16,
    /// What to allocate.
    pub kind: SeedKind,
    /// The reference the original run obtained — replay asserts equality.
    pub expected: JRef,
}

/// A replayable managed-body outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagedRec {
    /// Returned a value.
    Return(JValue),
    /// Threw: replay re-raises `class` with `message`.
    Threw {
        /// Slashed exception class name.
        class: String,
        /// Exception message.
        message: String,
    },
    /// Process death inside the body (not produced by record mode).
    Died,
    /// Checker throw inside the body (not produced by record mode).
    Detected,
}

/// A recorded vendor undefined-behaviour outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum UbRec {
    /// Kept running.
    Proceed,
    /// Crashed with a reason.
    Crash(String),
    /// Raised a `NullPointerException`.
    Npe,
    /// Hung with a reason.
    Deadlock(String),
}

/// One decoded trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A `key = value` annotation (program name, pitfall, gc period…).
    Meta {
        /// Key.
        key: String,
        /// Value.
        value: String,
    },
    /// A class definition (setup section).
    DefClass(ClassRec),
    /// A thread spawned during setup.
    SpawnThread {
        /// The id the spawn produced.
        thread: u16,
    },
    /// A setup-time allocation (entry-point argument).
    Seed(SeedRec),
    /// `Call:C→Java` with full arguments and the presented env token.
    JniEnter {
        /// Executing thread.
        thread: u16,
        /// The `JNIEnv*` token the C code presented.
        presented: u32,
        /// JNI function id (registry index).
        func: u16,
        /// Arguments.
        args: Vec<JniArg>,
    },
    /// `Return:Java→C`.
    JniExit {
        /// Executing thread.
        thread: u16,
        /// JNI function id.
        func: u16,
        /// How it finished.
        status: CallStatus,
    },
    /// `Call:Java→C` with the caller-view arguments.
    NativeEnter {
        /// Executing thread.
        thread: u16,
        /// Raw method id.
        method: u32,
        /// Caller-view arguments.
        args: Vec<JValue>,
    },
    /// `Return:C→Java`: the body's raw result, pre-translation.
    NativeExit {
        /// Executing thread.
        thread: u16,
        /// Raw method id.
        method: u32,
        /// How it finished.
        status: CallStatus,
        /// The returned value when `status` is [`CallStatus::Ok`].
        ret: Option<JValue>,
    },
    /// A managed body was entered (nested Java inside C).
    ManagedEnter {
        /// Executing thread.
        thread: u16,
        /// Raw method id.
        method: u32,
        /// Arguments.
        args: Vec<JValue>,
    },
    /// A managed body finished.
    ManagedExit {
        /// Executing thread.
        thread: u16,
        /// Raw method id.
        method: u32,
        /// How it finished.
        outcome: ManagedRec,
    },
    /// A garbage collection ran at a boundary safepoint.
    GcPoint {
        /// Thread whose crossing triggered the safepoint.
        thread: u16,
        /// Surviving objects.
        live: u64,
        /// Collected objects.
        collected: u64,
        /// Weak globals cleared.
        weak_cleared: u64,
    },
    /// The vendor model decided a UB situation.
    VendorUb {
        /// Executing thread.
        thread: u16,
        /// Situation kind (e.g. `ref-fault`).
        situation: String,
        /// The JNI function involved.
        func: String,
        /// The vendor's decision.
        outcome: UbRec,
    },
    /// A bridged observability event (text rendering).
    ObsEvent {
        /// Originating thread.
        thread: u16,
        /// Rendered event text.
        text: String,
    },
    /// A Python/C boundary crossing (from `minipy`'s interpose seam).
    PyCall {
        /// Python thread.
        thread: u16,
        /// C-API function name.
        func: String,
        /// Pointer arguments (simulated addresses).
        ptrs: Vec<u64>,
    },
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

fn varint_into(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn vis_to_bits(v: Visibility) -> u8 {
    match v {
        Visibility::Public => 0,
        Visibility::Protected => 1,
        Visibility::Package => 2,
        Visibility::Private => 3,
    }
}

fn vis_from_bits(b: u8) -> Visibility {
    match b {
        1 => Visibility::Protected,
        2 => Visibility::Package,
        3 => Visibility::Private,
        _ => Visibility::Public,
    }
}

pub(crate) fn flags_to_byte(flags: MemberFlags) -> u8 {
    u8::from(flags.is_static)
        | (u8::from(flags.is_final) << 1)
        | (vis_to_bits(flags.visibility) << 2)
}

pub(crate) fn flags_from_byte(b: u8) -> MemberFlags {
    MemberFlags {
        is_static: b & 1 != 0,
        is_final: b & 2 != 0,
        visibility: vis_from_bits((b >> 2) & 3),
    }
}

/// Low-level record encoder with inline interning. Records are staged in
/// a scratch buffer so an `Intern` definition triggered mid-record lands
/// *before* the record that references it.
#[derive(Debug, Default)]
pub(crate) struct Encoder {
    out: Vec<u8>,
    scratch: Vec<u8>,
    interns: HashMap<String, u64>,
    records: u64,
}

impl Encoder {
    pub(crate) fn new() -> Encoder {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        Encoder {
            out,
            scratch: Vec::new(),
            interns: HashMap::new(),
            records: 0,
        }
    }

    pub(crate) fn byte(&mut self, b: u8) {
        self.scratch.push(b);
    }

    pub(crate) fn varint(&mut self, v: u64) {
        varint_into(&mut self.scratch, v);
    }

    pub(crate) fn signed(&mut self, v: i64) {
        varint_into(&mut self.scratch, zigzag(v));
    }

    /// Writes the intern id of `s`, emitting the defining `Intern` record
    /// first when the string is new.
    pub(crate) fn istr(&mut self, s: &str) {
        let next = self.interns.len() as u64;
        let id = match self.interns.get(s) {
            Some(&id) => id,
            None => {
                self.interns.insert(s.to_string(), next);
                self.out.push(tag::INTERN);
                varint_into(&mut self.out, next);
                varint_into(&mut self.out, s.len() as u64);
                self.out.extend_from_slice(s.as_bytes());
                self.records += 1;
                next
            }
        };
        varint_into(&mut self.scratch, id);
    }

    /// Flushes the staged payload as one record with the given tag.
    pub(crate) fn end_record(&mut self, record_tag: u8) {
        self.out.push(record_tag);
        self.out.append(&mut self.scratch);
        self.records += 1;
    }

    pub(crate) fn jref(&mut self, r: JRef) {
        let kind = match r.kind() {
            RefKind::Null => 0u8,
            RefKind::Local => 1,
            RefKind::Global => 2,
            RefKind::WeakGlobal => 3,
        };
        self.byte(kind);
        if kind != 0 {
            self.varint(u64::from(r.owner().0));
            self.varint(u64::from(r.slot()));
            self.varint(u64::from(r.generation()));
        }
    }

    pub(crate) fn jvalue(&mut self, v: &JValue) {
        match v {
            JValue::Bool(b) => {
                self.byte(0);
                self.byte(u8::from(*b));
            }
            JValue::Byte(b) => {
                self.byte(1);
                self.signed(i64::from(*b));
            }
            JValue::Char(c) => {
                self.byte(2);
                self.varint(u64::from(*c));
            }
            JValue::Short(s) => {
                self.byte(3);
                self.signed(i64::from(*s));
            }
            JValue::Int(i) => {
                self.byte(4);
                self.signed(i64::from(*i));
            }
            JValue::Long(l) => {
                self.byte(5);
                self.signed(*l);
            }
            JValue::Float(f) => {
                self.byte(6);
                self.varint(u64::from(f.to_bits()));
            }
            JValue::Double(d) => {
                self.byte(7);
                self.varint(d.to_bits());
            }
            JValue::Ref(r) => {
                self.byte(8);
                self.jref(*r);
            }
            JValue::Void => self.byte(9),
        }
    }

    pub(crate) fn prims(&mut self, p: &PrimArray) {
        match p {
            PrimArray::Bool(v) => {
                self.byte(0);
                self.varint(v.len() as u64);
                for &b in v {
                    self.byte(u8::from(b));
                }
            }
            PrimArray::Byte(v) => {
                self.byte(1);
                self.varint(v.len() as u64);
                for &b in v {
                    self.signed(i64::from(b));
                }
            }
            PrimArray::Char(v) => {
                self.byte(2);
                self.varint(v.len() as u64);
                for &c in v {
                    self.varint(u64::from(c));
                }
            }
            PrimArray::Short(v) => {
                self.byte(3);
                self.varint(v.len() as u64);
                for &s in v {
                    self.signed(i64::from(s));
                }
            }
            PrimArray::Int(v) => {
                self.byte(4);
                self.varint(v.len() as u64);
                for &i in v {
                    self.signed(i64::from(i));
                }
            }
            PrimArray::Long(v) => {
                self.byte(5);
                self.varint(v.len() as u64);
                for &l in v {
                    self.signed(l);
                }
            }
            PrimArray::Float(v) => {
                self.byte(6);
                self.varint(v.len() as u64);
                for &f in v {
                    self.varint(u64::from(f.to_bits()));
                }
            }
            PrimArray::Double(v) => {
                self.byte(7);
                self.varint(v.len() as u64);
                for &d in v {
                    self.varint(d.to_bits());
                }
            }
        }
    }

    pub(crate) fn jarg(&mut self, a: &JniArg) {
        match a {
            JniArg::Ref(r) => {
                self.byte(0);
                self.jref(*r);
            }
            JniArg::Method(m) => {
                self.byte(1);
                self.varint(m.index() as u64);
            }
            JniArg::Field(fd) => {
                self.byte(2);
                self.varint(fd.index() as u64);
            }
            JniArg::Val(v) => {
                self.byte(3);
                self.jvalue(v);
            }
            JniArg::Name(s) => {
                self.byte(4);
                self.istr(s);
            }
            JniArg::Buf(p) => {
                self.byte(5);
                self.varint(u64::from(p.0));
            }
            JniArg::Args(vs) => {
                self.byte(6);
                self.varint(vs.len() as u64);
                for v in vs {
                    self.jvalue(v);
                }
            }
            JniArg::Size(s) => {
                self.byte(7);
                self.signed(*s);
            }
            JniArg::Chars(cs) => {
                self.byte(8);
                self.varint(cs.len() as u64);
                for &c in cs {
                    self.varint(u64::from(c));
                }
            }
            JniArg::Bytes(bs) => {
                self.byte(9);
                self.varint(bs.len() as u64);
                self.scratch.extend_from_slice(bs);
            }
            JniArg::Prims(p) => {
                self.byte(10);
                self.prims(p);
            }
            JniArg::Opaque => self.byte(11),
        }
    }

    /// Appends the `End` record (count + checksum) and returns the bytes.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        debug_assert!(self.scratch.is_empty(), "unflushed record");
        let count = self.records;
        let checksum = fnv1a(&self.out);
        self.out.push(tag::END);
        varint_into(&mut self.out, count);
        self.out.extend_from_slice(&checksum.to_le_bytes());
        self.out
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Streaming record decoder. [`Decoder::next_record`] yields one decoded
/// [`TraceRecord`] at a time, resolving interned strings on the fly.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    interns: Vec<String>,
    version: u16,
    records: u64,
    finished: bool,
    /// Running FNV over everything decoded *before* `bytes` — the offset
    /// basis for a whole-trace decode, a carried hash for a resumed
    /// [`StreamDecoder`] window.
    base_fnv: u64,
    /// A resumed window decodes a slice that starts mid-trace and may end
    /// before the trace does, so the trailing-bytes check after `End`
    /// moves to the stream decoder.
    streaming: bool,
}

impl<'a> Decoder<'a> {
    /// Starts decoding, validating magic and version.
    pub fn new(bytes: &'a [u8]) -> Result<Decoder<'a>, TraceError> {
        if bytes.len() < 6 {
            return Err(TraceError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        Ok(Decoder {
            bytes,
            pos: 6,
            interns: Vec::new(),
            version,
            records: 0,
            finished: false,
            base_fnv: FNV_OFFSET,
            streaming: false,
        })
    }

    /// The trace's format version.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Records decoded so far (intern definitions included).
    pub fn records_decoded(&self) -> u64 {
        self.records
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        let b = *self.bytes.get(self.pos).ok_or(TraceError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).ok_or(TraceError::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(TraceError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(TraceError::Corrupt("varint overflow".into()));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn signed(&mut self) -> Result<i64, TraceError> {
        Ok(unzigzag(self.varint()?))
    }

    fn u16v(&mut self) -> Result<u16, TraceError> {
        let v = self.varint()?;
        u16::try_from(v).map_err(|_| TraceError::Corrupt(format!("u16 out of range: {v}")))
    }

    fn u32v(&mut self) -> Result<u32, TraceError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| TraceError::Corrupt(format!("u32 out of range: {v}")))
    }

    /// A JNI function id, which must name one of the registry's
    /// functions: every consumer indexes the registry with it.
    fn func(&mut self) -> Result<u16, TraceError> {
        let func = self.u16v()?;
        if usize::from(func) >= minijni::registry().len() {
            return Err(TraceError::Corrupt(format!(
                "unknown JNI function id {func}"
            )));
        }
        Ok(func)
    }

    fn istr(&mut self) -> Result<String, TraceError> {
        // A bare `varint()? as usize` would silently truncate intern ids on
        // 32-bit targets; go through the checked u32 path like the
        // neighbouring fields so an oversized id is a corrupt trace, not a
        // wrong string.
        let id = self.u32v()? as usize;
        self.interns
            .get(id)
            .cloned()
            .ok_or_else(|| TraceError::Corrupt(format!("dangling intern id {id}")))
    }

    fn jref(&mut self) -> Result<JRef, TraceError> {
        let kind = match self.u8()? {
            0 => return Ok(JRef::NULL),
            1 => RefKind::Local,
            2 => RefKind::Global,
            3 => RefKind::WeakGlobal,
            other => return Err(TraceError::Corrupt(format!("bad ref kind {other}"))),
        };
        let owner = ThreadId(self.u16v()?);
        let slot = self.u32v()?;
        let generation = self.u32v()?;
        Ok(JRef::from_parts(kind, owner, slot, generation))
    }

    fn jvalue(&mut self) -> Result<JValue, TraceError> {
        Ok(match self.u8()? {
            0 => JValue::Bool(self.u8()? != 0),
            1 => JValue::Byte(self.signed()? as i8),
            2 => JValue::Char(self.u16v()?),
            3 => JValue::Short(self.signed()? as i16),
            4 => JValue::Int(self.signed()? as i32),
            5 => JValue::Long(self.signed()?),
            6 => JValue::Float(f32::from_bits(self.u32v()?)),
            7 => JValue::Double(f64::from_bits(self.varint()?)),
            8 => JValue::Ref(self.jref()?),
            9 => JValue::Void,
            other => return Err(TraceError::Corrupt(format!("bad jvalue tag {other}"))),
        })
    }

    fn jvalues(&mut self) -> Result<Vec<JValue>, TraceError> {
        let n = self.varint()? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(self.jvalue()?);
        }
        Ok(out)
    }

    fn prims(&mut self) -> Result<PrimArray, TraceError> {
        let kind = self.u8()?;
        let n = self.varint()? as usize;
        Ok(match kind {
            0 => {
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(self.u8()? != 0);
                }
                PrimArray::Bool(v)
            }
            1 => {
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(self.signed()? as i8);
                }
                PrimArray::Byte(v)
            }
            2 => {
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(self.u16v()?);
                }
                PrimArray::Char(v)
            }
            3 => {
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(self.signed()? as i16);
                }
                PrimArray::Short(v)
            }
            4 => {
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(self.signed()? as i32);
                }
                PrimArray::Int(v)
            }
            5 => {
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(self.signed()?);
                }
                PrimArray::Long(v)
            }
            6 => {
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(f32::from_bits(self.u32v()?));
                }
                PrimArray::Float(v)
            }
            7 => {
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(f64::from_bits(self.varint()?));
                }
                PrimArray::Double(v)
            }
            other => return Err(TraceError::Corrupt(format!("bad prim kind {other}"))),
        })
    }

    fn jarg(&mut self) -> Result<JniArg, TraceError> {
        Ok(match self.u8()? {
            0 => JniArg::Ref(self.jref()?),
            1 => JniArg::Method(MethodId::forged(self.varint()?)),
            2 => JniArg::Field(FieldId::forged(self.varint()?)),
            3 => JniArg::Val(self.jvalue()?),
            4 => JniArg::Name(self.istr()?),
            5 => JniArg::Buf(PinId(self.u32v()?)),
            6 => JniArg::Args(self.jvalues()?),
            7 => JniArg::Size(self.signed()?),
            8 => {
                let n = self.varint()? as usize;
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(self.u16v()?);
                }
                JniArg::Chars(v)
            }
            9 => {
                let n = self.varint()? as usize;
                JniArg::Bytes(self.take(n)?.to_vec())
            }
            10 => JniArg::Prims(self.prims()?),
            11 => JniArg::Opaque,
            other => return Err(TraceError::Corrupt(format!("bad arg tag {other}"))),
        })
    }

    fn status(&mut self) -> Result<CallStatus, TraceError> {
        CallStatus::from_u8(self.u8()?)
    }

    /// Decodes the next record, or `Ok(None)` at the (validated) end.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] on malformed input; checksum and record-count
    /// mismatches are detected when the `End` record is reached.
    #[allow(clippy::too_many_lines)]
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        if self.finished {
            return Ok(None);
        }
        loop {
            let tag_pos = self.pos;
            let t = self.u8()?;
            match t {
                tag::INTERN => {
                    let id = self.varint()? as usize;
                    if id != self.interns.len() {
                        return Err(TraceError::Corrupt(format!(
                            "intern id {id} out of order (expected {})",
                            self.interns.len()
                        )));
                    }
                    let len = self.varint()? as usize;
                    let bytes = self.take(len)?;
                    let s = std::str::from_utf8(bytes)
                        .map_err(|_| TraceError::Corrupt("intern not UTF-8".into()))?;
                    self.interns.push(s.to_string());
                    self.records += 1;
                }
                tag::END => {
                    let expected_count = self.varint()?;
                    let checksum_bytes = self.take(8)?;
                    let expected = u64::from_le_bytes(checksum_bytes.try_into().expect("8 bytes"));
                    let actual = fnv1a_with(self.base_fnv, &self.bytes[..tag_pos]);
                    if expected != actual {
                        return Err(TraceError::ChecksumMismatch { expected, actual });
                    }
                    if expected_count != self.records {
                        return Err(TraceError::RecordCountMismatch {
                            expected: expected_count,
                            actual: self.records,
                        });
                    }
                    if !self.streaming && self.pos != self.bytes.len() {
                        // Bytes past the end record sit outside the
                        // checksum; accepting them would let an attacker
                        // smuggle arbitrary data under a valid seal. A
                        // streaming window may legitimately end before the
                        // stream does, so [`StreamDecoder`] runs this
                        // check itself at seal.
                        return Err(TraceError::Corrupt(format!(
                            "{} trailing bytes after end record",
                            self.bytes.len() - self.pos
                        )));
                    }
                    self.finished = true;
                    return Ok(None);
                }
                tag::META => {
                    let key = self.istr()?;
                    let value = self.istr()?;
                    self.records += 1;
                    return Ok(Some(TraceRecord::Meta { key, value }));
                }
                tag::DEF_CLASS => {
                    let name = self.istr()?;
                    let superclass = {
                        let s = self.istr()?;
                        if s.is_empty() {
                            None
                        } else {
                            Some(s)
                        }
                    };
                    let is_interface = self.u8()? != 0;
                    let nfields = self.varint()? as usize;
                    let mut fields = Vec::with_capacity(nfields.min(1024));
                    for _ in 0..nfields {
                        let name = self.istr()?;
                        let desc = self.istr()?;
                        let flags = flags_from_byte(self.u8()?);
                        fields.push(FieldRec { name, desc, flags });
                    }
                    let nmethods = self.varint()? as usize;
                    let mut methods = Vec::with_capacity(nmethods.min(1024));
                    for _ in 0..nmethods {
                        let name = self.istr()?;
                        let desc = self.istr()?;
                        let flags = flags_from_byte(self.u8()?);
                        let kind = match self.u8()? {
                            0 => BodyKind::Native,
                            1 => BodyKind::Managed,
                            2 => BodyKind::Abstract,
                            other => {
                                return Err(TraceError::Corrupt(format!("bad body kind {other}")))
                            }
                        };
                        methods.push(MethodRec {
                            name,
                            desc,
                            flags,
                            kind,
                        });
                    }
                    self.records += 1;
                    return Ok(Some(TraceRecord::DefClass(ClassRec {
                        name,
                        superclass,
                        is_interface,
                        fields,
                        methods,
                    })));
                }
                tag::SPAWN_THREAD => {
                    let thread = self.u16v()?;
                    self.records += 1;
                    return Ok(Some(TraceRecord::SpawnThread { thread }));
                }
                tag::SEED_REF => {
                    let thread = self.u16v()?;
                    let kind = match self.u8()? {
                        0 => SeedKind::Object(self.istr()?),
                        1 => SeedKind::Text(self.istr()?),
                        2 => SeedKind::Mirror(self.istr()?),
                        other => return Err(TraceError::Corrupt(format!("bad seed kind {other}"))),
                    };
                    let expected = self.jref()?;
                    self.records += 1;
                    return Ok(Some(TraceRecord::Seed(SeedRec {
                        thread,
                        kind,
                        expected,
                    })));
                }
                tag::JNI_ENTER => {
                    let thread = self.u16v()?;
                    let presented = self.u32v()?;
                    let func = self.func()?;
                    let n = self.varint()? as usize;
                    let mut args = Vec::with_capacity(n.min(64));
                    for _ in 0..n {
                        args.push(self.jarg()?);
                    }
                    self.records += 1;
                    return Ok(Some(TraceRecord::JniEnter {
                        thread,
                        presented,
                        func,
                        args,
                    }));
                }
                tag::JNI_EXIT => {
                    let thread = self.u16v()?;
                    let func = self.func()?;
                    let status = self.status()?;
                    self.records += 1;
                    return Ok(Some(TraceRecord::JniExit {
                        thread,
                        func,
                        status,
                    }));
                }
                tag::NATIVE_ENTER => {
                    let thread = self.u16v()?;
                    let method = self.u32v()?;
                    let args = self.jvalues()?;
                    self.records += 1;
                    return Ok(Some(TraceRecord::NativeEnter {
                        thread,
                        method,
                        args,
                    }));
                }
                tag::NATIVE_EXIT => {
                    let thread = self.u16v()?;
                    let method = self.u32v()?;
                    let status = self.status()?;
                    let ret = if status == CallStatus::Ok {
                        Some(self.jvalue()?)
                    } else {
                        None
                    };
                    self.records += 1;
                    return Ok(Some(TraceRecord::NativeExit {
                        thread,
                        method,
                        status,
                        ret,
                    }));
                }
                tag::MANAGED_ENTER => {
                    let thread = self.u16v()?;
                    let method = self.u32v()?;
                    let args = self.jvalues()?;
                    self.records += 1;
                    return Ok(Some(TraceRecord::ManagedEnter {
                        thread,
                        method,
                        args,
                    }));
                }
                tag::MANAGED_EXIT => {
                    let thread = self.u16v()?;
                    let method = self.u32v()?;
                    let outcome = match self.u8()? {
                        0 => ManagedRec::Return(self.jvalue()?),
                        1 => {
                            let class = self.istr()?;
                            let message = self.istr()?;
                            ManagedRec::Threw { class, message }
                        }
                        2 => ManagedRec::Died,
                        3 => ManagedRec::Detected,
                        other => {
                            return Err(TraceError::Corrupt(format!("bad managed outcome {other}")))
                        }
                    };
                    self.records += 1;
                    return Ok(Some(TraceRecord::ManagedExit {
                        thread,
                        method,
                        outcome,
                    }));
                }
                tag::GC_POINT => {
                    let thread = self.u16v()?;
                    let live = self.varint()?;
                    let collected = self.varint()?;
                    let weak_cleared = self.varint()?;
                    self.records += 1;
                    return Ok(Some(TraceRecord::GcPoint {
                        thread,
                        live,
                        collected,
                        weak_cleared,
                    }));
                }
                tag::VENDOR_UB => {
                    let thread = self.u16v()?;
                    let situation = self.istr()?;
                    let func = self.istr()?;
                    let outcome = match self.u8()? {
                        0 => UbRec::Proceed,
                        1 => UbRec::Crash(self.istr()?),
                        2 => UbRec::Npe,
                        3 => UbRec::Deadlock(self.istr()?),
                        other => {
                            return Err(TraceError::Corrupt(format!("bad ub outcome {other}")))
                        }
                    };
                    self.records += 1;
                    return Ok(Some(TraceRecord::VendorUb {
                        thread,
                        situation,
                        func,
                        outcome,
                    }));
                }
                tag::OBS_EVENT => {
                    let thread = self.u16v()?;
                    let text = self.istr()?;
                    self.records += 1;
                    return Ok(Some(TraceRecord::ObsEvent { thread, text }));
                }
                tag::PY_CALL => {
                    let thread = self.u16v()?;
                    let func = self.istr()?;
                    let n = self.varint()? as usize;
                    let mut ptrs = Vec::with_capacity(n.min(64));
                    for _ in 0..n {
                        ptrs.push(self.varint()?);
                    }
                    self.records += 1;
                    return Ok(Some(TraceRecord::PyCall { thread, func, ptrs }));
                }
                other => {
                    return Err(TraceError::Corrupt(format!(
                        "unknown record tag {other:#04x}"
                    )))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming decoder
// ---------------------------------------------------------------------------

/// A resumable record decoder over an append-only byte stream.
///
/// Feed chunks with [`StreamDecoder::feed`] as they arrive and drain
/// complete records with [`StreamDecoder::next_record`]; bytes are
/// released as soon as the record they belong to decodes, so peak
/// residency is the undecoded tail, not the trace. The intern table,
/// record count, and running FNV carry across calls, and end-checksum
/// verification happens exactly where a whole-trace [`Decoder`] would do
/// it — when the `End` record is reached — while the trailing-bytes
/// check is deferred to [`StreamDecoder::finish`] (a window may end
/// before the stream does).
///
/// Error parity with the batch path is a soundness requirement, not a
/// convenience: a stream that fails here fails with the **same**
/// [`TraceError`] a `Decoder::new` + `next_record` loop over the
/// concatenated bytes would produce, in the same record position. Any
/// error is sticky — further feeding is accepted (the running stream
/// totals keep counting for seal verification) but no longer buffered.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// Bytes fed; `buf[start..]` is the undecoded tail. The consumed
    /// prefix is compacted away once per feed (and whenever decoding
    /// stops for more bytes), so each record costs O(record), not
    /// O(tail).
    buf: Vec<u8>,
    start: usize,
    header_done: bool,
    version: u16,
    interns: Vec<String>,
    records: u64,
    /// Running FNV over every *consumed* byte (header included).
    consumed_fnv: u64,
    /// Total bytes consumed (header included).
    consumed: u64,
    finished: bool,
    /// Bytes fed after the `End` record decoded.
    trailing: u64,
    /// Total bytes ever fed (regardless of decode state).
    stream_len: u64,
    /// Running FNV over every byte ever fed.
    stream_fnv: u64,
    failed: Option<TraceError>,
}

impl StreamDecoder {
    /// An empty decoder, waiting for the 6-byte header.
    pub fn new() -> StreamDecoder {
        StreamDecoder {
            consumed_fnv: FNV_OFFSET,
            stream_fnv: FNV_OFFSET,
            ..StreamDecoder::default()
        }
    }

    /// Appends a chunk of the stream. Never fails: decode errors surface
    /// from [`StreamDecoder::next_record`] / [`StreamDecoder::finish`],
    /// and the running totals ([`StreamDecoder::stream_len`],
    /// [`StreamDecoder::stream_fnv`]) count every byte regardless so a
    /// seal declaration can always be verified.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.stream_len += chunk.len() as u64;
        self.stream_fnv = fnv1a_with(self.stream_fnv, chunk);
        if self.failed.is_some() {
            return;
        }
        if self.finished {
            self.trailing += chunk.len() as u64;
            return;
        }
        self.compact();
        self.buf.extend_from_slice(chunk);
    }

    /// Drops the consumed prefix, moving the undecoded tail to the front.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Consumes `len` bytes of the tail into the running totals.
    fn consume(&mut self, len: usize) {
        let end = self.start + len;
        self.consumed_fnv = fnv1a_with(self.consumed_fnv, &self.buf[self.start..end]);
        self.consumed += len as u64;
        self.start = end;
    }

    fn release(&mut self) {
        self.buf = Vec::new();
        self.start = 0;
    }

    fn fail(&mut self, e: TraceError) -> TraceError {
        self.failed = Some(e.clone());
        // Poisoned streams never decode again; release the tail now.
        self.release();
        e
    }

    /// Validates the 6-byte header once enough bytes are buffered.
    /// Returns `Ok(true)` when the header has been consumed.
    fn try_header(&mut self) -> Result<bool, TraceError> {
        if self.header_done {
            return Ok(true);
        }
        let tail = &self.buf[self.start..];
        if tail.len() < 6 {
            return Ok(false);
        }
        if tail[..4] != MAGIC {
            return Err(self.fail(TraceError::BadMagic));
        }
        let version = u16::from_le_bytes([tail[4], tail[5]]);
        if version != FORMAT_VERSION {
            return Err(self.fail(TraceError::UnsupportedVersion(version)));
        }
        self.version = version;
        self.consume(6);
        self.header_done = true;
        Ok(true)
    }

    /// Decodes the next complete record, or `Ok(None)` when more bytes
    /// are needed — or when the validated `End` record has been reached
    /// (disambiguate with [`StreamDecoder::is_finished`]).
    ///
    /// # Errors
    ///
    /// The same [`TraceError`] a whole-trace decode of the concatenated
    /// stream would produce at this position. Errors are sticky.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if self.finished {
            return Ok(None);
        }
        if !self.try_header()? {
            return Ok(None);
        }
        // Resume a window decoder over the undecoded tail. Every
        // `next_record` mutation is append-only (pos advances, interns
        // push, records increments), so a truncated attempt rolls back
        // exactly by restoring the three counters.
        let snap_interns = self.interns.len();
        let snap_records = self.records;
        let mut dec = Decoder {
            bytes: &self.buf[self.start..],
            pos: 0,
            interns: std::mem::take(&mut self.interns),
            version: self.version,
            records: self.records,
            finished: false,
            base_fnv: self.consumed_fnv,
            streaming: true,
        };
        let outcome = dec.next_record();
        let pos = dec.pos;
        let dec_finished = dec.finished;
        self.interns = dec.interns;
        self.records = dec.records;
        match outcome {
            Ok(Some(rec)) => {
                self.consume(pos);
                Ok(Some(rec))
            }
            Ok(None) => {
                debug_assert!(dec_finished, "Ok(None) without End");
                self.finished = true;
                self.consume(pos);
                self.trailing += (self.buf.len() - self.start) as u64;
                self.release();
                Ok(None)
            }
            Err(TraceError::Truncated) => {
                // Mid-record chunk boundary: rewind and wait for more.
                // Intern records consumed before the cut re-decode next
                // time — correctness over elegance.
                self.interns.truncate(snap_interns);
                self.records = snap_records;
                self.compact();
                Ok(None)
            }
            Err(e) => Err(self.fail(e)),
        }
    }

    /// Whether the validated `End` record has been decoded.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Format version from the header (`0` until the header decodes).
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Undecoded tail bytes currently buffered.
    pub fn pending(&self) -> u64 {
        (self.buf.len() - self.start) as u64
    }

    /// Total bytes ever fed.
    pub fn stream_len(&self) -> u64 {
        self.stream_len
    }

    /// Running FNV-1a over every byte ever fed — what a seal declaration
    /// checksums.
    pub fn stream_fnv(&self) -> u64 {
        self.stream_fnv
    }

    /// Records decoded so far (intern definitions included).
    pub fn records_decoded(&self) -> u64 {
        self.records
    }

    /// Final verdict on the stream, for the seal point: drains any
    /// still-decodable records, then reports exactly what a whole-trace
    /// decode of the concatenated bytes would have reported.
    ///
    /// # Errors
    ///
    /// The sticky decode error if one occurred; [`TraceError::Truncated`]
    /// if the stream ended without a validated `End` record (including
    /// a stream shorter than the 6-byte header — batch parity);
    /// [`TraceError::Corrupt`] for bytes trailing the `End` record.
    pub fn finish(&mut self) -> Result<(), TraceError> {
        while self.next_record()?.is_some() {}
        if !self.finished {
            return Err(TraceError::Truncated);
        }
        if self.trailing > 0 {
            return Err(TraceError::Corrupt(format!(
                "{} trailing bytes after end record",
                self.trailing
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips() {
        let mut enc = Encoder::new();
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            enc.varint(v);
        }
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            enc.signed(v);
        }
        enc.end_record(tag::META); // placeholder tag to flush
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes).unwrap();
        // Skip to the record payload by reading the tag by hand.
        assert_eq!(dec.u8().unwrap(), tag::META);
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(dec.varint().unwrap(), v);
        }
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            assert_eq!(dec.signed().unwrap(), v);
        }
    }

    #[test]
    fn zigzag_is_involutive() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn flags_byte_round_trips() {
        for vis in [
            Visibility::Public,
            Visibility::Protected,
            Visibility::Package,
            Visibility::Private,
        ] {
            for is_static in [false, true] {
                for is_final in [false, true] {
                    let f = MemberFlags {
                        visibility: vis,
                        is_static,
                        is_final,
                    };
                    assert_eq!(flags_from_byte(flags_to_byte(f)), f);
                }
            }
        }
    }

    #[test]
    fn truncated_and_corrupt_streams_error() {
        assert!(matches!(Decoder::new(b"JTRC"), Err(TraceError::Truncated)));
        assert!(matches!(
            Decoder::new(b"XXXX\x01\x00"),
            Err(TraceError::BadMagic)
        ));
        assert!(matches!(
            Decoder::new(b"JTRC\x63\x00"),
            Err(TraceError::UnsupportedVersion(0x63))
        ));
        // Valid header, then garbage tag.
        let mut dec = Decoder::new(b"JTRC\x01\x00\x7f").unwrap();
        assert!(matches!(dec.next_record(), Err(TraceError::Corrupt(_))));
        // Valid header, no End.
        let mut dec = Decoder::new(b"JTRC\x01\x00").unwrap();
        assert!(matches!(dec.next_record(), Err(TraceError::Truncated)));
    }

    #[test]
    fn oversized_intern_id_is_corrupt_not_truncated() {
        // A varint above u32::MAX where an intern id belongs: with the old
        // `varint()? as usize` decode, a 32-bit target would wrap this to
        // a small id and silently resolve the wrong string. It must be a
        // corrupt-trace error on every target.
        let mut bytes = b"JTRC\x01\x00".to_vec();
        varint_into(&mut bytes, u64::from(u32::MAX) + 1);
        let mut dec = Decoder::new(&bytes).unwrap();
        match dec.istr() {
            Err(TraceError::Corrupt(msg)) => {
                assert!(msg.contains("out of range"), "unexpected message: {msg}");
            }
            other => panic!("oversized intern id must be Corrupt, got {other:?}"),
        }
        // An in-range id that was never defined stays a dangling-id error.
        let mut bytes = b"JTRC\x01\x00".to_vec();
        varint_into(&mut bytes, 3);
        let mut dec = Decoder::new(&bytes).unwrap();
        match dec.istr() {
            Err(TraceError::Corrupt(msg)) => {
                assert!(msg.contains("dangling intern id 3"), "{msg}");
            }
            other => panic!("dangling intern id must be Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn jni_function_ids_past_the_registry_are_corrupt() {
        let exit = |func: u64| {
            let mut bytes = b"JTRC\x01\x00".to_vec();
            bytes.push(tag::JNI_EXIT);
            varint_into(&mut bytes, 0); // thread
            varint_into(&mut bytes, func);
            bytes.push(0); // CallStatus::Ok
            bytes
        };
        let last = minijni::registry().len() as u64 - 1;
        let bytes = exit(last);
        let mut dec = Decoder::new(&bytes).unwrap();
        assert!(matches!(
            dec.next_record(),
            Ok(Some(TraceRecord::JniExit { .. }))
        ));
        let bytes = exit(last + 1);
        let mut dec = Decoder::new(&bytes).unwrap();
        match dec.next_record() {
            Err(TraceError::Corrupt(msg)) => {
                assert!(msg.contains("unknown JNI function id"), "{msg}");
            }
            other => panic!("a foreign function id must be Corrupt, got {other:?}"),
        }
    }

    /// A small but representative trace: interns, multi-record payloads,
    /// and a proper End record.
    fn sample_trace() -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.istr("program");
        enc.istr("sample");
        enc.end_record(tag::META);
        enc.varint(3);
        enc.end_record(tag::SPAWN_THREAD);
        enc.istr("program");
        enc.istr("sample-again");
        enc.end_record(tag::META);
        enc.istr("pitfall");
        enc.istr("use-after-free");
        enc.end_record(tag::META);
        enc.finish()
    }

    fn batch_decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
        let mut dec = Decoder::new(bytes)?;
        let mut out = Vec::new();
        while let Some(rec) = dec.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }

    fn stream_decode(bytes: &[u8], chunk: usize) -> Result<Vec<TraceRecord>, TraceError> {
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            dec.feed(piece);
            while let Some(rec) = dec.next_record()? {
                out.push(rec);
            }
        }
        dec.finish()?;
        Ok(out)
    }

    #[test]
    fn stream_decoder_matches_batch_at_every_chunk_size() {
        let bytes = sample_trace();
        let batch = batch_decode(&bytes).expect("batch decodes");
        assert!(batch.len() >= 4);
        for chunk in [1, 2, 3, 7, 64, bytes.len()] {
            let streamed = stream_decode(&bytes, chunk).expect("stream decodes");
            assert_eq!(streamed, batch, "chunk size {chunk}");
        }
        // Running totals cover the whole stream.
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes);
        while dec.next_record().unwrap().is_some() {}
        assert!(dec.is_finished());
        assert_eq!(dec.stream_len(), bytes.len() as u64);
        assert_eq!(dec.stream_fnv(), fnv1a(&bytes));
        assert_eq!(dec.pending(), 0, "all bytes released at End");
    }

    #[test]
    fn stream_decoder_releases_bytes_as_records_decode() {
        let bytes = sample_trace();
        let mut dec = StreamDecoder::new();
        let mut high_water = 0u64;
        for piece in bytes.chunks(1) {
            dec.feed(piece);
            while dec.next_record().unwrap().is_some() {}
            high_water = high_water.max(dec.pending());
        }
        dec.finish().unwrap();
        // The tail never holds more than the largest single record.
        assert!(
            high_water < bytes.len() as u64 / 2,
            "pending high water {high_water} of {} total",
            bytes.len()
        );
    }

    #[test]
    fn stream_decoder_error_parity_with_batch() {
        let good = sample_trace();
        // Corrupt tag mid-stream, bit flips, truncations, trailing bytes:
        // the streaming decoder must fail exactly like the batch decoder.
        let mut variants: Vec<Vec<u8>> = Vec::new();
        let mut garbage_tag = good.clone();
        let mid = garbage_tag.len() / 2;
        garbage_tag.truncate(mid);
        garbage_tag.push(0x7f);
        variants.push(garbage_tag);
        for idx in [6, 10, good.len() - 3] {
            let mut flipped = good.clone();
            flipped[idx] ^= 0x40;
            variants.push(flipped);
        }
        for cut in [0, 3, 5, 6, 7, good.len() - 1] {
            variants.push(good[..cut].to_vec());
        }
        let mut trailing = good.clone();
        trailing.extend_from_slice(b"xx");
        variants.push(trailing);
        variants.push(b"XXXX\x01\x00\x02".to_vec());
        variants.push(b"JTRC\x63\x00\x02".to_vec());
        for (i, bytes) in variants.iter().enumerate() {
            let batch = batch_decode(bytes);
            for chunk in [1, 5, bytes.len().max(1)] {
                let streamed = stream_decode(bytes, chunk);
                assert_eq!(streamed, batch, "variant {i}, chunk {chunk}");
            }
        }
    }

    /// A trace past 1 MiB: many small records, each meta value interned
    /// fresh.
    fn large_trace() -> Vec<u8> {
        let mut enc = Encoder::new();
        for i in 0..60_000u32 {
            enc.istr("key");
            enc.istr(&format!("value-{i}"));
            enc.end_record(tag::META);
            enc.varint(u64::from(i % 7));
            enc.end_record(tag::SPAWN_THREAD);
        }
        enc.finish()
    }

    #[test]
    fn one_large_chunk_decodes_like_small_chunks() {
        let good = large_trace();
        assert!(good.len() >= 1 << 20, "trace is {} bytes", good.len());
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x40;
        let truncated = good[..good.len() - 5].to_vec();
        for bytes in [&good, &flipped, &truncated] {
            let totals = |chunk: usize| {
                let mut dec = StreamDecoder::new();
                let mut records = Vec::new();
                let mut error = None;
                for piece in bytes.chunks(chunk) {
                    dec.feed(piece);
                    loop {
                        match dec.next_record() {
                            Ok(Some(rec)) => records.push(rec),
                            Ok(None) => break,
                            Err(e) => {
                                error = Some(e);
                                break;
                            }
                        }
                    }
                }
                let finish = dec.finish();
                (records, error, finish, dec.stream_len(), dec.stream_fnv())
            };
            let whole = totals(bytes.len());
            assert_eq!(whole, totals(2048));
            assert_eq!((whole.3, whole.4), (bytes.len() as u64, fnv1a(bytes)));
        }
    }

    #[test]
    fn stream_decoder_errors_are_sticky_and_release_the_tail() {
        let bytes = b"JTRC\x01\x00\x7f".to_vec(); // header + garbage tag
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes);
        let first = loop {
            match dec.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("must hit the garbage tag"),
                Err(e) => break e,
            }
        };
        assert_eq!(dec.pending(), 0, "poisoned tail released");
        dec.feed(b"more bytes");
        assert_eq!(dec.next_record(), Err(first.clone()));
        assert_eq!(dec.finish(), Err(first));
        // Stream totals keep counting for seal verification.
        assert_eq!(dec.stream_len(), bytes.len() as u64 + 10);
    }

    #[test]
    fn checksum_detects_flips() {
        let mut enc = Encoder::new();
        enc.istr("hello");
        enc.istr("world");
        enc.end_record(tag::META);
        let mut bytes = enc.finish();
        // Decodes clean.
        let mut dec = Decoder::new(&bytes).unwrap();
        assert!(matches!(
            dec.next_record().unwrap(),
            Some(TraceRecord::Meta { .. })
        ));
        assert!(dec.next_record().unwrap().is_none());
        // Flip one payload bit.
        let idx = 10;
        bytes[idx] ^= 1;
        let mut dec = Decoder::new(&bytes).unwrap();
        let mut err = None;
        loop {
            match dec.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(err.is_some(), "bit flip must not decode clean");
    }
}
