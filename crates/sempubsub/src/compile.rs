//! Compiled semantic matching: parse once, evaluate many.
//!
//! The tree-walk evaluator in [`crate::eval`] re-lexes, re-parses, and
//! re-walks a `Box`-heavy AST for every received message, cloning
//! every literal and attribute value it touches. On the datapath —
//! [`crate::bus::BusEndpoint::decide`] per endpoint and buffer, and the
//! broker overlay's forwarding decision per hop — that work dominates
//! per-message CPU, even though senders reuse a handful of identical
//! selector strings per stream.
//!
//! This module compiles a selector into a flat postfix program over
//! interned attribute [`Symbol`]s ([`CompiledSelector`]), snapshots a
//! profile into a symbol-keyed slot table ([`CompiledProfile`]), and
//! keeps compiled programs in one bounded LRU keyed by selector source
//! per [`SelectorStore`]: a program is immutable, so a session compiles
//! each selector string once and every receiver evaluates the same
//! `Arc`ed program against its own snapshot. Evaluation is a loop over
//! `Copy` instructions against a reusable operand stack: no recursion,
//! no `String` hashing, no value clones, and — after the stack's
//! high-water mark is reached — no allocation at all.
//!
//! Semantics are **bit-identical** to the tree walk, including
//! short-circuit behavior (`flag and 3 == 'oops'` must not raise a
//! type error when `flag` is false), missing-attribute falsity, and
//! the exact `SemError::Type` messages. `And`/`Or` therefore compile
//! to conditional jumps rather than plain postfix, so the right-hand
//! side's code (and its potential type errors) is skipped exactly when
//! the tree walk would skip it. The differential proptest
//! `compiled_eval_equals_tree_eval` pins the equivalence over
//! arbitrary expression/profile pairs, error cases included.
//!
//! Most receivers of a session hold the same attributes, so a store
//! also interns each distinct attribute map it snapshots as a *profile
//! class*: a dense id and one shared [`CompiledProfile`]. A program
//! compiled by the store remembers its verdict per class (two bits a
//! class, [`CompiledSelector::eval_profile`]), so a selector is
//! evaluated once per class it meets, not once per receiver.

use crate::ast::{CmpOp, Expr};
use crate::intern::{Interner, Symbol};
use crate::matching::MatchOutcome;
use crate::message::WireMessage;
use crate::profile::Profile;
use crate::value::AttrValue;
use crate::{Selector, SemError};
use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// One instruction of a compiled selector program. Indices are into
/// the owning [`CompiledSelector`]'s constant pool (`Const`) or
/// attribute-reference table (`Attr`, `Exists`); jump targets are
/// absolute program counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Push constant pool entry `i`.
    Const(u32),
    /// Push attribute reference `i` (resolved lazily at consumption,
    /// so a reference that is never consumed costs nothing).
    Attr(u32),
    /// Push whether attribute reference `i` is present.
    Exists(u32),
    /// Pop, coerce to boolean, push the negation.
    Not,
    /// Pop, coerce to boolean, push the boolean. Emitted after the
    /// right-hand side of `and`/`or` so the operand's type is checked
    /// exactly when the tree walk's `eval_bool` would check it.
    ToBool,
    /// Pop right then left, push the comparison result (`false` when
    /// either side is a missing attribute).
    Cmp(CmpOp),
    /// Short-circuit `and`: pop, coerce to boolean; when false, push
    /// `false` and jump to the target, skipping the right-hand side.
    AndJump(u32),
    /// Short-circuit `or`: pop, coerce to boolean; when true, push
    /// `true` and jump to the target.
    OrJump(u32),
}

/// An operand-stack slot. Attribute references stay unresolved until
/// consumed, and every variant is `Copy`, so the stack itself is a
/// plain `Vec` that never touches the heap per evaluation.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Bool(bool),
    Const(u32),
    Attr(u32),
}

/// A reusable operand stack for compiled evaluation. Keep one per
/// endpoint/broker and pass it to every evaluation: the backing buffer
/// persists, so after the first few messages evaluation allocates
/// nothing.
#[derive(Debug, Default)]
pub struct EvalStack(Vec<Slot>);

/// Where attribute references resolve from during one evaluation: a
/// profile snapshot (by symbol), a content map (by name), or any table
/// a caller keys by the symbols of the interner its programs were
/// compiled against (see [`CompiledSelector::eval_source`]).
pub trait AttrSource {
    /// The value of the attribute interned as `sym` and named `name`,
    /// or `None` when it is missing.
    fn get(&self, sym: Symbol, name: &str) -> Option<&AttrValue>;
}

impl AttrSource for CompiledProfile {
    fn get(&self, sym: Symbol, _name: &str) -> Option<&AttrValue> {
        self.slot(sym)
    }
}

impl AttrSource for BTreeMap<String, AttrValue> {
    fn get(&self, _sym: Symbol, name: &str) -> Option<&AttrValue> {
        BTreeMap::get(self, name)
    }
}

/// The identity of one selector store, recorded by every program it
/// compiles and every class it mints: a class id and a program's
/// symbols mean something only against the store that made them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoreId(NonZeroU64);

impl StoreId {
    fn fresh() -> StoreId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        StoreId(NonZeroU64::new(id).expect("store ids do not wrap"))
    }
}

/// Most profile classes one store mints. A snapshot past it is
/// unclassed: evaluated every time, never memoised.
const MAX_CLASSES: usize = 1024;

/// Most encoded attribute bytes one store's classes may hold between
/// them, so a flood of large, never-repeating attribute maps (hostile
/// advertisements, say) cannot pin memory either.
const MAX_CLASS_BYTES: usize = 256 << 10;

/// Verdict bits per class: unknown, false or true.
const VERDICT_BITS: usize = 2;
const VERDICT_FALSE: u64 = 0b01;
const VERDICT_TRUE: u64 = 0b10;

/// Classes per verdict chunk: four words of bits.
const CHUNK_CLASSES: usize = 128;

/// A program's memo of its verdict per profile class of its store,
/// [`VERDICT_BITS`] a class, in a chain of chunks of [`CHUNK_CLASSES`]
/// classes each. A chunk is allocated when the program first decides
/// a class in it, so a program that is only ever evaluated some other
/// way (a policy condition) carries one empty cell, and one deciding
/// a few dozen classes 48 bytes. The bits are atomics because a
/// program is shared wherever its store's handle goes: two deciders of
/// one class compute the same verdict and set the same bits, and the
/// bits publish no other data, so relaxed ordering suffices. The memo
/// plays no part in whether two programs are equal.
#[derive(Debug, Default)]
struct Verdicts(OnceLock<Box<VerdictChunk>>);

#[derive(Debug, Default)]
struct VerdictChunk {
    words: [AtomicU64; CHUNK_CLASSES * VERDICT_BITS / 64],
    next: Verdicts,
}

impl Verdicts {
    /// The word holding class `id`'s verdict, and the bit it starts at.
    fn word(&self, id: u32) -> (&AtomicU64, usize) {
        let mut chunk = self.0.get_or_init(Box::default);
        for _ in 0..id as usize / CHUNK_CLASSES {
            chunk = chunk.next.0.get_or_init(Box::default);
        }
        let at = id as usize % CHUNK_CLASSES * VERDICT_BITS;
        (&chunk.words[at / 64], at % 64)
    }
}

impl PartialEq for Verdicts {
    fn eq(&self, _: &Verdicts) -> bool {
        true
    }
}

/// A selector compiled to a flat program over interned attributes.
///
/// Constant operands are materialized into the pool once at compile
/// time (the tree walk clones each literal on every evaluation);
/// attribute references carry both their [`Symbol`] (for slot-table
/// evaluation against a [`CompiledProfile`]) and their name (for
/// evaluation against an arbitrary content map). A program compiled
/// by a store also remembers its verdict for each profile class of
/// that store it has been evaluated against.
#[derive(Debug, PartialEq)]
pub struct CompiledSelector {
    source: Box<str>,
    consts: Vec<AttrValue>,
    refs: Vec<(Symbol, String)>,
    prog: Vec<Instr>,
    store: Option<StoreId>,
    verdicts: Verdicts,
}

impl CompiledSelector {
    /// Compile `expr` (with its original `source` text) against an
    /// interner.
    pub fn from_expr(source: &str, expr: &Expr, interner: &mut Interner) -> CompiledSelector {
        let mut c = CompiledSelector {
            source: source.into(),
            consts: Vec::new(),
            refs: Vec::new(),
            prog: Vec::new(),
            store: None,
            verdicts: Verdicts::default(),
        };
        let mut ref_ids: HashMap<String, u32> = HashMap::new();
        c.emit(expr, &mut ref_ids, interner);
        c
    }

    /// Parse and compile selector text.
    pub fn compile(source: &str, interner: &mut Interner) -> Result<CompiledSelector, SemError> {
        let sel = Selector::parse(source)?;
        Ok(CompiledSelector::from_expr(source, sel.expr(), interner))
    }

    /// The original selector text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The attributes the program reads, each with its symbol, in
    /// order of first reference.
    pub fn attributes(&self) -> impl Iterator<Item = (Symbol, &str)> + '_ {
        self.refs.iter().map(|(sym, name)| (*sym, name.as_str()))
    }

    /// The compiled program (exposed so tests can assert that a
    /// recompilation after cache eviction yields identical code).
    pub fn program(&self) -> &[Instr] {
        &self.prog
    }

    fn attr_ref(
        &mut self,
        name: &str,
        ref_ids: &mut HashMap<String, u32>,
        interner: &mut Interner,
    ) -> u32 {
        if let Some(&i) = ref_ids.get(name) {
            return i;
        }
        let i = self.refs.len() as u32;
        self.refs.push((interner.intern(name), name.to_string()));
        ref_ids.insert(name.to_string(), i);
        i
    }

    fn emit(&mut self, expr: &Expr, ref_ids: &mut HashMap<String, u32>, interner: &mut Interner) {
        match expr {
            Expr::Literal(v) => {
                let i = self.consts.len() as u32;
                self.consts.push(v.clone());
                self.prog.push(Instr::Const(i));
            }
            Expr::Attr(name) => {
                let i = self.attr_ref(name, ref_ids, interner);
                self.prog.push(Instr::Attr(i));
            }
            Expr::Exists(name) => {
                let i = self.attr_ref(name, ref_ids, interner);
                self.prog.push(Instr::Exists(i));
            }
            Expr::Not(inner) => {
                self.emit(inner, ref_ids, interner);
                self.prog.push(Instr::Not);
            }
            Expr::And(a, b) => {
                self.emit(a, ref_ids, interner);
                let jump = self.prog.len();
                self.prog.push(Instr::AndJump(0));
                self.emit(b, ref_ids, interner);
                self.prog.push(Instr::ToBool);
                let target = self.prog.len() as u32;
                self.prog[jump] = Instr::AndJump(target);
            }
            Expr::Or(a, b) => {
                self.emit(a, ref_ids, interner);
                let jump = self.prog.len();
                self.prog.push(Instr::OrJump(0));
                self.emit(b, ref_ids, interner);
                self.prog.push(Instr::ToBool);
                let target = self.prog.len() as u32;
                self.prog[jump] = Instr::OrJump(target);
            }
            Expr::Cmp(op, a, b) => {
                self.emit(a, ref_ids, interner);
                self.emit(b, ref_ids, interner);
                self.prog.push(Instr::Cmp(*op));
            }
        }
    }

    /// Evaluate against a profile snapshot (symbol-indexed lookups).
    /// Against a class of the store that compiled this program the
    /// verdict is read from the program's memo; only the first
    /// evaluation per class runs the program, and only a verdict is
    /// memoised, never an error. Any other snapshot is evaluated.
    pub fn eval_profile(
        &self,
        profile: &CompiledProfile,
        stack: &mut EvalStack,
    ) -> Result<bool, SemError> {
        let Some(class) = profile.class.filter(|c| Some(c.store) == self.store) else {
            return self.eval(profile, stack);
        };
        let (word, shift) = self.verdicts.word(class.id);
        match word.load(Ordering::Relaxed) >> shift & 0b11 {
            VERDICT_FALSE => return Ok(false),
            VERDICT_TRUE => return Ok(true),
            _ => {}
        }
        let verdict = self.eval(profile, stack)?;
        let bits = if verdict { VERDICT_TRUE } else { VERDICT_FALSE };
        word.fetch_or(bits << shift, Ordering::Relaxed);
        Ok(verdict)
    }

    /// Evaluate against an arbitrary attribute map, e.g. a message's
    /// content description (name-keyed lookups; everything else —
    /// cached parse, flat program, reusable stack — is shared with the
    /// profile path).
    pub fn eval_map(
        &self,
        attrs: &BTreeMap<String, AttrValue>,
        stack: &mut EvalStack,
    ) -> Result<bool, SemError> {
        self.eval(attrs, stack)
    }

    /// Evaluate against any [`AttrSource`] — the same program, stack
    /// and semantics as [`Self::eval_profile`] and [`Self::eval_map`].
    pub fn eval_source<S: AttrSource>(
        &self,
        src: &S,
        stack: &mut EvalStack,
    ) -> Result<bool, SemError> {
        self.eval(src, stack)
    }

    fn resolve<'a, S: AttrSource>(&'a self, src: &'a S, slot: Slot) -> Option<ResolvedRef<'a>> {
        match slot {
            Slot::Bool(b) => Some(ResolvedRef::Bool(b)),
            Slot::Const(i) => Some(ResolvedRef::Val(&self.consts[i as usize])),
            Slot::Attr(i) => {
                let (sym, name) = &self.refs[i as usize];
                src.get(*sym, name).map(ResolvedRef::Val)
            }
        }
    }

    /// Coerce a popped slot to a boolean, with the tree walk's exact
    /// semantics: missing attributes are `false`, non-boolean values
    /// are a type error with the same message `eval_bool` produces.
    fn to_bool<S: AttrSource>(&self, src: &S, slot: Slot) -> Result<bool, SemError> {
        match self.resolve(src, slot) {
            None => Ok(false),
            Some(ResolvedRef::Bool(b)) => Ok(b),
            Some(ResolvedRef::Val(AttrValue::Bool(b))) => Ok(*b),
            Some(ResolvedRef::Val(v)) => Err(SemError::Type(format!("expected boolean, got {v}"))),
        }
    }

    fn eval<S: AttrSource>(&self, src: &S, stack: &mut EvalStack) -> Result<bool, SemError> {
        #[cfg(test)]
        EVALS.with(|n| n.set(n.get() + 1));
        let stack = &mut stack.0;
        stack.clear();
        let mut pc = 0usize;
        while pc < self.prog.len() {
            match self.prog[pc] {
                Instr::Const(i) => stack.push(Slot::Const(i)),
                Instr::Attr(i) => stack.push(Slot::Attr(i)),
                Instr::Exists(i) => {
                    let (sym, name) = &self.refs[i as usize];
                    stack.push(Slot::Bool(src.get(*sym, name).is_some()));
                }
                Instr::Not => {
                    let b = self.to_bool(src, stack.pop().expect("operand"))?;
                    stack.push(Slot::Bool(!b));
                }
                Instr::ToBool => {
                    let b = self.to_bool(src, stack.pop().expect("operand"))?;
                    stack.push(Slot::Bool(b));
                }
                Instr::AndJump(target) => {
                    let b = self.to_bool(src, stack.pop().expect("operand"))?;
                    if !b {
                        stack.push(Slot::Bool(false));
                        pc = target as usize;
                        continue;
                    }
                }
                Instr::OrJump(target) => {
                    let b = self.to_bool(src, stack.pop().expect("operand"))?;
                    if b {
                        stack.push(Slot::Bool(true));
                        pc = target as usize;
                        continue;
                    }
                }
                Instr::Cmp(op) => {
                    let right = stack.pop().expect("right operand");
                    let left = stack.pop().expect("left operand");
                    let result = match (self.resolve(src, left), self.resolve(src, right)) {
                        (Some(l), Some(r)) => {
                            let (lt, rt);
                            let lv = match l {
                                ResolvedRef::Val(v) => v,
                                ResolvedRef::Bool(b) => {
                                    lt = AttrValue::Bool(b);
                                    &lt
                                }
                            };
                            let rv = match r {
                                ResolvedRef::Val(v) => v,
                                ResolvedRef::Bool(b) => {
                                    rt = AttrValue::Bool(b);
                                    &rt
                                }
                            };
                            crate::eval::compare(op, lv, rv)
                        }
                        // A missing attribute on either side compares
                        // false, exactly as the tree walk's
                        // `Operand::Missing` arm does.
                        _ => false,
                    };
                    stack.push(Slot::Bool(result));
                }
            }
            pc += 1;
        }
        let top = stack.pop().expect("program leaves one result");
        debug_assert!(stack.is_empty(), "balanced program");
        self.to_bool(src, top)
    }
}

#[cfg(test)]
thread_local! {
    /// Programs run on this thread: what the verdict memo saves.
    pub(crate) static EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A resolved operand: a borrowed value or a computed boolean.
enum ResolvedRef<'a> {
    Val(&'a AttrValue),
    Bool(bool),
}

/// A snapshot of a profile's attribute map, keyed by [`Symbol`] and
/// sorted by it. Evaluation finds an attribute by comparing integers
/// instead of walking a `BTreeMap<String, _>`.
///
/// The table holds the profile's own attributes and nothing else, so
/// its size is O(profile) however large the interner it was taken
/// against has grown: with one interner per session, a stream minting
/// fresh attribute names must not inflate every client's snapshot.
///
/// A snapshot a [`SelectorStore`] took is usually a *class*: the one
/// snapshot the store shares among every holder of exactly these
/// attributes, carrying the dense id programs index their verdicts by.
#[derive(Debug, Clone)]
pub struct CompiledProfile {
    slots: Vec<(Symbol, AttrValue)>,
    class: Option<ClassId>,
}

/// A profile class: the store that minted it and its dense id there.
#[derive(Debug, Clone, Copy)]
struct ClassId {
    store: StoreId,
    id: u32,
}

impl CompiledProfile {
    /// Snapshot `profile` against `interner`, interning every
    /// attribute key so symbols minted later by selector compilation
    /// resolve against this table (an unknown symbol is simply not in
    /// the table and reads as missing).
    pub fn snapshot(profile: &Profile, interner: &mut Interner) -> CompiledProfile {
        CompiledProfile::of_attrs(profile.attrs(), interner)
    }

    fn of_attrs(attrs: &BTreeMap<String, AttrValue>, interner: &mut Interner) -> CompiledProfile {
        let mut slots: Vec<(Symbol, AttrValue)> = attrs
            .iter()
            .map(|(k, v)| (interner.intern(k), v.clone()))
            .collect();
        slots.sort_unstable_by_key(|(sym, _)| *sym);
        CompiledProfile { slots, class: None }
    }

    fn slot(&self, sym: Symbol) -> Option<&AttrValue> {
        self.slots
            .binary_search_by_key(&sym, |(s, _)| *s)
            .ok()
            .map(|i| &self.slots[i].1)
    }
}

/// Live hit / miss / eviction counters of a bounded cache, shareable
/// with SNMP instrumentation: a selector store's, and the encode
/// table's of the session's media store (`cqos_core::apps::MediaStore`),
/// which bumps its own through the `record_*` methods.
#[derive(Clone, Default, Debug)]
pub struct CacheStatsHandle {
    inner: Arc<CacheCounters>,
}

#[derive(Default, Debug)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheStatsHandle {
    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to do the work — for selectors, lex, parse, and
    /// compile (including selector strings that failed to parse).
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay within the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// Count one hit.
    pub fn record_hit(&self) {
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one miss.
    pub fn record_miss(&self) {
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one eviction.
    pub fn record_eviction(&self) {
        self.inner.evictions.fetch_add(1, Ordering::Relaxed);
    }
}

/// "No entry" in the recency list.
const NIL: u32 = u32::MAX;

/// One cached program, threaded on the recency list (`prev` is toward
/// the most recently used end).
struct CacheEntry {
    compiled: Arc<CompiledSelector>,
    prev: u32,
    next: u32,
}

/// The table behind a [`SelectorStore`]'s lock: a bounded, strict-LRU
/// map from selector source to compiled program, the one [`Interner`]
/// every program and snapshot of the store interns through, and the
/// store's profile classes. Eviction never invalidates symbols (the
/// interner only grows), so a re-inserted selector recompiles to an
/// identical program (with an empty verdict memo).
///
/// A hit is one map probe and a relink; a miss on a full table evicts
/// the list's tail — O(1), so a never-repeating selector stream pays
/// for its compilations, not for the capacity it is bounded by.
///
/// The profile classes are grow-only like the interner, so a class id,
/// like a symbol, never changes meaning; they are bounded in count and
/// in bytes.
struct Table {
    id: StoreId,
    interner: Interner,
    /// Source text -> index into `entries`.
    index: HashMap<String, u32>,
    entries: Vec<CacheEntry>,
    /// Most / least recently used entry.
    head: u32,
    tail: u32,
    cap: usize,
    stats: CacheStatsHandle,
    classes: Classes,
}

/// The profile classes of one store.
#[derive(Default)]
struct Classes {
    /// A class's attribute map in the `SEM1` content encoding (floats
    /// by their bits), to its id.
    index: HashMap<Box<[u8]>, u32>,
    /// Each class's shared snapshot, by id.
    snaps: Vec<Arc<CompiledProfile>>,
    /// The keys' bytes between them.
    bytes: usize,
    /// Where a lookup encodes its key, kept between lookups.
    key: Vec<u8>,
}

impl Table {
    fn unlink(&mut self, i: u32) {
        let CacheEntry { prev, next, .. } = self.entries[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old = self.head;
        let e = &mut self.entries[i as usize];
        e.prev = NIL;
        e.next = old;
        match old {
            NIL => self.tail = i,
            h => self.entries[h as usize].prev = i,
        }
        self.head = i;
    }

    fn compile(&mut self, src: &str) -> Result<Arc<CompiledSelector>, SemError> {
        if let Some(&i) = self.index.get(src) {
            self.stats.record_hit();
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return Ok(Arc::clone(&self.entries[i as usize].compiled));
        }
        self.stats.record_miss();
        let mut compiled = CompiledSelector::compile(src, &mut self.interner)?;
        compiled.store = Some(self.id);
        let compiled = Arc::new(compiled);
        let i = if self.entries.len() >= self.cap {
            // Evict the least recently used entry and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            let old = std::mem::replace(
                &mut self.entries[victim as usize].compiled,
                Arc::clone(&compiled),
            );
            self.index.remove(old.source());
            self.stats.record_eviction();
            victim
        } else {
            self.entries.push(CacheEntry {
                compiled: Arc::clone(&compiled),
                prev: NIL,
                next: NIL,
            });
            (self.entries.len() - 1) as u32
        };
        self.push_front(i);
        self.index.insert(src.to_string(), i);
        Ok(compiled)
    }

    /// The class of `attrs`: the one snapshot this store shares among
    /// every holder of exactly these attributes, minted on first sight.
    /// `None` when they cannot be classed — they do not encode, or a
    /// new class would take the store past [`MAX_CLASSES`] or
    /// [`MAX_CLASS_BYTES`].
    fn class_of(&mut self, attrs: &BTreeMap<String, AttrValue>) -> Option<Arc<CompiledProfile>> {
        let classes = &mut self.classes;
        classes.key.clear();
        crate::message::encode_content(attrs, &mut classes.key).ok()?;
        if let Some(&id) = classes.index.get(classes.key.as_slice()) {
            return Some(Arc::clone(&classes.snaps[id as usize]));
        }
        if classes.snaps.len() >= MAX_CLASSES || classes.bytes + classes.key.len() > MAX_CLASS_BYTES
        {
            return None;
        }
        let id = classes.snaps.len() as u32;
        let mut snap = CompiledProfile::of_attrs(attrs, &mut self.interner);
        snap.class = Some(ClassId { store: self.id, id });
        let snap = Arc::new(snap);
        classes.bytes += classes.key.len();
        classes.index.insert(classes.key.as_slice().into(), id);
        classes.snaps.push(Arc::clone(&snap));
        Some(snap)
    }
}

/// A cloneable handle to one bounded selector table: the *selector
/// store* every party of a session compiles through, so a selector
/// string is compiled once per session and its program shared, not once
/// per endpoint that receives it. A party on its own (a standalone
/// endpoint, a broker) holds a store nobody else has a handle to — same
/// code, private contents. Programs are handed out as `Arc`s, so an
/// evicted program stays valid for whoever still holds it.
///
/// The lock guards the LRU, the interner and the profile classes only;
/// evaluation runs on the `Arc`ed program after it is released. The
/// store is `Send + Sync` because a message buffer's memo carries its
/// programs, and a test decides one store's frames from several threads.
#[derive(Clone)]
pub struct SelectorStore {
    table: Arc<Mutex<Table>>,
}

impl SelectorStore {
    /// A store bounded at `cap` compiled selectors (`cap >= 1`).
    pub fn with_capacity(cap: usize) -> SelectorStore {
        SelectorStore::with_interner(cap, Interner::new())
    }

    /// A store bounded at `cap` compiled selectors (`cap >= 1`) whose
    /// programs intern their attributes through `interner`, so names it
    /// already holds keep the symbols it gave them.
    pub fn with_interner(cap: usize, interner: Interner) -> SelectorStore {
        assert!(cap >= 1, "selector store needs room for one entry");
        assert!(cap < NIL as usize, "selector store capacity out of range");
        let table = Table {
            id: StoreId::fresh(),
            interner,
            index: HashMap::new(),
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
            cap,
            stats: CacheStatsHandle::default(),
            classes: Classes::default(),
        };
        SelectorStore {
            table: Arc::new(Mutex::new(table)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table
            .lock()
            .expect("selector store poisoned: a holder panicked mid-compile")
    }

    /// Compile `src`, reusing the stored program when present. Parse
    /// errors propagate (and count as misses — the work was done).
    pub fn compile(&self, src: &str) -> Result<Arc<CompiledSelector>, SemError> {
        self.lock().compile(src)
    }

    /// The stored program of `src`, if any, without touching the LRU
    /// order or the counters.
    pub fn peek(&self, src: &str) -> Option<Arc<CompiledSelector>> {
        let table = self.lock();
        let &i = table.index.get(src)?;
        Some(Arc::clone(&table.entries[i as usize].compiled))
    }

    /// Snapshot `profile` (attributes and compiled interest) against
    /// the store's interner: its attributes as their class, or as a
    /// snapshot of its own past the class bounds.
    pub(crate) fn snapshot(&self, profile: &Profile) -> ProfileSnap {
        let mut table = self.lock();
        let slots = table
            .class_of(profile.attrs())
            .unwrap_or_else(|| Arc::new(CompiledProfile::snapshot(profile, &mut table.interner)));
        let interner = &mut table.interner;
        ProfileSnap {
            version: profile.version,
            slots,
            interest: profile
                .interest()
                .map(|sel| CompiledSelector::from_expr(sel.source(), sel.expr(), interner)),
        }
    }

    /// The class snapshot of an attribute map — shared with every other
    /// holder of exactly these attributes, programs compiled by this
    /// store remembering their verdict for it — or `None` past the
    /// class bounds, where the caller evaluates the map itself.
    pub fn class_of(&self, attrs: &BTreeMap<String, AttrValue>) -> Option<Arc<CompiledProfile>> {
        self.lock().class_of(attrs)
    }

    /// How many profile classes the store has minted, and their
    /// encoded bytes between them.
    pub fn classes(&self) -> (usize, usize) {
        let table = self.lock();
        (table.classes.snaps.len(), table.classes.bytes)
    }

    /// Whether `other` is a handle to this very store. A program is
    /// valid only against the interner of the store that compiled it,
    /// so shared programs are handed to holders of the same store only.
    pub fn ptr_eq(&self, other: &SelectorStore) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// Number of compiled programs the store holds.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when the store holds no program.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live counters handle (hits / misses / evictions).
    pub fn stats(&self) -> CacheStatsHandle {
        self.lock().stats.clone()
    }
}

/// What an interpreting party keeps of one profile: the attribute
/// snapshot (its class, usually, shared with every other holder of the
/// same attributes) and its own compiled interest, stamped with the
/// profile version they were taken at. Every profile mutation bumps the
/// version from a process-wide generation counter, so a wholesale
/// profile replacement can never alias a stale snapshot.
pub(crate) struct ProfileSnap {
    version: u64,
    slots: Arc<CompiledProfile>,
    interest: Option<CompiledSelector>,
}

impl ProfileSnap {
    /// Whether the snapshot still describes `profile`.
    pub(crate) fn is_fresh(&self, profile: &Profile) -> bool {
        self.version == profile.version
    }
}

/// The compiled counterpart of [`crate::matching::interpret`], and the
/// one decision function behind [`MatchEngine::interpret`] and
/// [`crate::bus::BusEndpoint`]: selector program against the profile
/// snapshot (a lookup in the program's verdict memo once the snapshot's
/// class has been decided), then the compiled interest against the
/// content description, then (rarely) the shared transform-chain
/// search.
/// Returns what the tree-walk `interpret` returns — bit-identical
/// outcomes and errors. `snap` must be a fresh snapshot of `profile`.
/// The content description is asked for only once the selector has
/// accepted and an interest needs it, so a received message builds
/// its map only then ([`WireMessage::content`]).
pub(crate) fn interpret_compiled<'c>(
    profile: &Profile,
    snap: &ProfileSnap,
    selector: &CompiledSelector,
    content: impl FnOnce() -> &'c BTreeMap<String, AttrValue>,
    stack: &mut EvalStack,
) -> Result<MatchOutcome, SemError> {
    debug_assert!(snap.is_fresh(profile), "stale profile snapshot");
    // Step 1: are we addressed at all?
    if !selector.eval_profile(&snap.slots, stack)? {
        return Ok(MatchOutcome::Reject);
    }
    // No interest declared: everything addressed to us is accepted.
    let Some(interest) = &snap.interest else {
        return Ok(MatchOutcome::Accept);
    };
    // Step 2: direct interest match.
    let content = content();
    if interest.eval_map(content, stack)? {
        return Ok(MatchOutcome::Accept);
    }
    // Step 3: cheapest transform chain — the cold path; shared
    // verbatim with the tree-walk interpreter.
    if profile.transforms().is_empty() {
        return Ok(MatchOutcome::Reject);
    }
    let goal = |attrs: &BTreeMap<String, AttrValue>| interest.eval_map(attrs, stack);
    Ok(
        match crate::matching::search_chain(profile, content, goal)? {
            Some(steps) => MatchOutcome::AcceptWithTransform(steps),
            None => MatchOutcome::Reject,
        },
    )
}

/// The compiled matching pipeline of a party that interprets on behalf
/// of *several* profiles (the base station for its wireless clients): a
/// selector store, per-profile snapshots (keyed by profile name,
/// invalidated by [`Profile::version`]), and a reusable evaluation
/// stack. A [`crate::bus::BusEndpoint`] serves exactly one profile and
/// keeps its one snapshot itself.
pub struct MatchEngine {
    store: SelectorStore,
    profiles: HashMap<String, ProfileSnap>,
    stack: EvalStack,
}

/// Default bound on cached selectors for a party with a store of its
/// own; one party sees a handful of distinct selector strings per
/// sender, so this is generous while still bounding a hostile selector
/// stream.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

impl Default for MatchEngine {
    fn default() -> Self {
        MatchEngine::new()
    }
}

impl MatchEngine {
    /// An engine with a store of its own at the default capacity.
    pub fn new() -> MatchEngine {
        MatchEngine::with_store(SelectorStore::with_capacity(DEFAULT_CACHE_CAPACITY))
    }

    /// An engine compiling through `store`, shared with whoever else
    /// holds a handle to it.
    pub fn with_store(store: SelectorStore) -> MatchEngine {
        MatchEngine {
            store,
            profiles: HashMap::new(),
            stack: EvalStack::default(),
        }
    }

    /// Compile (or re-touch) a selector, warming the store. The
    /// publish path calls this for validation so the interpret path
    /// hits a warm entry.
    pub fn compile(&mut self, selector: &str) -> Result<(), SemError> {
        self.store.compile(selector).map(|_| ())
    }

    /// Interpret a message (selector + content description) at
    /// `profile`. The outer `Err` is a selector parse failure; the
    /// inner result is what the tree-walk `interpret` returns.
    pub fn interpret(
        &mut self,
        profile: &Profile,
        selector: &str,
        content: &BTreeMap<String, AttrValue>,
    ) -> Result<Result<MatchOutcome, SemError>, SemError> {
        let program = self.store.compile(selector)?;
        Ok(self.interpret_with(profile, &program, || content))
    }

    /// [`MatchEngine::interpret`] of a received `message` whose selector
    /// is already compiled — *through this engine's store* (a shared
    /// [`crate::bus::Frame`]'s program, say). The message's content
    /// description is read only if an interest needs it.
    pub fn interpret_program(
        &mut self,
        profile: &Profile,
        program: &CompiledSelector,
        message: &WireMessage,
    ) -> Result<MatchOutcome, SemError> {
        self.interpret_with(profile, program, || message.content())
    }

    /// The compiled decision for `profile`, snapshotting it first if it
    /// is new or has changed.
    fn interpret_with<'c>(
        &mut self,
        profile: &Profile,
        program: &CompiledSelector,
        content: impl FnOnce() -> &'c BTreeMap<String, AttrValue>,
    ) -> Result<MatchOutcome, SemError> {
        if !self
            .profiles
            .get(&profile.name)
            .is_some_and(|s| s.is_fresh(profile))
        {
            self.profiles
                .insert(profile.name.clone(), self.store.snapshot(profile));
        }
        let snap = self.profiles.get(&profile.name).expect("refreshed above");
        interpret_compiled(profile, snap, program, content, &mut self.stack)
    }

    /// Drop the snapshot held for the profile named `name` — for a
    /// party whose profiles come and go (the base station when a
    /// wireless client leaves), so snapshots are held for live profiles
    /// only.
    pub fn forget(&mut self, name: &str) {
        self.profiles.remove(name);
    }

    /// Number of profiles a snapshot is currently held for.
    pub fn snapshots(&self) -> usize {
        self.profiles.len()
    }

    /// Live store counters (hits / misses / evictions), shareable with
    /// an SNMP extension agent.
    pub fn cache_stats(&self) -> CacheStatsHandle {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TransformCap;

    fn attrs(pairs: &[(&str, AttrValue)]) -> BTreeMap<String, AttrValue> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn both(
        sel: &str,
        a: &BTreeMap<String, AttrValue>,
    ) -> (Result<bool, SemError>, Result<bool, SemError>) {
        let tree = Selector::parse(sel).unwrap().matches(a);
        let mut interner = Interner::new();
        let compiled = CompiledSelector::compile(sel, &mut interner).unwrap();
        let mut stack = EvalStack::default();
        (tree, compiled.eval_map(a, &mut stack))
    }

    #[test]
    fn compiled_matches_tree_on_basics() {
        let a = attrs(&[
            ("media", AttrValue::str("video")),
            ("size_mb", AttrValue::Float(1.0)),
            ("color", AttrValue::Bool(true)),
            (
                "supported",
                AttrValue::List(vec![AttrValue::str("jpeg"), AttrValue::str("mpeg2")]),
            ),
        ]);
        for sel in [
            "media == 'video'",
            "size_mb <= 1",
            "size_mb >= 0.5 and size_mb < 2",
            "media != 'video'",
            "color",
            "not color",
            "encoding == 'jpeg'",
            "not (encoding == 'jpeg')",
            "exists(encoding)",
            "not exists(encoding)",
            "supported contains 'jpeg'",
            "media in ['video', 'audio']",
            "media == 'audio' or color",
            "true",
            "false or (color and media == 'video')",
        ] {
            let (tree, compiled) = both(sel, &a);
            assert_eq!(tree, compiled, "selector {sel}");
        }
    }

    #[test]
    fn compiled_matches_tree_on_errors_and_short_circuit() {
        let a = attrs(&[
            ("name", AttrValue::str("x")),
            ("flag", AttrValue::Bool(false)),
        ]);
        for sel in [
            "name and true",        // type error from the left side
            "not name",             // type error inside not
            "flag and 3 == 'oops'", // short-circuit: no error
            "flag or name",         // error from the right side of or
            "3",                    // bare non-boolean literal
        ] {
            let (tree, compiled) = both(sel, &a);
            assert_eq!(tree, compiled, "selector {sel}");
        }
    }

    #[test]
    fn profile_snapshot_evaluation_matches_map_evaluation() {
        let mut p = Profile::new("c");
        p.set("media", AttrValue::str("video"));
        p.set("size_mb", AttrValue::Float(1.5));
        let store = SelectorStore::with_capacity(8);
        let snap = CompiledProfile::snapshot(&p, &mut store.lock().interner);
        let mut stack = EvalStack::default();
        for sel in [
            "media == 'video' and size_mb < 2",
            "exists(color)",
            "missing == 1",
        ] {
            let compiled = store.compile(sel).unwrap();
            assert_eq!(
                compiled.eval_profile(&snap, &mut stack),
                compiled.eval_map(p.attrs(), &mut stack),
                "selector {sel}"
            );
        }
    }

    fn evals_during(f: impl FnOnce()) -> u64 {
        let before = EVALS.with(|n| n.get());
        f();
        EVALS.with(|n| n.get()) - before
    }

    fn topic_attrs(topic: &str) -> BTreeMap<String, AttrValue> {
        attrs(&[("topics", AttrValue::List(vec![AttrValue::str(topic)]))])
    }

    /// Policy conditions are programs too: the memo may cost a program
    /// no more than 16 bytes inline.
    #[test]
    fn the_verdict_memo_costs_a_program_sixteen_bytes_at_most() {
        assert!(std::mem::size_of::<CompiledSelector>() <= 4 * 24 + 16);
    }

    #[test]
    fn a_class_is_decided_once_and_its_verdict_remembered() {
        let store = SelectorStore::with_capacity(8);
        let program = store.compile("topics contains 't1'").unwrap();
        let (yes, no) = (topic_attrs("t1"), topic_attrs("t2"));
        let class = |a| store.class_of(a).unwrap();
        assert!(
            Arc::ptr_eq(&class(&yes), &class(&yes)),
            "one snapshot per class"
        );
        assert_eq!(store.classes().0, 1);
        let mut stack = EvalStack::default();
        let runs = evals_during(|| {
            for _ in 0..5 {
                assert_eq!(program.eval_profile(&class(&yes), &mut stack), Ok(true));
                assert_eq!(program.eval_profile(&class(&no), &mut stack), Ok(false));
            }
        });
        assert_eq!(runs, 2, "once per class");
        // A snapshot no store classed is evaluated every time.
        let mut p = Profile::new("p");
        p.set("topics", AttrValue::List(vec![AttrValue::str("t1")]));
        let own = CompiledProfile::snapshot(&p, &mut store.lock().interner);
        let runs = evals_during(|| {
            for _ in 0..3 {
                assert_eq!(program.eval_profile(&own, &mut stack), Ok(true));
            }
        });
        assert_eq!(runs, 3);
    }

    /// Classes past the first chunk of verdicts are remembered too,
    /// each in its own bits.
    #[test]
    fn verdicts_chain_past_the_first_chunk() {
        let store = SelectorStore::with_capacity(8);
        let program = store.compile("topics contains 't300'").unwrap();
        let classes: Vec<_> = (0..3 * CHUNK_CLASSES)
            .map(|i| store.class_of(&topic_attrs(&format!("t{i}"))).unwrap())
            .collect();
        let mut stack = EvalStack::default();
        let runs = evals_during(|| {
            for _ in 0..2 {
                for (i, class) in classes.iter().enumerate().rev() {
                    assert_eq!(
                        program.eval_profile(class, &mut stack),
                        Ok(i == 300),
                        "t{i}"
                    );
                }
            }
        });
        assert_eq!(runs, 3 * CHUNK_CLASSES as u64);
    }

    /// An error is never memoised: the same class raises the same
    /// error, by running the program, every time.
    #[test]
    fn an_evaluation_error_is_not_remembered() {
        let store = SelectorStore::with_capacity(8);
        let program = store.compile("name and true").unwrap();
        let class = store
            .class_of(&attrs(&[("name", AttrValue::str("x"))]))
            .unwrap();
        let mut stack = EvalStack::default();
        let expected = Err(SemError::Type("expected boolean, got 'x'".to_string()));
        let runs = evals_during(|| {
            for _ in 0..3 {
                assert_eq!(program.eval_profile(&class, &mut stack), expected);
            }
        });
        assert_eq!(runs, 3);
    }

    /// A class id means something only in the store that minted it: a
    /// program meeting another store's class evaluates without its memo.
    #[test]
    fn another_stores_class_is_evaluated_not_looked_up() {
        let (a, b) = (
            SelectorStore::with_capacity(8),
            SelectorStore::with_capacity(8),
        );
        let program = a.compile("topics contains 't1'").unwrap();
        b.compile("topics contains 't1'").unwrap(); // same symbols
        let foreign = b.class_of(&topic_attrs("t1")).unwrap();
        let mut stack = EvalStack::default();
        let runs = evals_during(|| {
            for _ in 0..3 {
                assert_eq!(program.eval_profile(&foreign, &mut stack), Ok(true));
            }
        });
        assert_eq!(runs, 3);
        assert!(program.verdicts.0.get().is_none(), "no memo was allocated");
    }

    /// Floats key their class by their bits, so attribute maps that
    /// compare equal but encode apart are two classes, never one.
    #[test]
    fn classes_are_keyed_by_exact_encoding() {
        let store = SelectorStore::with_capacity(8);
        let zero = store
            .class_of(&attrs(&[("x", AttrValue::Float(0.0))]))
            .unwrap();
        let neg = store
            .class_of(&attrs(&[("x", AttrValue::Float(-0.0))]))
            .unwrap();
        let int = store.class_of(&attrs(&[("x", AttrValue::Int(0))])).unwrap();
        assert!(!Arc::ptr_eq(&zero, &neg) && !Arc::ptr_eq(&zero, &int));
        assert_eq!(store.classes().0, 3);
    }

    /// Past either bound a map is unclassed, and what is classed stays.
    #[test]
    fn the_class_table_stops_at_its_bounds() {
        let store = SelectorStore::with_capacity(8);
        let first = store.class_of(&topic_attrs("t-first")).unwrap();
        for i in 0..MAX_CLASSES + 50 {
            store.class_of(&topic_attrs(&format!("t{i}")));
            assert!(store.classes().0 <= MAX_CLASSES);
        }
        assert_eq!(store.classes().0, MAX_CLASSES);
        assert!(store.class_of(&topic_attrs("t-new")).is_none());
        let again = store.class_of(&topic_attrs("t-first")).unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "a minted class outlives the bound"
        );

        let store = SelectorStore::with_capacity(8);
        let big = |i: usize| topic_attrs(&format!("{i}{}", "x".repeat(10_000)));
        for i in 0..2 * MAX_CLASS_BYTES / 10_000 {
            store.class_of(&big(i));
            assert!(store.classes().1 <= MAX_CLASS_BYTES);
        }
        assert!(store.class_of(&big(usize::MAX)).is_none());
        assert!(store.classes().0 <= MAX_CLASS_BYTES / 10_000);
        assert!(
            store.class_of(&topic_attrs("small")).is_some(),
            "a small map still fits"
        );
    }

    #[test]
    fn lru_evicts_and_counts() {
        let store = SelectorStore::with_capacity(2);
        store.compile("a == 1").unwrap();
        store.compile("b == 2").unwrap();
        store.compile("a == 1").unwrap(); // hit, touches recency
        store.compile("c == 3").unwrap(); // evicts b == 2
        let stats = store.stats();
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.misses(), 3);
        assert_eq!(stats.evictions(), 1);
        assert!(store.peek("b == 2").is_none(), "LRU victim evicted");
        assert!(store.peek("a == 1").is_some(), "recently used survives");
    }

    #[test]
    fn engine_interpret_agrees_with_tree_interpret() {
        let mut p = Profile::new("client-3");
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("video")]),
        );
        p.set_interest("media == 'video' and encoding == 'jpeg'")
            .unwrap();
        p.add_transform(TransformCap::new("encoding", "mpeg2", "jpeg"));
        let content = attrs(&[
            ("media", AttrValue::str("video")),
            ("encoding", AttrValue::str("mpeg2")),
        ]);
        let selector = "interested_in contains 'video'";
        let tree = crate::matching::interpret(&p, &Selector::parse(selector).unwrap(), &content);
        let mut engine = MatchEngine::new();
        let compiled = engine.interpret(&p, selector, &content).unwrap();
        assert_eq!(tree, compiled);
        assert!(matches!(compiled, Ok(MatchOutcome::AcceptWithTransform(_))));
    }

    #[test]
    fn engine_snapshot_invalidates_on_profile_mutation_and_replacement() {
        let mut engine = MatchEngine::new();
        let mut p = Profile::new("u");
        p.set("mode", AttrValue::str("image"));
        let content = BTreeMap::new();
        let sel = "mode == 'image'";
        assert_eq!(
            engine.interpret(&p, sel, &content).unwrap().unwrap(),
            MatchOutcome::Accept
        );
        // In-place mutation.
        p.set("mode", AttrValue::str("text"));
        assert_eq!(
            engine.interpret(&p, sel, &content).unwrap().unwrap(),
            MatchOutcome::Reject
        );
        // Wholesale replacement under the same name.
        let mut q = Profile::new("u");
        q.set("mode", AttrValue::str("image"));
        assert_eq!(
            engine.interpret(&q, sel, &content).unwrap().unwrap(),
            MatchOutcome::Accept
        );
    }
}
