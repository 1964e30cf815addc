//! Attribute-name interning for the compiled matching fast path.
//!
//! Selector programs and profile snapshots refer to attributes by
//! [`Symbol`] — a dense `u32` handed out by an [`Interner`] — so the
//! per-message evaluation loop compares integers and indexes slot
//! tables instead of hashing and comparing `String` keys. One interner
//! lives in each selector store (one per session, or per party that
//! stands alone): every compiled artifact produced through that store
//! speaks the same symbol space, so a symbol minted while compiling a
//! selector is directly comparable with the keys of any profile
//! snapshot taken with the same interner.
//!
//! Symbols are never recycled: the table only grows (attribute
//! vocabularies in a session are small and stable), which is what makes
//! it sound to keep compiled selectors in an LRU cache across profile
//! snapshots — eviction never invalidates a symbol.

use std::collections::HashMap;

/// A dense handle for an interned attribute name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol's dense index (usable directly as a slot-table index).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A grow-only attribute-name interner.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    /// A fresh, empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern `name`, returning its symbol (existing or newly minted).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&id) = self.map.get(name) {
            return Symbol(id);
        }
        let id = self.names.len() as u32;
        self.map.insert(name.to_string(), id);
        self.names.push(name.to_string());
        Symbol(id)
    }

    /// Look up a name without interning it.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.map.get(name).map(|&id| Symbol(id))
    }

    /// The name behind a symbol.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned names (also the exclusive upper bound of all
    /// symbol indices handed out so far).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("media");
        let b = i.intern("color");
        assert_eq!(i.intern("media"), a);
        assert_eq!(a, Symbol(0));
        assert_eq!(b, Symbol(1));
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), "media");
        assert_eq!(i.lookup("color"), Some(b));
        assert_eq!(i.lookup("absent"), None);
    }
}
