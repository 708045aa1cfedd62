//! Stable, dependency-free content hashing.
//!
//! The optimization service addresses cached results by the *content* of
//! what it optimized, so the hash must be stable across processes, runs
//! and platforms — `std::hash` deliberately guarantees none of that. This
//! is FNV-1a over the canonical text serialization (see [`crate::text`]),
//! the same bytes `program_to_text` would emit, so two programs hash
//! equal exactly when they print equal.

use crate::{text, Function};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
///
/// Unlike `std::hash::Hasher` implementations, the result is a stable
/// function of the input bytes — safe to persist and to compare across
/// daemon restarts.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A hasher in its initial state.
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u64` (little-endian), e.g. a sub-hash.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of one byte string.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Content hash of one function: FNV-1a of its canonical text form
/// ([`crate::function_to_text`]). Identical bodies hash identically no
/// matter which program or process they appear in.
/// [`crate::ProgramText::function_hashes`] reads the same values off a
/// rendered program without rendering each function again.
pub fn hash_function(f: &Function) -> u64 {
    fnv1a_64(text::function_to_text(f).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuncId, FunctionBuilder, Linkage, ProgramBuilder, Type};

    fn one_func(name: &str, k: i64) -> Function {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut fb = FunctionBuilder::new(name, m, 0);
        let e = fb.entry_block();
        let r = fb.const_(e, crate::ConstVal::int(k));
        fb.ret(e, Some(r.into()));
        pb.add_function(fb.finish(Linkage::Public, Type::I64));
        pb.finish(Some(FuncId(0))).funcs.remove(0)
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn function_hash_tracks_content_not_identity() {
        assert_eq!(
            hash_function(&one_func("f", 1)),
            hash_function(&one_func("f", 1))
        );
        assert_ne!(
            hash_function(&one_func("f", 1)),
            hash_function(&one_func("f", 2))
        );
        assert_ne!(
            hash_function(&one_func("f", 1)),
            hash_function(&one_func("g", 1))
        );
    }
}
