//! The bench JSON schema-tag registry: the **only** place a
//! `"isi-…/vN"` tag literal may be spelled out.
//!
//! Every harness stamps its result document with a schema tag and
//! every verifier dispatches on it; if a writer and a reader each
//! spell the tag themselves, a version bump in one silently orphans
//! the other. `xtask lint` (rule `schema-registry`) therefore rejects
//! tag literals anywhere else in the tree — harnesses import these
//! constants (directly or through the re-export in
//! [`crate::throughput`]).
//!
//! Bumping a version is an API change to every consumer of the JSON
//! files: bump the constant here, and grep for the old tag in
//! `README.md`/`ROADMAP.md` prose while you're at it.

/// `BENCH_throughput.json` — morsel-parallel lookup throughput sweep.
pub const THROUGHPUT: &str = "isi-throughput/v1";

#[cfg(test)]
mod tests {
    /// The registry is the schema's format contract; keep the tags
    /// well-formed so verifiers can dispatch on `name/version`.
    #[test]
    fn tags_are_well_formed() {
        let tag = super::THROUGHPUT;
        let (name, version) = tag.split_once('/').expect("tag has a /version suffix");
        assert!(name.starts_with("isi-"), "{tag}: registry namespace");
        assert!(
            name.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
            "{tag}: kebab-case name"
        );
        assert!(
            version
                .strip_prefix('v')
                .is_some_and(|v| v.parse::<u32>().is_ok()),
            "{tag}: vN version"
        );
    }
}
