//! The one compare/bless pair behind every golden test of the workspace.
//!
//! A golden test file defines `fn regenerate() -> Vec<(PathBuf, String)>`
//! — each frozen file's path and what the code at hand produces for it —
//! and ends with
//!
//! ```text
//! #[path = "../../../tests/support/freeze.rs"]
//! mod freeze;
//! ```
//!
//! which gives it the two tests below. After an *intended* behaviour
//! change, `cargo test --workspace -- --ignored bless` rewrites every
//! frozen file of every crate (`-p <crate> --test <file>` narrows it to
//! one); review the diff, and say in the commit that it was a re-bless.

#[test]
fn regenerated_files_match_the_frozen_ones() {
    for (path, fresh) in super::regenerate() {
        let frozen =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(fresh, frozen, "{} drifted", path.display());
    }
}

#[test]
#[ignore = "rewrites the golden files"]
fn bless() {
    for (path, fresh) in super::regenerate() {
        std::fs::create_dir_all(path.parent().expect("golden files live in a directory"))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        std::fs::write(&path, fresh).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}
