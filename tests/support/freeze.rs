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
//! which gives it the three tests below. After an *intended* behaviour
//! change, `cargo test --workspace -- --ignored bless` rewrites every
//! frozen file of every crate (`-p <crate> --test <file>` narrows it to
//! one); review the diff, and say in the commit that it was a re-bless.
//! Bless never deletes: when a frozen file stops being produced, delete
//! it by hand (`no_frozen_file_is_orphaned` names it).

#[test]
fn regenerated_files_match_the_frozen_ones() {
    for (path, fresh) in super::regenerate() {
        let frozen =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(fresh, frozen, "{} drifted", path.display());
    }
}

/// Every file in a directory `regenerate()` writes into is one it
/// regenerates: a frozen file whose producer is gone fails here instead
/// of lingering unchecked.
#[test]
fn no_frozen_file_is_orphaned() {
    let mut produced = std::collections::BTreeMap::<_, Vec<_>>::new();
    for (path, _) in super::regenerate() {
        let dir = path.parent().expect("golden files live in a directory");
        let name = path.file_name().expect("a golden file has a name");
        produced
            .entry(dir.to_path_buf())
            .or_default()
            .push(name.to_os_string());
    }
    for (dir, names) in produced {
        let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry
                .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
                .path();
            let name = path.file_name().expect("a directory entry has a name");
            assert!(
                !path.is_file() || names.iter().any(|n| n == name),
                "{} is frozen but nothing regenerates it",
                path.display()
            );
        }
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
