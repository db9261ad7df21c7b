//! Durable-rename support shared by the store and serving writers.

use std::path::Path;

/// Fsync the directory holding `path`, so a `rename` onto `path` survives
/// a crash: the rename is an entry in that directory, and until the
/// directory itself is synced the new entry can vanish with power loss
/// even though the file's bytes were synced.
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syncs_the_parent_of_absolute_and_bare_paths() {
        let file = std::env::temp_dir().join("orfpred_util_durable_test");
        sync_parent_dir(&file).unwrap();
        sync_parent_dir(Path::new("bare-name")).unwrap();
        assert!(sync_parent_dir(Path::new("/no/such/dir/file")).is_err());
    }
}
