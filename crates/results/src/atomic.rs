//! Atomic file writes: write to a temp file in the target directory, then
//! rename over the destination. A kill at any point leaves either the old
//! contents or the new contents — never a truncated file. Used for every
//! artefact the workspace persists (results cells, `--out` reports, flight
//! traces).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

// Distinguishes temp files when several writers target the same directory
// from one process; the pid distinguishes processes. Deliberately not
// clock-derived so the helper stays deterministic.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `contents` to `path` atomically via temp-file + rename.
///
/// The temp file lives in the same directory as `path` (rename is only atomic
/// within a filesystem). On any error the temp file is removed and the
/// destination is untouched.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("write {}: path has no file name", path.display()))?;
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.tmp-{}-{seq}", std::process::id()));

    if let Err(e) = std::fs::write(&tmp, contents) {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("write {}: {e}", tmp.display()));
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::write_atomic;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("janus-atomic-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn writes_new_file() {
        let dir = temp_dir("new");
        let path = dir.join("cell.json");
        write_atomic(&path, "{\"a\":1}").expect("atomic write");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read back"),
            "{\"a\":1}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrites_existing_file() {
        let dir = temp_dir("overwrite");
        let path = dir.join("cell.json");
        write_atomic(&path, "old").expect("first write");
        write_atomic(&path, "new").expect("second write");
        assert_eq!(std::fs::read_to_string(&path).expect("read back"), "new");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leaves_no_temp_files_behind() {
        let dir = temp_dir("clean");
        for i in 0..4 {
            write_atomic(&dir.join("out.json"), &format!("v{i}")).expect("atomic write");
        }
        let entries: Vec<String> = std::fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            entries,
            vec!["out.json".to_string()],
            "stray files: {entries:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_error_not_a_panic() {
        let path = std::path::Path::new("/nonexistent-janus-dir/x/y.json");
        let err = write_atomic(path, "data").expect_err("should fail");
        assert!(err.contains("y.json"), "error should name the file: {err}");
    }
}
