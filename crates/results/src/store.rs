//! Content-addressed results store.
//!
//! Each completed sweep cell is one file, `<dir>/<key>.json`, where the key
//! is the SHA-256 of the canonical compact encoding of
//! `{"cell": <cell spec>, "epoch": N}`. The cell spec is the fully-resolved
//! per-point `SessionSpec` document (scenario, load, seed, policies, every
//! knob that affects the outcome), so any change to any axis value yields a
//! different key and the stale file simply never matches again — cache
//! invalidation by construction, no mtime or dependency tracking. The epoch
//! is a code-level constant the engine bumps whenever simulation semantics
//! change; bumping it orphans every existing file at once.
//!
//! Writes go through [`write_atomic`], so a kill mid-write leaves either no
//! file or a complete one — never a truncated cell that would poison a
//! resumed run. Reads validate strictly: a file that exists but fails any
//! consistency check (format version, epoch, key recomputation, field types)
//! is a hard error, not a silent miss, because a corrupt cache silently
//! treated as cold would quietly discard the property the store exists to
//! provide.

use crate::atomic::write_atomic;
use crate::sha256::sha256_hex;
use janus_json::Value;
use std::path::{Path, PathBuf};

/// On-disk envelope format version. Bumped only when the envelope layout
/// itself changes (a different concern from the semantic epoch, which lives
/// inside the hash).
pub const STORE_FORMAT: f64 = 1.0;

/// One completed cell read back from the store.
#[derive(Debug, Clone)]
pub struct StoredCell {
    /// Content hash the file is named after.
    pub key: String,
    /// Epoch recorded in the envelope.
    pub epoch: u32,
    /// The fully-resolved cell spec the key was derived from.
    pub cell: Value,
    /// Wall-clock milliseconds the original run of this cell took.
    pub wall_ms: f64,
    /// The cell's result document (per-policy metrics).
    pub result: Value,
}

/// A directory of content-addressed cell files.
#[derive(Debug, Clone)]
pub struct ResultsStore {
    dir: PathBuf,
}

/// Content key for a cell spec under a given epoch: SHA-256 of the compact
/// canonical encoding of `{"cell": <spec>, "epoch": N}`.
fn cell_key(cell: &Value, epoch: u32) -> String {
    let doc = Value::Obj(vec![
        ("cell".to_string(), cell.clone()),
        ("epoch".to_string(), Value::Num(f64::from(epoch))),
    ]);
    sha256_hex(doc.to_compact().as_bytes())
}

impl ResultsStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("results store {}: {e}", dir.display()))?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    /// Open a store that must already exist (the `--resume` contract: resuming
    /// against a directory that was never created is a spelled-wrong-path
    /// mistake, not an empty cache).
    pub fn open_existing(dir: &Path) -> Result<Self, String> {
        if !dir.is_dir() {
            return Err(format!(
                "results store {}: directory does not exist (nothing to resume)",
                dir.display()
            ));
        }
        Self::open(dir)
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Persist a completed cell. Returns the content key the file was stored
    /// under. The write is atomic: concurrent writers of the same cell race
    /// benignly (same key, same bytes).
    pub fn save(
        &self,
        cell: &Value,
        epoch: u32,
        wall_ms: f64,
        result: &Value,
    ) -> Result<String, String> {
        let key = cell_key(cell, epoch);
        let envelope = Value::Obj(vec![
            ("janus_results".to_string(), Value::Num(STORE_FORMAT)),
            ("epoch".to_string(), Value::Num(f64::from(epoch))),
            ("key".to_string(), Value::Str(key.clone())),
            ("cell".to_string(), cell.clone()),
            ("wall_ms".to_string(), Value::Num(wall_ms)),
            ("result".to_string(), result.clone()),
        ]);
        write_atomic(&self.path_for(&key), &envelope.to_pretty())?;
        Ok(key)
    }

    /// Look up a cell spec. `Ok(None)` means a clean miss (no file);
    /// a file that exists but fails validation is an error.
    pub fn load(&self, cell: &Value, epoch: u32) -> Result<Option<StoredCell>, String> {
        let key = cell_key(cell, epoch);
        let path = self.path_for(&key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("results store {}: {e}", path.display())),
        };
        let stored =
            decode_envelope(&text).map_err(|e| format!("results store {}: {e}", path.display()))?;
        if stored.key != key {
            return Err(format!(
                "results store {}: recorded key `{}` does not match file name",
                path.display(),
                stored.key
            ));
        }
        let recomputed = cell_key(&stored.cell, stored.epoch);
        if recomputed != key {
            return Err(format!(
                "results store {}: stored cell does not hash to `{key}` (got `{recomputed}`) — file was modified after it was written",
                path.display()
            ));
        }
        if stored.epoch != epoch {
            return Err(format!(
                "results store {}: epoch {} (store) != {} (engine)",
                path.display(),
                stored.epoch,
                epoch
            ));
        }
        Ok(Some(stored))
    }

    /// Read back every valid cell in the store, sorted by file name (i.e. by
    /// content key) for deterministic iteration. Each envelope is validated
    /// self-consistently — recorded key must equal the hash recomputed from
    /// its own cell + epoch — so tampered or truncated files fail loudly.
    pub fn load_all(&self) -> Result<Vec<StoredCell>, String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("results store {}: {e}", self.dir.display()))?
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| entry.file_name().to_str().map(str::to_string))
            .filter(|name| name.ends_with(".json") && !name.starts_with('.'))
            .collect();
        names.sort();

        let mut cells = Vec::with_capacity(names.len());
        for name in names {
            let path = self.dir.join(&name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("results store {}: {e}", path.display()))?;
            let stored = decode_envelope(&text)
                .map_err(|e| format!("results store {}: {e}", path.display()))?;
            let expected = cell_key(&stored.cell, stored.epoch);
            if stored.key != expected {
                return Err(format!(
                    "results store {}: recorded key `{}` does not hash from its own cell (expected `{expected}`)",
                    path.display(),
                    stored.key
                ));
            }
            if name != format!("{}.json", stored.key) {
                return Err(format!(
                    "results store {}: file name does not match recorded key `{}`",
                    path.display(),
                    stored.key
                ));
            }
            cells.push(stored);
        }
        Ok(cells)
    }
}

fn decode_envelope(text: &str) -> Result<StoredCell, String> {
    let doc = janus_json::parse(text)?;
    let format = doc
        .require("janus_results")?
        .as_f64()
        .ok_or("field `janus_results` must be a number")?;
    // janus-lint: allow(float-cmp) — the format version is an integer-valued constant; exact match is the point
    if format != STORE_FORMAT {
        return Err(format!(
            "unsupported store format {format} (this build reads {STORE_FORMAT})"
        ));
    }
    let epoch_raw = doc
        .require("epoch")?
        .as_f64()
        .ok_or("field `epoch` must be a number")?;
    // janus-lint: allow(float-cmp) — exactness is the point: fract() must be exactly zero for an integer-valued f64
    if epoch_raw < 0.0 || epoch_raw.fract() != 0.0 || epoch_raw > f64::from(u32::MAX) {
        return Err(format!("field `epoch` must be a u32, got {epoch_raw}"));
    }
    let key = doc
        .require("key")?
        .as_str()
        .ok_or("field `key` must be a string")?
        .to_string();
    if key.len() != 64 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("field `key` must be 64 hex chars, got `{key}`"));
    }
    let cell = doc.require("cell")?.clone();
    let wall_ms = doc
        .require("wall_ms")?
        .as_f64()
        .ok_or("field `wall_ms` must be a number")?;
    if !wall_ms.is_finite() || wall_ms < 0.0 {
        return Err(format!(
            "field `wall_ms` must be finite and >= 0, got {wall_ms}"
        ));
    }
    let result = doc.require("result")?.clone();
    Ok(StoredCell {
        key,
        epoch: epoch_raw as u32,
        cell,
        wall_ms,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (ResultsStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("janus-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultsStore::open(&dir).expect("open store");
        (store, dir)
    }

    fn sample_cell(seed: f64) -> Value {
        Value::Obj(vec![
            ("scenario".to_string(), Value::Str("steady".to_string())),
            ("rps".to_string(), Value::Num(40.0)),
            ("seed".to_string(), Value::Num(seed)),
        ])
    }

    fn sample_result() -> Value {
        Value::Obj(vec![(
            "policies".to_string(),
            Value::Arr(vec![Value::Obj(vec![
                ("name".to_string(), Value::Str("baseline".to_string())),
                ("slo_attainment".to_string(), Value::Num(0.97)),
            ])]),
        )])
    }

    #[test]
    fn key_is_stable_and_axis_sensitive() {
        let a = cell_key(&sample_cell(1.0), 1);
        assert_eq!(a, cell_key(&sample_cell(1.0), 1), "same cell, same key");
        assert_ne!(a, cell_key(&sample_cell(2.0), 1), "seed changes the key");
        assert_ne!(a, cell_key(&sample_cell(1.0), 2), "epoch changes the key");
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn save_then_load_round_trips() {
        let (store, dir) = temp_store("roundtrip");
        let cell = sample_cell(7.0);
        let key = store.save(&cell, 1, 123.5, &sample_result()).expect("save");
        let loaded = store.load(&cell, 1).expect("load").expect("hit");
        assert_eq!(loaded.key, key);
        assert_eq!(loaded.epoch, 1);
        assert_eq!(loaded.cell, cell);
        assert_eq!(loaded.wall_ms, 123.5);
        assert_eq!(loaded.result, sample_result());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn miss_is_ok_none() {
        let (store, dir) = temp_store("miss");
        assert!(store
            .load(&sample_cell(9.0), 1)
            .expect("clean miss")
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_mismatch_never_hits() {
        let (store, dir) = temp_store("epoch");
        let cell = sample_cell(3.0);
        store.save(&cell, 1, 10.0, &sample_result()).expect("save");
        // A different epoch hashes to a different key, so this is a miss,
        // not an error: old-epoch files are simply unreachable.
        assert!(store
            .load(&cell, 2)
            .expect("miss under new epoch")
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_file_is_a_hard_error() {
        let (store, dir) = temp_store("tamper");
        let cell = sample_cell(5.0);
        let key = store.save(&cell, 1, 10.0, &sample_result()).expect("save");
        let path = dir.join(format!("{key}.json"));
        let text = std::fs::read_to_string(&path).expect("read cell");
        std::fs::write(&path, text.replace("\"steady\"", "\"spiky\"")).expect("tamper");
        let err = store.load(&cell, 1).expect_err("tamper must not load");
        assert!(err.contains("does not hash to"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_a_hard_error() {
        let (store, dir) = temp_store("truncate");
        let cell = sample_cell(6.0);
        let key = store.save(&cell, 1, 10.0, &sample_result()).expect("save");
        let path = dir.join(format!("{key}.json"));
        let text = std::fs::read_to_string(&path).expect("read cell");
        std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");
        store
            .load(&cell, 1)
            .expect_err("truncated cell must not load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_all_returns_sorted_valid_cells() {
        let (store, dir) = temp_store("loadall");
        for seed in [1.0, 2.0, 3.0] {
            store
                .save(&sample_cell(seed), 1, seed * 10.0, &sample_result())
                .expect("save");
        }
        let cells = store.load_all().expect("load all");
        assert_eq!(cells.len(), 3);
        let keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "cells must come back in key order");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_all_rejects_misnamed_file() {
        let (store, dir) = temp_store("misname");
        let cell = sample_cell(8.0);
        let key = store.save(&cell, 1, 10.0, &sample_result()).expect("save");
        let from = dir.join(format!("{key}.json"));
        let flipped = if key.starts_with('a') { "b" } else { "a" };
        let to = dir.join(format!("{flipped}{}.json", &key[1..]));
        std::fs::rename(&from, &to).expect("rename");
        store
            .load_all()
            .expect_err("misnamed cell must fail loudly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
