//! Output checks: stored digests and the critical-path lower bound every
//! simulated latency must respect.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use serde_json::Value;

/// FNV-1a (64-bit) of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Expected output digests, keyed by row or catalogue entry.
pub struct Digests(HashMap<String, String>);

impl Digests {
    pub fn load(path: &Path) -> Result<Digests, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Value::Object(entries) = value else {
            return Err(format!("{}: expected an object", path.display()));
        };
        Ok(Digests(
            entries
                .into_iter()
                .filter_map(|(k, v)| v.as_str().map(|d| (k, d.to_string())))
                .collect(),
        ))
    }

    /// Whether `text` is the recorded output under `key` (an unknown key is
    /// a mismatch).
    pub fn matches(&self, key: &str, text: &str) -> bool {
        self.0.get(key).is_some_and(|d| *d == digest(text))
    }
}

/// Writes `key -> digest(text)` for every entry, sorted by key.
pub fn write_digests(path: &Path, entries: &BTreeMap<String, String>) -> Result<(), String> {
    let value = Value::Object(
        entries
            .iter()
            .map(|(k, text)| (k.clone(), Value::Str(digest(text))))
            .collect(),
    );
    let text = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `latency_cycles >= critical_path_cycles` for one evaluation object.
pub fn evaluation_ok(evaluation: &Value) -> bool {
    match (
        evaluation.get("latency_cycles").and_then(Value::as_u64),
        evaluation
            .get("critical_path_cycles")
            .and_then(Value::as_u64),
    ) {
        (Some(latency), Some(critical)) => latency >= critical,
        _ => false,
    }
}

/// Checks the critical-path bound on every evaluation of a response
/// `result` (an evaluate job's evaluation, or the rows of a sweep or
/// search). Stream results hold queueing statistics, not evaluations, and
/// pass.
pub fn result_respects_critical_path(result: &str) -> bool {
    let Ok(value) = serde_json::from_str(result) else {
        return false;
    };
    if value.get("stream").is_some() {
        return true;
    }
    if let Some(evaluation) = value.get("evaluation") {
        return evaluation_ok(evaluation);
    }
    match value
        .get("results")
        .and_then(|r| r.get("rows"))
        .and_then(Value::as_array)
    {
        Some(rows) => rows
            .iter()
            .all(|row| row.get("evaluation").is_some_and(evaluation_ok)),
        None => false,
    }
}
