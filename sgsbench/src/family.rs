//! The persisted family's tables, for timing `execute` over exactly the
//! tables an SGS plan scans.
//!
//! `SmallGroupSampler` keeps its tables private, so the benchmark reads
//! them from the family file, whose v3 layout `aqp_core::persist`
//! documents: a 10-byte header, a length-prefixed metadata section with
//! its CRC, then one length-prefixed AQPT table block per table.

use crate::{timed_execute, Query};
use aqp_core::SmallGroupSampler;
use aqp_storage::{decode_table, Table};
use std::collections::HashMap;
use std::path::Path;

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
    if buf.len() < n {
        return Err("family file truncated".into());
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn take_u64(buf: &mut &[u8]) -> Result<usize, String> {
    let bytes: [u8; 8] = take(buf, 8)?.try_into().expect("8 bytes taken");
    usize::try_from(u64::from_le_bytes(bytes)).map_err(|e| e.to_string())
}

/// Every table of the family file at `path`, by name.
pub fn read_tables(path: &Path) -> Result<HashMap<String, Table>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut buf = bytes.as_slice();
    if take(&mut buf, 4)? != b"AQPS" {
        return Err("not an AQPS family file".into());
    }
    let version = u16::from_le_bytes(take(&mut buf, 2)?.try_into().expect("2 bytes taken"));
    if version != 3 {
        return Err(format!(
            "family file format v{version}; this benchmark reads v3"
        ));
    }
    take(&mut buf, 4)?; // file CRC
    let meta_len = take_u64(&mut buf)?;
    take(&mut buf, 4)?; // metadata CRC
    take(&mut buf, meta_len)?; // metadata section
    let mut tables = HashMap::new();
    while !buf.is_empty() {
        let len = take_u64(&mut buf)?;
        let table = decode_table(take(&mut buf, len)?).map_err(|e| format!("family table: {e}"))?;
        tables.insert(table.name().to_string(), table);
    }
    Ok(tables)
}

/// Time `execute` over each table `primary`'s plan for `query` names;
/// returns the total milliseconds and rows scanned.
pub fn scan(
    tables: &HashMap<String, Table>,
    primary: Option<&SmallGroupSampler>,
    query: &Query,
    threads: usize,
) -> Result<(f64, usize), String> {
    let primary = primary.ok_or("no SGS family to plan with")?;
    let (mut total_ms, mut rows) = (0.0, 0);
    for name in primary.plan_tables(query) {
        let table = tables
            .get(&name)
            .ok_or_else(|| format!("plan names {name}, absent from the family file"))?;
        let (t, r) = timed_execute(table, query, threads)?;
        total_ms += t;
        rows += r;
    }
    Ok((total_ms, rows))
}
