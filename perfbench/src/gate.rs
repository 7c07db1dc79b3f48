//! The correctness gate: an order-independent fingerprint of a result
//! (row count plus a commutative checksum of per-row hashes), computed
//! outside every timed region and compared against a reference result.

use relgo::prelude::{Table, Value};

/// Row count and order-independent checksum of one query result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    pub checksum: u64,
}

impl Fingerprint {
    pub fn of_table(table: &Table) -> Fingerprint {
        let cols = table.num_columns();
        let mut fp = Fingerprint::empty();
        for r in 0..table.num_rows() as u32 {
            let mut h = FNV_OFFSET;
            for c in 0..cols {
                h = hash_value(h, &table.value(r, c));
            }
            fp.add_row_hash(h);
        }
        fp
    }

    pub fn of_rows<'a>(rows: impl IntoIterator<Item = &'a [Value]>) -> Fingerprint {
        let mut fp = Fingerprint::empty();
        for row in rows {
            fp.add_row_hash(row.iter().fold(FNV_OFFSET, hash_value));
        }
        fp
    }

    fn empty() -> Fingerprint {
        Fingerprint {
            rows: 0,
            checksum: 0,
        }
    }

    /// Rows are mixed before a wrapping sum, so the checksum ignores row
    /// order but not multiplicity.
    fn add_row_hash(&mut self, h: u64) {
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(splitmix(h));
    }
}

/// Compare a result against its reference; the error names what differed.
pub fn verify(what: &str, expected: Fingerprint, got: Fingerprint) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    Err(format!(
        "{what}: expected {} rows (checksum {:016x}), got {} rows (checksum {:016x})",
        expected.rows, expected.checksum, got.rows, got.checksum
    ))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash one value with its type tag, so `Int(5)` and `Date(5)` differ.
fn hash_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => fnv(h, b"n"),
        Value::Int(i) => fnv(fnv(h, b"i"), &i.to_le_bytes()),
        Value::Float(x) => fnv(fnv(h, b"f"), &x.to_bits().to_le_bytes()),
        Value::Str(s) => fnv(fnv(fnv(h, b"s"), s.as_bytes()), b"\0"),
        Value::Bool(b) => fnv(h, if *b { b"T" } else { b"F" }),
        Value::Date(d) => fnv(fnv(h, b"d"), &d.to_le_bytes()),
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo::prelude::{table_of, DataType};

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(1), Value::str("ann")],
            vec![Value::Int(2), Value::str("bob")],
            vec![Value::Int(3), Value::str("cy")],
        ]
    }

    fn table(rows: Vec<Vec<Value>>) -> Table {
        table_of("t", &[("id", DataType::Int), ("name", DataType::Str)], rows)
    }

    #[test]
    fn row_order_does_not_matter() {
        let mut shuffled = rows();
        shuffled.rotate_left(1);
        let a = Fingerprint::of_table(&table(rows()));
        let b = Fingerprint::of_table(&table(shuffled));
        assert!(verify("rotated", a, b).is_ok());
    }

    #[test]
    fn table_and_decoded_rows_agree() {
        let rows = rows();
        let from_rows = Fingerprint::of_rows(rows.iter().map(Vec::as_slice));
        assert_eq!(Fingerprint::of_table(&table(rows)), from_rows);
    }

    #[test]
    fn gate_trips_on_a_perturbed_result() {
        let reference = Fingerprint::of_table(&table(rows()));
        let mut changed = rows();
        changed[1][1] = Value::str("bib");
        let err = verify(
            "perturbed",
            reference,
            Fingerprint::of_table(&table(changed)),
        );
        assert!(err.unwrap_err().contains("perturbed"));

        let mut dropped = rows();
        dropped.pop();
        assert!(verify("dropped", reference, Fingerprint::of_table(&table(dropped))).is_err());

        // Same row count, one row duplicated in place of another.
        let mut duplicated = rows();
        duplicated[2] = duplicated[0].clone();
        assert!(verify("dup", reference, Fingerprint::of_table(&table(duplicated))).is_err());
    }

    #[test]
    fn type_tags_separate_equal_payloads() {
        let int = Fingerprint::of_rows([[Value::Int(5)].as_slice()]);
        let date = Fingerprint::of_rows([[Value::Date(5)].as_slice()]);
        assert_ne!(int, date);
    }
}
