//! Query answers in a form two engines, two thread counts or two
//! storage formats can be compared in: rows in a canonical order,
//! floats compared with a tolerance (the engine's determinism contract
//! fixes everything but the last bits of float sums, which depend on
//! summation order).

use tpch::milql::MatFlow;
use x100_engine::QueryResult;
use x100_vector::Value;

const REL_TOL: f64 = 1e-9;
const ABS_TOL: f64 = 1e-6;

#[derive(Debug, Clone)]
pub struct Answer {
    rows: Vec<Vec<Value>>,
}

impl Answer {
    pub fn from_result(res: &QueryResult) -> Answer {
        let cols = res.fields().len();
        Answer::canonical(
            (0..res.num_rows())
                .map(|r| (0..cols).map(|c| res.value(r, c)).collect())
                .collect(),
        )
    }

    pub fn from_mil(flow: &MatFlow) -> Answer {
        Answer::canonical(
            (0..flow.num_rows())
                .map(|r| flow.names().iter().map(|n| flow.col(n).get(r)).collect())
                .collect(),
        )
    }

    /// Sort rows by their exact cells first and by floats rounded to six
    /// digits after, so a last-bit difference cannot reorder them.
    fn canonical(mut rows: Vec<Vec<Value>>) -> Answer {
        let key = |row: &Vec<Value>| {
            let mut exact = String::new();
            let mut floats = String::new();
            for v in row {
                match v {
                    Value::F64(f) => floats.push_str(&format!("{f:.5e}|")),
                    other => exact.push_str(&format!("{other}|")),
                }
            }
            (exact, floats)
        };
        rows.sort_by_cached_key(key);
        Answer { rows }
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// `Err` names the first cell that differs.
    pub fn matches(&self, other: &Answer) -> Result<(), String> {
        if self.rows.len() != other.rows.len() {
            return Err(format!(
                "{} rows, expected {}",
                self.rows.len(),
                other.rows.len()
            ));
        }
        for (r, (a, b)) in self.rows.iter().zip(&other.rows).enumerate() {
            if a.len() != b.len() {
                return Err(format!(
                    "row {r}: {} columns, expected {}",
                    a.len(),
                    b.len()
                ));
            }
            for (c, (x, y)) in a.iter().zip(b).enumerate() {
                let same = match (x, y) {
                    (Value::F64(x), Value::F64(y)) => {
                        (x - y).abs() <= ABS_TOL + REL_TOL * x.abs().max(y.abs())
                    }
                    // Engines may differ in integer width or in whether
                    // an enum is shown decoded; the rendering is what a
                    // user sees.
                    (x, y) => x.to_string() == y.to_string(),
                };
                if !same {
                    return Err(format!("row {r} column {c}: {x} != {y}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(rows: Vec<Vec<Value>>) -> Answer {
        Answer::canonical(rows)
    }

    #[test]
    fn order_and_last_bits_do_not_matter_but_values_do() {
        let a = answer(vec![
            vec![Value::Str("A".into()), Value::F64(1000.0)],
            vec![Value::Str("B".into()), Value::F64(2.5)],
        ]);
        let b = answer(vec![
            vec![Value::Str("B".into()), Value::F64(2.5)],
            vec![Value::Str("A".into()), Value::F64(1000.0 + 1e-10)],
        ]);
        assert_eq!(a.matches(&b), Ok(()));
        let c = answer(vec![
            vec![Value::Str("A".into()), Value::F64(1000.1)],
            vec![Value::Str("B".into()), Value::F64(2.5)],
        ]);
        assert!(a.matches(&c).is_err());
        assert!(a.matches(&answer(vec![])).is_err());
        // Same rendering, different integer width.
        let d = answer(vec![vec![Value::I32(7)]]);
        let e = answer(vec![vec![Value::I64(7)]]);
        assert_eq!(d.matches(&e), Ok(()));
    }
}
